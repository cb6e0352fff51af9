//===- tests/session_hammer_test.cpp - Session concurrency hammer ----------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Concurrency hammer for the Session's lock-free launches: client threads
// launch variants and source kernels while other threads compile fresh
// variants and fresh sources into the same module. The TSan CI tier runs
// this binary on both execution tiers; every launch must succeed with the
// right output, and the module must end holding exactly what was
// compiled -- a Session frees nothing it handed out before it dies.
//
//===----------------------------------------------------------------------===//

#include "runtime/Session.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace kperf;
using namespace kperf::rt;

namespace {

const char *ScaleSource = R"(
kernel void scale(global const float* in, global float* out, int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  out[y * w + x] = in[y * w + x] * 2.0;
}
)";

/// A distinct kernel per \p I: "fresh<I>" scales its input by I + 3.
std::string freshSource(unsigned I) {
  return format("kernel void fresh%u(global const float* in, "
                "global float* out, int w, int h) {\n"
                "  int x = get_global_id(0);\n"
                "  int y = get_global_id(1);\n"
                "  out[y * w + x] = in[y * w + x] * %u.0;\n"
                "}\n",
                I, I + 3);
}

perf::PerforationPlan planWithTile(unsigned TileX, unsigned TileY) {
  perf::PerforationPlan Plan;
  Plan.Scheme = perf::PerforationScheme::rows(
      2, perf::ReconstructionKind::NearestNeighbor);
  Plan.TileX = TileX;
  Plan.TileY = TileY;
  return Plan;
}

TEST(SessionHammerTest, ConcurrentCompileAndLaunch) {
  // Launches take no compile lock, so they run while other threads grow
  // the module: three threads perforate distinct tiles and launch, one
  // launches the source kernel (its launch copy), and one compiles fresh
  // sources and launches each.
  Session S;
  Kernel K = cantFail(S.compile(ScaleSource, "scale"));
  const size_t Baseline = S.module().numFunctions();

  constexpr unsigned W = 32, H = 32, Iters = 40;
  const std::vector<float> Data(W * H, 1.0f);
  std::atomic<unsigned> Failures{0}, WrongOutputs{0};

  // Runs \p Launch on a fresh buffer pair; counts a failed launch or an
  // output other than \p Want.
  auto Check = [&](float Want, auto Launch) {
    unsigned In = S.createBufferFrom(Data);
    unsigned Out = S.createBuffer(Data.size());
    Expected<sim::SimReport> R = Launch(std::vector<sim::KernelArg>{
        arg::buffer(In), arg::buffer(Out), arg::i32(W), arg::i32(H)});
    if (!R)
      ++Failures;
    else if (S.buffer(Out).floatAt(0) != Want)
      ++WrongOutputs;
    S.releaseBuffer(In);
    S.releaseBuffer(Out);
  };

  unsigned Tiles[3][2] = {{16, 16}, {8, 8}, {4, 4}};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 3; ++T)
    Threads.emplace_back([&, T]() {
      for (unsigned I = 0; I < Iters; ++I) {
        Expected<Variant> V =
            S.perforate(K, planWithTile(Tiles[T][0], Tiles[T][1]));
        if (!V) {
          ++Failures;
          continue;
        }
        Check(2.0f, [&](const std::vector<sim::KernelArg> &Args) {
          return S.launch(*V, {W, H}, Args);
        });
      }
    });
  Threads.emplace_back([&]() {
    for (unsigned I = 0; I < Iters; ++I)
      Check(2.0f, [&](const std::vector<sim::KernelArg> &Args) {
        return S.launch(K, {W, H}, {16, 16}, Args);
      });
  });
  Threads.emplace_back([&]() {
    for (unsigned I = 0; I < Iters; ++I) {
      Expected<Kernel> Fresh =
          S.compile(freshSource(I), format("fresh%u", I));
      if (!Fresh) {
        ++Failures;
        continue;
      }
      Check(static_cast<float>(I + 3),
            [&](const std::vector<sim::KernelArg> &Args) {
              return S.launch(*Fresh, {W, H}, {16, 16}, Args);
            });
    }
  });
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(WrongOutputs.load(), 0u);
  // One kernel per perforated tile, and a frontend kernel plus its launch
  // copy per fresh source: nothing freed, nothing compiled twice.
  EXPECT_EQ(S.module().numFunctions(), Baseline + 3 + 2 * Iters);
  const SessionStats &St = S.stats();
  EXPECT_EQ(St.VariantCompiles, 3u);
  EXPECT_EQ(St.VariantCacheHits, 3 * Iters - 3);
  EXPECT_EQ(St.SourceCompiles, 1 + Iters);
}

} // namespace
