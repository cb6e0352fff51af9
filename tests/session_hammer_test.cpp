//===- tests/session_hammer_test.cpp - Session lifetime hammer ---------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Concurrency hammer for the Session's kernel-lifetime discipline: client
// threads interleave launch, capacity-driven eviction, and
// invalidate/re-perforate cycles on one shared session. The TSan CI tier
// runs this binary; single-threaded phases pin the exact
// eviction/rejection counter accounting, and every phase asserts the
// module's function count stays bounded (no leaked variant kernels) and
// that a launch racing a retirement either completes correctly or fails
// with the evicted-variant error -- never a dangling access.
//
//===----------------------------------------------------------------------===//

#include "runtime/Session.h"

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

perf::PerforationPlan planWithTile(unsigned TileX, unsigned TileY) {
  perf::PerforationPlan Plan;
  Plan.Scheme = perf::PerforationScheme::rows(
      2, perf::ReconstructionKind::NearestNeighbor);
  Plan.TileX = TileX;
  Plan.TileY = TileY;
  return Plan;
}

TEST(SessionHammerTest, ExactEvictionAndRejectionAccounting) {
  // Single-threaded: the counters must account exactly. Capacity 2 with
  // four distinct keys evicts exactly twice; two gate rejections count
  // as rejections and never as compiles.
  Session S;
  S.setVariantCapacity(2);
  Kernel K = cantFail(S.compile(ScaleSource, "scale"));
  size_t Baseline = S.module().numFunctions();

  unsigned Tiles[4][2] = {{16, 16}, {8, 8}, {8, 4}, {4, 4}};
  for (auto &T : Tiles)
    cantFail(S.perforate(K, planWithTile(T[0], T[1])));
  EXPECT_EQ(S.stats().VariantCompiles, 4u);
  EXPECT_EQ(S.stats().VariantEvictions, 2u);
  // Live cached kernels = compiles - evictions, and the module holds
  // exactly the source kernel plus the live variants.
  EXPECT_EQ(S.module().numFunctions(), Baseline + 2);

  const char *OobSource = R"(
kernel void oob(global const float* in, global float* out, int w, int h) {
  float p[8];
  int x = get_global_id(0);
  int y = get_global_id(1);
  p[0] = in[y * w + x];
  p[8200] = 3.0;
  out[y * w + x] = p[0];
}
)";
  S.setLintGate(true);
  Kernel Bad = cantFail(S.compile(OobSource, "oob"));
  for (int I = 0; I < 2; ++I)
    EXPECT_FALSE(static_cast<bool>(S.perforate(Bad, planWithTile(16, 16))));
  EXPECT_EQ(S.stats().LintRejections, 2u);
  EXPECT_EQ(S.stats().VariantCompiles, 4u); // Unchanged by rejections.
  EXPECT_EQ(S.stats().VariantEvictions, 2u);
}

TEST(SessionHammerTest, ConcurrentLaunchEvictInvalidate) {
  // The race the graveyard/quiescence protocol exists for: launches in
  // flight while other threads evict (tiny capacity) and invalidate the
  // source kernel. Every launch either returns the correct output or
  // the evicted-variant error.
  Session S;
  S.setVariantCapacity(2); // Every fresh key evicts another thread's.
  Kernel K = cantFail(S.compile(ScaleSource, "scale"));
  size_t Baseline = S.module().numFunctions();

  constexpr unsigned W = 32, H = 32, Iters = 40;
  const std::vector<float> Data(W * H, 1.0f);
  std::atomic<unsigned> WrongOutputs{0}, HardFailures{0}, Evicted{0},
      Launches{0};

  // Three launcher threads on distinct variant keys, one launching the
  // source kernel (its launch copy) directly, one invalidator cycling
  // invalidate/re-perforate on the shared source kernel. Invalidation
  // rebuilds the launch copy; the direct launches must keep computing
  // 2x on whichever copy is current.
  unsigned Tiles[3][2] = {{16, 16}, {8, 8}, {4, 4}};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 3; ++T)
    Threads.emplace_back([&, T]() {
      unsigned In = S.createBufferFrom(Data);
      unsigned Out = S.createBuffer(Data.size());
      std::vector<sim::KernelArg> Args = {arg::buffer(In), arg::buffer(Out),
                                          arg::i32(W), arg::i32(H)};
      for (unsigned I = 0; I < Iters; ++I) {
        Expected<Variant> V =
            S.perforate(K, planWithTile(Tiles[T][0], Tiles[T][1]));
        if (!V) {
          ++HardFailures;
          continue;
        }
        Expected<sim::SimReport> R = S.launch(*V, {W, H}, Args);
        if (!R) {
          // The only acceptable failure: our kernel was retired between
          // perforate() and launch() by an eviction or invalidation.
          if (Session::isEvictedError(R.error()))
            ++Evicted;
          else
            ++HardFailures;
          continue;
        }
        ++Launches;
        if (S.buffer(Out).floatAt(0) != 2.0f)
          ++WrongOutputs;
      }
      S.releaseBuffer(In);
      S.releaseBuffer(Out);
    });
  Threads.emplace_back([&]() {
    unsigned In = S.createBufferFrom(Data);
    unsigned Out = S.createBuffer(Data.size());
    std::vector<sim::KernelArg> Args = {arg::buffer(In), arg::buffer(Out),
                                        arg::i32(W), arg::i32(H)};
    for (unsigned I = 0; I < Iters; ++I) {
      Expected<sim::SimReport> R = S.launch(K, {W, H}, {16, 16}, Args);
      if (!R) {
        if (Session::isEvictedError(R.error()))
          ++Evicted;
        else
          ++HardFailures;
        continue;
      }
      ++Launches;
      if (S.buffer(Out).floatAt(0) != 2.0f)
        ++WrongOutputs;
    }
    S.releaseBuffer(In);
    S.releaseBuffer(Out);
  });
  Threads.emplace_back([&]() {
    for (unsigned I = 0; I < Iters; ++I) {
      S.invalidate(K);
      Expected<Variant> V = S.perforate(K, planWithTile(16, 16));
      if (!V)
        ++HardFailures;
    }
  });
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_EQ(HardFailures.load(), 0u);
  EXPECT_EQ(WrongOutputs.load(), 0u);
  EXPECT_GT(Launches.load(), 0u);

  // No leaked kernels: whatever the interleaving, the module ends with
  // the source kernel plus at most VariantCapacity live variants (the
  // graveyard holds only detached functions, freed at quiescence).
  EXPECT_LE(S.module().numFunctions(), Baseline + 2);

  // Cross-thread counter conservation: every lookup was a compile or a
  // hit, and live entries = compiles - evictions - invalidation-retired.
  const SessionStats &St = S.stats();
  EXPECT_EQ(St.variantLookups(), St.VariantCompiles + St.VariantCacheHits);
  EXPECT_LE(St.VariantEvictions.load(), St.VariantCompiles.load());

  // The session still works after the storm.
  Variant V = cantFail(S.perforate(K, planWithTile(16, 16)));
  unsigned In = S.createBufferFrom(Data);
  unsigned Out = S.createBuffer(Data.size());
  cantFail(S.launch(V, {W, H},
                    {arg::buffer(In), arg::buffer(Out), arg::i32(W),
                     arg::i32(H)}));
  EXPECT_FLOAT_EQ(S.buffer(Out).floatAt(0), 2.0f);
}

TEST(SessionHammerTest, InvalidateLoopUnderConcurrentLaunchesStaysBounded) {
  // The PR's leak regression under concurrency: 100 invalidate/
  // re-perforate cycles race two launcher threads; the function count
  // is re-checked after every join point.
  Session S;
  Kernel K = cantFail(S.compile(ScaleSource, "scale"));
  cantFail(S.perforate(K, planWithTile(16, 16)));
  size_t Baseline = S.module().numFunctions();

  constexpr unsigned W = 32, H = 32;
  const std::vector<float> Data(W * H, 0.5f);
  std::atomic<bool> Stop{false};
  std::atomic<unsigned> HardFailures{0};

  std::vector<std::thread> Launchers;
  for (unsigned T = 0; T < 2; ++T)
    Launchers.emplace_back([&]() {
      unsigned In = S.createBufferFrom(Data);
      unsigned Out = S.createBuffer(Data.size());
      std::vector<sim::KernelArg> Args = {arg::buffer(In), arg::buffer(Out),
                                          arg::i32(W), arg::i32(H)};
      while (!Stop.load()) {
        Expected<Variant> V = S.perforate(K, planWithTile(16, 16));
        if (!V) {
          ++HardFailures;
          continue;
        }
        Expected<sim::SimReport> R = S.launch(*V, {W, H}, Args);
        if (!R && !Session::isEvictedError(R.error()))
          ++HardFailures;
      }
      S.releaseBuffer(In);
      S.releaseBuffer(Out);
    });

  for (unsigned I = 0; I < 100; ++I) {
    S.invalidate(K);
    cantFail(S.perforate(K, planWithTile(16, 16)));
  }
  Stop.store(true);
  for (std::thread &Th : Launchers)
    Th.join();

  EXPECT_EQ(HardFailures.load(), 0u);
  EXPECT_GE(S.stats().Invalidations, 100u);
  // One source kernel, one live variant; nothing accumulated.
  EXPECT_EQ(S.module().numFunctions(), Baseline);
}

} // namespace
