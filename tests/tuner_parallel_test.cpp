//===- tests/tuner_parallel_test.cpp - Parallel tuning + session safety ------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The parallel tuning engine and the concurrency-hardened rt::Session:
//  * tuneParallel returns bit-identical TunerResult vectors for any job
//    count (the parallel sweep is a pure speedup, not a different tuner);
//  * hammering one variant/source cache key from many threads compiles it
//    exactly once, and the atomic SessionStats counters stay exact;
//  * the buffer free list hands released slots back to later checkouts
//    and refuses launches through stale released indices.
//
// This suite (with session_test) is the TSan tier: CI rebuilds both with
// -fsanitize=thread, so a data race in Session/Tuner fails the build.
//
//===----------------------------------------------------------------------===//

#include "apps/App.h"
#include "img/Generators.h"
#include "perforation/Tuner.h"
#include "runtime/Session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
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

perf::PerforationPlan rows1Plan(unsigned TileX = 16, unsigned TileY = 16) {
  perf::PerforationPlan Plan;
  Plan.Scheme = perf::PerforationScheme::rows(
      2, perf::ReconstructionKind::NearestNeighbor);
  Plan.TileX = TileX;
  Plan.TileY = TileY;
  return Plan;
}

/// Runs \p Fn on \p NumThreads threads, all released at once so cache
/// probes genuinely overlap.
void runThreads(unsigned NumThreads, const std::function<void()> &Fn) {
  std::atomic<bool> Go{false};
  std::vector<std::thread> Pool;
  Pool.reserve(NumThreads);
  for (unsigned T = 0; T < NumThreads; ++T)
    Pool.emplace_back([&] {
      while (!Go.load())
        std::this_thread::yield();
      Fn();
    });
  Go = true;
  for (std::thread &T : Pool)
    T.join();
}

//===--- Parallel tuning ------------------------------------------------------//

/// A tuning harness over one shared Session, mirroring kperfc tune: the
/// quality reference and accurate per-shape times are measured up front,
/// then Evaluate is thread-safe (cached variants + checked-out buffers).
struct TuneHarness {
  std::unique_ptr<apps::App> App;
  Session S;
  apps::Workload W;
  std::vector<float> Reference;
  std::map<std::pair<unsigned, unsigned>, double> AccurateMs;
  std::vector<perf::TunerConfig> Space;

  explicit TuneHarness(const std::string &AppName, unsigned Size = 64)
      : App(apps::makeApp(AppName)),
        W(AppName == "hotspot"
              ? apps::makeHotspotWorkload(Size, 1000, /*Iterations=*/2)
              : apps::makeImageWorkload(img::generateImage(
                    img::ImageClass::Natural, Size, Size, 13))) {
    Reference = App->reference(W);
    // Two feasible shapes plus one that does not divide the image, so
    // the infeasible Note path is part of the determinism check too.
    std::vector<std::pair<unsigned, unsigned>> Shapes = {
        {8, 8}, {16, 16}, {48, 16}};
    std::vector<perf::PerforationScheme> Schemes = {
        perf::PerforationScheme::none(),
        perf::PerforationScheme::rows(2,
                                      perf::ReconstructionKind::NearestNeighbor),
        perf::PerforationScheme::rows(2, perf::ReconstructionKind::Linear),
        perf::PerforationScheme::stencil(),
    };
    for (const perf::PerforationScheme &Scheme : Schemes)
      for (auto [X, Y] : Shapes)
        Space.push_back(perf::TunerConfig{Scheme, X, Y});
    for (auto [X, Y] : Shapes) {
      if (Size % X != 0 || Size % Y != 0)
        continue;
      rt::Variant Plain = cantFail(App->buildPlain(S, {X, Y}));
      apps::RunOutcome R = cantFail(App->run(S, Plain, W));
      AccurateMs.emplace(std::make_pair(X, Y), R.Report.TimeMs);
    }
  }

  perf::EvaluateFn evaluate() {
    unsigned Size = W.Input.width();
    return [this, Size](const perf::TunerConfig &Config)
               -> Expected<perf::Measurement> {
      if (Size % Config.TileX != 0 || Size % Config.TileY != 0)
        return makeError("image %ux%u not divisible by %ux%u", Size, Size,
                         Config.TileX, Config.TileY);
      if (Config.Scheme.Kind == perf::SchemeKind::None)
        return perf::Measurement{1.0, 0.0, {}};
      Expected<rt::Variant> V = App->buildPerforated(
          S, Config.Scheme, {Config.TileX, Config.TileY});
      if (!V)
        return V.takeError();
      Expected<apps::RunOutcome> R = App->run(S, *V, W);
      if (!R)
        return R.takeError();
      perf::Measurement M;
      M.Speedup =
          AccurateMs.at({Config.TileX, Config.TileY}) / R->Report.TimeMs;
      M.Error = App->score(Reference, R->Output);
      M.PassStats = V->PassStats;
      return M;
    };
  }
};

void expectSameResults(const std::vector<perf::TunerResult> &A,
                       const std::vector<perf::TunerResult> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Config.str(), B[I].Config.str()) << "slot " << I;
    EXPECT_EQ(A[I].Feasible, B[I].Feasible) << A[I].Config.str();
    EXPECT_EQ(A[I].Note, B[I].Note) << A[I].Config.str();
    // Bit-exact: the simulator is deterministic and the cached variant
    // is the same kernel, so parallelism must not perturb a single bit.
    EXPECT_EQ(A[I].M.Speedup, B[I].M.Speedup) << A[I].Config.str();
    EXPECT_EQ(A[I].M.Error, B[I].M.Error) << A[I].Config.str();
  }
}

TEST(TunerParallelTest, ParallelMatchesSerialBitExact) {
  TuneHarness H("gaussian");
  perf::EvaluateFn Evaluate = H.evaluate();
  std::vector<perf::TunerResult> Serial =
      perf::tuneExhaustive(H.Space, Evaluate);
  ASSERT_FALSE(Serial.empty());

  for (unsigned Jobs : {1u, 2u, 8u}) {
    std::vector<perf::TunerResult> Parallel =
        perf::tuneParallel(H.Space, Evaluate, Jobs);
    expectSameResults(Serial, Parallel);
    size_t BestSerial = perf::bestWithinErrorBudget(Serial, 0.05);
    size_t BestParallel = perf::bestWithinErrorBudget(Parallel, 0.05);
    EXPECT_EQ(BestSerial, BestParallel) << "jobs " << Jobs;
  }
  // Results arrive in space order, so slot I is always configuration I.
  for (size_t I = 0; I < Serial.size(); ++I)
    EXPECT_EQ(Serial[I].Config.str(), H.Space[I].str());
}

TEST(TunerParallelTest, AllNineAppsParallelMatchesSerial) {
  // The acceptance bar for the parallel tuner: on every app the 8-job
  // sweep must select the same winning configuration and produce the
  // same per-config Measurements as the serial sweep.
  for (const char *AppName :
       {"gaussian", "inversion", "median", "hotspot", "sobel3", "sobel5",
        "mean", "sharpen", "convsep"}) {
    SCOPED_TRACE(AppName);
    TuneHarness H(AppName);
    perf::EvaluateFn Evaluate = H.evaluate();
    std::vector<perf::TunerResult> Serial =
        perf::tuneExhaustive(H.Space, Evaluate);
    std::vector<perf::TunerResult> Parallel =
        perf::tuneParallel(H.Space, Evaluate, 8);
    expectSameResults(Serial, Parallel);
    EXPECT_EQ(perf::bestWithinErrorBudget(Serial, 0.05),
              perf::bestWithinErrorBudget(Parallel, 0.05));
  }
}

TEST(TunerParallelTest, ParallelSweepCompilesEachVariantOnce) {
  TuneHarness H("median");
  SessionStats Before = H.S.stats();
  std::vector<perf::TunerResult> Results =
      perf::tuneParallel(H.Space, H.evaluate(), 8);
  ASSERT_EQ(Results.size(), H.Space.size());
  // 3 schemes x 2 feasible shapes of transformed variants; each must
  // have compiled exactly once despite 8 workers racing over them.
  unsigned NewCompiles =
      H.S.stats().VariantCompiles - Before.VariantCompiles;
  EXPECT_EQ(NewCompiles, 6u);
  EXPECT_EQ(H.S.stats().SourceCompiles, 1u);
}

//===--- Cache hammering ------------------------------------------------------//

TEST(TunerParallelTest, VariantCacheHammerCompilesOnce) {
  Session S;
  Kernel K = cantFail(S.compile(ScaleSource, "scale"));

  const unsigned NumThreads = 8;
  std::vector<const ir::Function *> Seen(NumThreads, nullptr);
  std::atomic<unsigned> Slot{0};
  runThreads(NumThreads, [&] {
    Variant V = cantFail(S.perforate(K, rows1Plan()));
    Seen[Slot.fetch_add(1)] = V.K.F;
  });

  // N threads x one key => exactly 1 compile, N-1 hits, one kernel.
  EXPECT_EQ(S.stats().VariantCompiles, 1u);
  EXPECT_EQ(S.stats().VariantCacheHits, NumThreads - 1);
  for (const ir::Function *F : Seen)
    EXPECT_EQ(F, Seen.front());
}

TEST(TunerParallelTest, SourceCacheHammerCompilesOnce) {
  Session S;
  const unsigned NumThreads = 8;
  runThreads(NumThreads,
             [&] { cantFail(S.compile(ScaleSource, "scale")); });
  EXPECT_EQ(S.stats().SourceCompiles, 1u);
  EXPECT_EQ(S.stats().SourceCacheHits, NumThreads - 1);
}

TEST(TunerParallelTest, AtomicCountersExactUnderConcurrentLookups) {
  // Regression for the plain-int counters: every concurrent cache probe
  // must be counted exactly once now that they are atomics.
  Session S;
  Kernel K = cantFail(S.compile(ScaleSource, "scale"));
  cantFail(S.perforate(K, rows1Plan())); // Warm: 1 compile.

  const unsigned NumThreads = 8, Lookups = 50;
  runThreads(NumThreads, [&] {
    for (unsigned I = 0; I < Lookups; ++I)
      cantFail(S.perforate(K, rows1Plan()));
  });
  EXPECT_EQ(S.stats().VariantCompiles, 1u);
  EXPECT_EQ(S.stats().VariantCacheHits, NumThreads * Lookups);
  EXPECT_EQ(S.stats().variantLookups(), NumThreads * Lookups + 1);
}

//===--- Buffer free list -----------------------------------------------------//

TEST(TunerParallelTest, BufferFreeListReusesReleasedSlots) {
  Session S;
  unsigned A = S.createBuffer(100);
  unsigned B = S.createBufferFrom(std::vector<float>(50, 1.0f));
  EXPECT_EQ(S.stats().BufferCreates, 2u);
  EXPECT_EQ(S.stats().BufferReuses, 0u);

  S.releaseBuffer(A);
  unsigned C = S.createBuffer(80);
  EXPECT_EQ(C, A); // Checkout reuses the released slot...
  EXPECT_EQ(S.buffer(C).size(), 80u);        // ...resized...
  EXPECT_FLOAT_EQ(S.buffer(C).floatAt(0), 0.0f); // ...and zeroed.
  EXPECT_EQ(S.stats().BufferCreates, 2u);
  EXPECT_EQ(S.stats().BufferReuses, 1u);

  // Untouched slots keep their contents across other releases.
  EXPECT_FLOAT_EQ(S.buffer(B).floatAt(49), 1.0f);
}

TEST(TunerParallelTest, LaunchThroughReleasedBufferFails) {
  Session S;
  Kernel K = cantFail(S.compile(ScaleSource, "scale"));
  unsigned In = S.createBufferFrom(std::vector<float>(16 * 16, 1.0f));
  unsigned Out = S.createBuffer(16 * 16);
  std::vector<sim::KernelArg> Args = {arg::buffer(In), arg::buffer(Out),
                                      arg::i32(16), arg::i32(16)};
  cantFail(S.launch(K, {16, 16}, {16, 16}, Args));

  S.releaseBuffer(Out);
  Expected<sim::SimReport> R = S.launch(K, {16, 16}, {16, 16}, Args);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.error().message().find("out of range"), std::string::npos);
}

TEST(TunerParallelTest, ConcurrentCheckoutsGetDistinctSlots) {
  Session S;
  const unsigned NumThreads = 8, Rounds = 25;
  std::vector<std::vector<unsigned>> PerThread(NumThreads);
  std::atomic<unsigned> ThreadId{0};
  runThreads(NumThreads, [&] {
    unsigned T = ThreadId.fetch_add(1);
    for (unsigned I = 0; I < Rounds; ++I) {
      unsigned In = S.createBufferFrom(std::vector<float>(64, float(T)));
      unsigned Out = S.createBuffer(64);
      // The slots are exclusively ours until released.
      EXPECT_NE(In, Out);
      EXPECT_FLOAT_EQ(S.buffer(In).floatAt(0), float(T));
      PerThread[T].push_back(In);
      PerThread[T].push_back(Out);
      S.releaseBuffer(In);
      S.releaseBuffer(Out);
    }
  });
  // Free-list reuse keeps the buffer table bounded by the concurrency
  // level, not the total number of checkouts.
  unsigned Creates = S.stats().BufferCreates;
  unsigned Reuses = S.stats().BufferReuses;
  EXPECT_EQ(Creates + Reuses, NumThreads * Rounds * 2);
  EXPECT_LE(Creates, NumThreads * 2);
  EXPECT_GE(Reuses, NumThreads * Rounds * 2 - NumThreads * 2);
}

//===--- Concurrent end-to-end runs -------------------------------------------//

TEST(TunerParallelTest, ConcurrentAppRunsMatchSerialOutputs) {
  // Many workers share one session and one variant, each launching its
  // own simulator instance on checked-out buffers: every output must be
  // byte-identical to the serial run's.
  auto App = apps::makeApp("gaussian");
  apps::Workload W = apps::makeImageWorkload(
      img::generateImage(img::ImageClass::Natural, 64, 64, 3));
  Session S;
  Variant V = cantFail(App->buildPerforated(
      S, perf::PerforationScheme::rows(2, perf::ReconstructionKind::Linear),
      {16, 16}));
  std::vector<float> Serial = cantFail(App->run(S, V, W)).Output;

  const unsigned NumThreads = 8;
  std::vector<std::vector<float>> Outputs(NumThreads);
  std::atomic<unsigned> Slot{0};
  runThreads(NumThreads, [&] {
    unsigned T = Slot.fetch_add(1);
    Outputs[T] = cantFail(App->run(S, V, W)).Output;
  });
  for (const std::vector<float> &Out : Outputs)
    EXPECT_EQ(Out, Serial);
}

} // namespace
