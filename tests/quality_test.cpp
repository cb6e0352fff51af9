//===- tests/quality_test.cpp - runtime quality monitor tests ---------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "apps/Kernels.h"
#include "img/Generators.h"
#include "img/Metrics.h"
#include "runtime/Quality.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>

using namespace kperf;
using namespace kperf::rt;

namespace {

/// Shared setup: a gaussian kernel + its Rows2 perforation over a 64x64
/// image already uploaded into the context.
struct MonitorSetup {
  std::unique_ptr<Session> Ctx;
  Kernel Accurate;
  Variant Approx;
  unsigned In = 0, Out = 0;
  std::vector<sim::KernelArg> Args;

  explicit MonitorSetup(img::ImageClass Class, unsigned Period = 4) {
    Ctx = std::make_unique<Session>();
    Accurate =
        cantFail(Ctx->compile(apps::gaussianSource(), "gaussian"));
    perf::PerforationPlan Plan;
    Plan.Scheme = perf::PerforationScheme::rows(
        Period, perf::ReconstructionKind::NearestNeighbor);
    Approx = cantFail(Ctx->perforate(Accurate, Plan));
    img::Image Img = img::generateImage(Class, 64, 64, 31);
    In = Ctx->createBufferFrom(Img.pixels());
    Out = Ctx->createBuffer(Img.size());
    Args = {arg::buffer(In), arg::buffer(Out), arg::i32(64), arg::i32(64)};
  }

  QualityMonitor monitor(double Budget, unsigned CheckEvery) {
    return QualityMonitor(*Ctx, Accurate, Approx, {64, 64}, {16, 16},
                          Budget, CheckEvery);
  }
};

ScoreFn mre() {
  return [](const std::vector<float> &R, const std::vector<float> &T) {
    return img::meanRelativeError(R, T);
  };
}

TEST(QualityMonitorTest, StaysApproximateWithinBudget) {
  MonitorSetup S(img::ImageClass::Smooth);
  QualityMonitor Mon = S.monitor(/*Budget=*/0.5, /*CheckEvery=*/2);
  for (int I = 0; I < 6; ++I) {
    MonitoredLaunch L = cantFail(Mon.launch(S.Args, S.Out, mre()));
    EXPECT_TRUE(L.UsedApproximate) << I;
  }
  EXPECT_FALSE(Mon.fellBack());
  EXPECT_EQ(Mon.history().size(), 3u); // Checked on launches 2, 4, 6.
}

TEST(QualityMonitorTest, FallsBackWhenBudgetViolated) {
  // Pattern input drives the Rows2 error above a tight budget.
  MonitorSetup S(img::ImageClass::Pattern);
  QualityMonitor Mon = S.monitor(/*Budget=*/0.001, /*CheckEvery=*/1);
  MonitoredLaunch First = cantFail(Mon.launch(S.Args, S.Out, mre()));
  EXPECT_TRUE(First.Checked);
  EXPECT_GT(First.MeasuredError, 0.001);
  EXPECT_FALSE(First.UsedApproximate); // Accurate result kept.
  EXPECT_TRUE(Mon.fellBack());

  // Subsequent launches run the accurate kernel without re-checking.
  MonitoredLaunch Next = cantFail(Mon.launch(S.Args, S.Out, mre()));
  EXPECT_FALSE(Next.UsedApproximate);
  EXPECT_FALSE(Next.Checked);
  EXPECT_EQ(Mon.history().size(), 1u);
}

TEST(QualityMonitorTest, FallbackOutputIsAccurate) {
  MonitorSetup S(img::ImageClass::Pattern);
  QualityMonitor Mon = S.monitor(0.0, 1); // Impossible budget.
  cantFail(Mon.launch(S.Args, S.Out, mre()));
  // The context's output buffer must now hold the accurate result.
  std::vector<float> Kept = S.Ctx->buffer(S.Out).downloadFloats();
  Expected<sim::SimReport> R =
      S.Ctx->launch(S.Accurate, {64, 64}, {16, 16}, S.Args);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(Kept, S.Ctx->buffer(S.Out).downloadFloats());
}

TEST(QualityMonitorTest, UncheckedLaunchesSkipAccurateRun) {
  MonitorSetup S(img::ImageClass::Smooth);
  QualityMonitor Mon = S.monitor(0.5, 4);
  MonitoredLaunch L1 = cantFail(Mon.launch(S.Args, S.Out, mre()));
  EXPECT_FALSE(L1.Checked);
  MonitoredLaunch L4 = [&] {
    cantFail(Mon.launch(S.Args, S.Out, mre()));
    cantFail(Mon.launch(S.Args, S.Out, mre()));
    return cantFail(Mon.launch(S.Args, S.Out, mre()));
  }();
  EXPECT_TRUE(L4.Checked);
  EXPECT_EQ(Mon.launches(), 4u);
}

TEST(QualityMonitorTest, CheckEveryZeroMeansAlways) {
  MonitorSetup S(img::ImageClass::Smooth);
  QualityMonitor Mon = S.monitor(0.5, 0);
  MonitoredLaunch L = cantFail(Mon.launch(S.Args, S.Out, mre()));
  EXPECT_TRUE(L.Checked);
}

TEST(QualityMonitorTest, NanScoreFallsBack) {
  // NaN compares false against any budget; a NaN score must still count
  // as a violation, so the first check falls back and serves accurate.
  MonitorSetup S(img::ImageClass::Smooth);
  QualityMonitor Mon = S.monitor(/*Budget=*/0.5, /*CheckEvery=*/1);
  ScoreFn NaN = [](const std::vector<float> &, const std::vector<float> &) {
    return std::numeric_limits<double>::quiet_NaN();
  };
  MonitoredLaunch L = cantFail(Mon.launch(S.Args, S.Out, NaN));
  EXPECT_TRUE(L.Checked);
  EXPECT_FALSE(L.UsedApproximate);
  EXPECT_TRUE(Mon.fellBack());

  std::vector<float> Kept = S.Ctx->buffer(S.Out).downloadFloats();
  cantFail(S.Ctx->launch(S.Accurate, {64, 64}, {16, 16}, S.Args));
  EXPECT_EQ(Kept, S.Ctx->buffer(S.Out).downloadFloats());
}

TEST(QualityMonitorTest, ConcurrentLaunchesKeepTheCheckCadence) {
  // 64 launches from 8 threads, each on its own buffers: exactly every
  // 8th launch checks, and every output is the approximate kernel's.
  MonitorSetup S(img::ImageClass::Smooth);
  QualityMonitor Mon = S.monitor(/*Budget=*/0.5, /*CheckEvery=*/8);
  const std::vector<float> Input = S.Ctx->buffer(S.In).downloadFloats();
  cantFail(S.Ctx->launch(S.Approx, {64, 64}, S.Args));
  const std::vector<float> Want = S.Ctx->buffer(S.Out).downloadFloats();

  std::atomic<unsigned> Checks{0};
  std::atomic<unsigned> Mismatches{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 8; ++T)
    Threads.emplace_back([&]() {
      unsigned In = S.Ctx->createBufferFrom(Input);
      unsigned Out = S.Ctx->createBuffer(Input.size());
      std::vector<sim::KernelArg> Args = {arg::buffer(In),
                                          arg::buffer(Out), arg::i32(64),
                                          arg::i32(64)};
      for (unsigned I = 0; I < 8; ++I) {
        Expected<MonitoredLaunch> L = Mon.launch(Args, Out, mre());
        if (!L || !L->UsedApproximate ||
            S.Ctx->buffer(Out).downloadFloats() != Want)
          ++Mismatches;
        else if (L->Checked)
          ++Checks;
      }
      S.Ctx->releaseBuffer(In);
      S.Ctx->releaseBuffer(Out);
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Mismatches.load(), 0u);
  EXPECT_EQ(Checks.load(), 8u);
  EXPECT_EQ(Mon.launches(), 64u);
  EXPECT_EQ(Mon.history().size(), 8u);
  EXPECT_FALSE(Mon.fellBack());
}

TEST(QualityMonitorTest, CheckStraddlingRearmRecordsNothing) {
  // A check still scoring when rearm() swaps the variant measured the
  // replaced one: its caller gets its own (over-budget, accurate)
  // result, but the re-armed monitor neither falls back nor records it.
  MonitorSetup S(img::ImageClass::Smooth);
  QualityMonitor Mon = S.monitor(/*Budget=*/0.5, /*CheckEvery=*/1);
  std::mutex Mu;
  std::condition_variable CV;
  bool Scoring = false;
  bool Release = false;
  ScoreFn Held = [&](const std::vector<float> &, const std::vector<float> &) {
    std::unique_lock<std::mutex> Lock(Mu);
    Scoring = true;
    CV.notify_all();
    CV.wait(Lock, [&] { return Release; });
    return 1.0;
  };
  MonitoredLaunch L;
  std::thread Launcher([&] { L = cantFail(Mon.launch(S.Args, S.Out, Held)); });
  {
    std::unique_lock<std::mutex> Lock(Mu);
    CV.wait(Lock, [&] { return Scoring; });
  }
  Mon.rearm(S.Approx);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Release = true;
  }
  CV.notify_all();
  Launcher.join();

  EXPECT_TRUE(L.Checked);
  EXPECT_FALSE(L.UsedApproximate);
  EXPECT_FALSE(Mon.fellBack());
  EXPECT_TRUE(Mon.history().empty());
}

TEST(QualityMonitorTest, HistoryAccumulates) {
  // A long-lived monitor keeps a sliding window of the last 64 check
  // errors, not an unbounded log.
  MonitorSetup S(img::ImageClass::Smooth);
  QualityMonitor Mon = S.monitor(0.5, 1);
  for (int I = 0; I < 70; ++I)
    cantFail(Mon.launch(S.Args, S.Out, mre()));
  ASSERT_EQ(Mon.history().size(), 64u);
  // Same input every time: identical measured error.
  EXPECT_DOUBLE_EQ(Mon.history()[0], Mon.history()[63]);
}

} // namespace
