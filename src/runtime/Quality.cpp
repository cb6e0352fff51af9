//===- runtime/Quality.cpp --------------------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "runtime/Quality.h"

#include <cmath>

using namespace kperf;
using namespace kperf::rt;

namespace {
/// How many check errors history() keeps.
constexpr size_t kHistoryCapacity = 64;
} // namespace

QualityMonitor::QualityMonitor(Session &S, Kernel Accurate, Variant Approx,
                               sim::Range2 Global,
                               sim::Range2 AccurateLocal,
                               double ErrorBudget, unsigned CheckEvery)
    : S(S), Accurate(Accurate), Global(Global),
      AccurateLocal(AccurateLocal), ErrorBudget(ErrorBudget),
      CheckEvery(CheckEvery == 0 ? 1 : CheckEvery),
      Approx(std::move(Approx)) {}

bool QualityMonitor::fellBack() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return FellBack;
}

unsigned QualityMonitor::launches() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Launches;
}

std::deque<double> QualityMonitor::history() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return History;
}

void QualityMonitor::rearm(const Variant &NewApprox) {
  std::lock_guard<std::mutex> Lock(Mu);
  Approx = NewApprox;
  FellBack = false;
  History.clear();
  ++Generation;
}

Expected<MonitoredLaunch>
QualityMonitor::launch(const std::vector<sim::KernelArg> &Args,
                       unsigned OutBuffer, const ScoreFn &Score) {
  // Decide under the lock what this launch runs; run it outside.
  bool Accurately = false;
  bool Check = false;
  Variant V;
  unsigned Gen = 0;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Launches;
    Accurately = FellBack;
    if (!Accurately) {
      Check = Launches % CheckEvery == 0;
      V = Approx;
      Gen = Generation;
    }
  }
  MonitoredLaunch Result;

  if (Accurately) {
    Expected<sim::SimReport> R =
        S.launch(Accurate, Global, AccurateLocal, Args);
    if (!R)
      return R.takeError();
    Result.Report = *R;
    return Result;
  }

  if (!Check) {
    Expected<sim::SimReport> R = S.launch(V, Global, Args);
    if (!R)
      return R.takeError();
    Result.Report = *R;
    Result.UsedApproximate = true;
    return Result;
  }

  // Check iteration: run both kernels from the same pre-launch output
  // state, compare, keep the approximate result if within budget.
  std::vector<float> Initial = S.buffer(OutBuffer).downloadFloats();

  Expected<sim::SimReport> AccR =
      S.launch(Accurate, Global, AccurateLocal, Args);
  if (!AccR)
    return AccR.takeError();
  std::vector<float> Reference = S.buffer(OutBuffer).downloadFloats();

  S.buffer(OutBuffer).uploadFloats(Initial);
  Expected<sim::SimReport> AppR = S.launch(V, Global, Args);
  if (!AppR)
    return AppR.takeError();
  std::vector<float> Test = S.buffer(OutBuffer).downloadFloats();

  const double Err = Score(Reference, Test);
  // NaN compares false against any budget, so a degenerate score would
  // otherwise pass every check. Non-finite error violates the budget.
  const bool Violated = !std::isfinite(Err) || Err > ErrorBudget;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Gen == Generation) {
      History.push_back(Err);
      if (History.size() > kHistoryCapacity)
        History.pop_front();
      if (Violated)
        FellBack = true;
    }
  }
  Result.Checked = true;
  Result.MeasuredError = Err;

  if (Violated) {
    // Budget violated: restore the accurate result and stop approximating.
    S.buffer(OutBuffer).uploadFloats(Reference);
    Result.Report = *AccR;
    Result.UsedApproximate = false;
    return Result;
  }
  Result.Report = *AppR;
  Result.UsedApproximate = true;
  return Result;
}
