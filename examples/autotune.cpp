//===- examples/autotune.cpp - Autotuning demo -------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The paper's future-work scenario realized: given a kernel and an error
// budget, automatically explore scheme x reconstruction x work-group x
// loop-stride configurations, print the Pareto front, and pick the
// fastest configuration within the budget.
//
// Usage: autotune [app] [error-budget]     (default: median 0.05)
//
//===----------------------------------------------------------------------===//

#include "apps/App.h"
#include "img/Generators.h"
#include "ir/PassManager.h"
#include "perforation/Tuner.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <map>
#include <utility>

using namespace kperf;
using namespace kperf::apps;

int main(int Argc, char **Argv) {
  std::string AppName = Argc > 1 ? Argv[1] : "median";
  double Budget = 0.05;
  if (Argc > 2 && !parseNonNegative(Argv[2], Budget)) {
    std::fprintf(stderr,
                 "error: bad error-budget value '%s' (expected a finite "
                 "number >= 0)\n",
                 Argv[2]);
    return 2;
  }
  auto App = makeApp(AppName);
  if (!App) {
    std::fprintf(stderr, "unknown app '%s'\n", AppName.c_str());
    return 1;
  }

  const unsigned Size = 128;
  Workload W = AppName == "hotspot"
                   ? makeHotspotWorkload(Size, 11, 4)
                   : makeImageWorkload(img::generateImage(
                         img::ImageClass::Natural, Size, Size, 11));
  std::vector<float> Reference = App->reference(W);

  // One session for the whole sweep: the kernel source compiles once,
  // each unique variant at most once, and the accurate baseline is
  // measured once per work-group shape.
  rt::Session S;
  std::map<std::pair<unsigned, unsigned>, double> BaselineMs;

  // Measure one configuration: speedup vs. the baseline at the same
  // work-group shape, plus output error. The loop stride is a pipeline
  // pass (perforate-loop), so each build runs under the configuration's
  // joint spec; baselines run under the default spec.
  perf::EvaluateFn Evaluate =
      [&](const perf::TunerConfig &Config)
      -> Expected<perf::Measurement> {
    sim::Range2 Local{Config.TileX, Config.TileY};
    auto Key = std::make_pair(Local.X, Local.Y);
    auto It = BaselineMs.find(Key);
    if (It == BaselineMs.end()) {
      App->setPipelineSpec(ir::defaultPipelineSpec());
      Expected<rt::Variant> Base = App->buildBaseline(S, Local);
      if (!Base)
        return Base.takeError();
      Expected<RunOutcome> R = App->run(S, *Base, W);
      if (!R)
        return R.takeError();
      It = BaselineMs.emplace(Key, R->Report.TimeMs).first;
    }
    double BaseMs = It->second;
    App->setPipelineSpec(
        perf::jointPipelineSpec(ir::defaultPipelineSpec(), Config.LoopStride));
    Expected<rt::Variant> BK =
        Config.Scheme.Kind == perf::SchemeKind::None && Config.LoopStride <= 1
            ? App->buildBaseline(S, Local)
            : App->buildPerforated(S, Config.Scheme, Local);
    if (!BK)
      return BK.takeError();
    Expected<RunOutcome> R = App->run(S, *BK, W);
    if (!R)
      return R.takeError();
    perf::Measurement M;
    M.Speedup = BaseMs / R->Report.TimeMs;
    M.Error = App->score(Reference, R->Output);
    return M;
  };

  std::printf("autotuning %s, error budget %.3f, %zu configurations...\n\n",
              AppName.c_str(), Budget, perf::defaultTuningSpace().size());
  std::vector<perf::TunerResult> Results =
      perf::tuneExhaustive(perf::defaultTuningSpace(), Evaluate);

  unsigned Feasible = 0;
  for (const perf::TunerResult &R : Results)
    if (R.Feasible)
      ++Feasible;
  std::printf("%u/%zu configurations feasible\n", Feasible, Results.size());

  std::printf("\nPareto front (speedup vs. error):\n");
  std::vector<perf::TradeoffPoint> Points = toTradeoffPoints(Results);
  for (size_t I : perf::paretoFront(Points))
    std::printf("  %-24s speedup %5.2fx  error %.5f\n",
                Points[I].Label.c_str(), Points[I].Speedup,
                Points[I].Error);

  size_t Best = perf::bestWithinErrorBudget(Results, Budget);
  if (Best == ~size_t(0)) {
    std::printf("\nno configuration meets the %.3f budget\n", Budget);
    return 0;
  }
  std::printf("\nchosen for budget %.3f: %s (speedup %.2fx, error %.5f)\n",
              Budget, Results[Best].Config.str().c_str(),
              Results[Best].M.Speedup, Results[Best].M.Error);
  std::printf("session: %s\n", S.stats().str().c_str());
  return 0;
}
