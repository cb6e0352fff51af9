//===- examples/thermal_sim.cpp - Approximate thermal simulation -------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Hotspot as a downstream user would run it: a multi-step transient
// thermal simulation where every step's temperature input is perforated.
// Shows how the error accumulates (or does not) over simulation time and
// what the end-to-end speedup is.
//
// Usage: thermal_sim [grid-size] [steps]    (default: 128 16)
//
//===----------------------------------------------------------------------===//

#include "apps/App.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>

using namespace kperf;
using namespace kperf::apps;

namespace {

/// Reads count argument \p Text: anything but a decimal count up to
/// 4294967295 exits 2 before anything runs, instead of wrapping.
unsigned countArg(const char *Text, const char *Name) {
  unsigned V = 0;
  if (!parseUnsigned(Text, V)) {
    std::fprintf(stderr,
                 "error: bad %s value '%s' (expected a count up to "
                 "4294967295)\n",
                 Name, Text);
    std::exit(2);
  }
  return V;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Size = Argc > 1 ? countArg(Argv[1], "grid-size") : 128;
  unsigned Steps = Argc > 2 ? countArg(Argv[2], "steps") : 16;
  if (Size == 0 || Size % 16 != 0) {
    std::fprintf(stderr, "grid size must be a positive multiple of 16\n");
    return 1;
  }

  auto App = makeApp("hotspot");
  std::printf("hotspot: %ux%u grid, %u steps, Rows1:LI perforation of the "
              "temperature field\n\n",
              Size, Size, Steps);

  std::printf("%6s %14s %14s %10s\n", "step", "max temp (acc)",
              "max temp (perf)", "MRE");

  // One session serves every run below; the perforated variant compiles
  // once and later builds are cache hits.
  rt::Session S;

  // Error trajectory: compare accurate and perforated after 1..Steps.
  for (unsigned Checkpoint : {1u, Steps / 4, Steps / 2, Steps}) {
    if (Checkpoint == 0)
      continue;
    Workload W = makeHotspotWorkload(Size, 5, Checkpoint);
    std::vector<float> Ref = App->reference(W);

    rt::Variant BK = cantFail(App->buildPerforated(
        S,
        perf::PerforationScheme::rows(2, perf::ReconstructionKind::Linear),
        {16, 16}));
    RunOutcome R = cantFail(App->run(S, BK, W));

    float MaxAcc = 0, MaxPerf = 0;
    for (float V : Ref)
      MaxAcc = std::max(MaxAcc, V);
    for (float V : R.Output)
      MaxPerf = std::max(MaxPerf, V);
    std::printf("%6u %14.3f %14.3f %10.5f\n", Checkpoint, MaxAcc, MaxPerf,
                App->score(Ref, R.Output));
  }

  // End-to-end timing over the full run.
  Workload W = makeHotspotWorkload(Size, 5, Steps);
  double BaseMs, PerfMs;
  {
    rt::Variant BK = cantFail(App->buildBaseline(S, {16, 16}));
    BaseMs = cantFail(App->run(S, BK, W)).Report.TimeMs;
  }
  {
    rt::Variant BK = cantFail(App->buildPerforated(
        S,
        perf::PerforationScheme::rows(2, perf::ReconstructionKind::Linear),
        {16, 16}));
    PerfMs = cantFail(App->run(S, BK, W)).Report.TimeMs;
  }
  std::printf("\naccurate:   %.4f ms\nperforated: %.4f ms\nspeedup:    "
              "%.2fx over %u steps\n",
              BaseMs, PerfMs, BaseMs / PerfMs, Steps);
  return 0;
}
