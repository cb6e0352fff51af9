//===- examples/quality_monitor.cpp - Runtime quality control demo ------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// A Sage/Paraprox-style runtime scenario: a filter runs over a stream of
// frames with a perforated kernel, and a QualityMonitor re-validates the
// output quality every few frames against the accurate kernel. The
// stream starts with smooth, countryside-like content the approximation
// handles easily, then switches to high-frequency pattern content
// (paper Fig. 7c: ~19% error on patterns) -- the monitor notices the
// budget violation at its next check and permanently falls back to the
// accurate kernel.
//
// Usage: quality_monitor [error-budget] [check-every]   (default 0.05 4)
//
//===----------------------------------------------------------------------===//

#include "apps/Kernels.h"
#include "img/Generators.h"
#include "img/Metrics.h"
#include "runtime/Quality.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace kperf;

int main(int Argc, char **Argv) {
  double Budget = 0.05;
  if (Argc > 1 && !parseNonNegative(Argv[1], Budget)) {
    // A number, not whatever prefix of the text parses: exit before
    // anything runs.
    std::fprintf(stderr,
                 "error: bad error-budget value '%s' (expected a finite "
                 "number >= 0)\n",
                 Argv[1]);
    return 2;
  }
  unsigned CheckEvery = 4;
  if (Argc > 2 && !parseUnsigned(Argv[2], CheckEvery)) {
    // A count, not a wrapped negative: exit before anything runs.
    std::fprintf(stderr,
                 "error: bad check-every value '%s' (expected a count up "
                 "to 4294967295)\n",
                 Argv[2]);
    return 2;
  }
  const unsigned Size = 128;
  const unsigned NumFrames = 24;

  rt::Session S;
  rt::Kernel Accurate =
      cantFail(S.compile(apps::medianSource(), "median"));
  perf::PerforationPlan Plan;
  Plan.Scheme = perf::PerforationScheme::rows(
      2, perf::ReconstructionKind::NearestNeighbor); // Rows1.
  rt::Variant Approx = cantFail(S.perforate(Accurate, Plan));

  unsigned In = S.createBuffer(size_t(Size) * Size);
  unsigned Out = S.createBuffer(size_t(Size) * Size);
  std::vector<sim::KernelArg> Args = {
      rt::arg::buffer(In), rt::arg::buffer(Out),
      rt::arg::i32(static_cast<int32_t>(Size)),
      rt::arg::i32(static_cast<int32_t>(Size))};

  rt::QualityMonitor Mon(S, Accurate, Approx, {Size, Size}, {16, 16},
                         Budget, CheckEvery);
  rt::ScoreFn Score = [](const std::vector<float> &R,
                         const std::vector<float> &T) {
    return img::meanRelativeError(R, T);
  };

  std::printf("median Rows1:NN stream, budget %.3f, check every %u "
              "frames\n\n",
              Budget, CheckEvery);
  std::printf("%5s  %-12s %-11s %9s %10s\n", "frame", "content",
              "kernel", "checked", "error");

  double ApproxMs = 0, TotalMs = 0;
  for (unsigned Frame = 0; Frame < NumFrames; ++Frame) {
    // Content drift: smooth natural footage for the first two thirds,
    // then a cut to high-frequency pattern content.
    bool Pattern = Frame >= 2 * NumFrames / 3;
    img::Image F = img::generateImage(Pattern ? img::ImageClass::Pattern
                                              : img::ImageClass::Smooth,
                                      Size, Size, 100 + Frame);
    S.buffer(In).uploadFloats(F.pixels());

    rt::MonitoredLaunch L = cantFail(Mon.launch(Args, Out, Score));
    TotalMs += L.Report.TimeMs;
    if (L.UsedApproximate)
      ApproxMs += L.Report.TimeMs;
    const char *Content = Pattern ? "pattern" : "smooth";
    const char *Used = L.UsedApproximate ? "perforated" : "accurate";
    if (L.Checked)
      std::printf("%5u  %-12s %-11s %9s %10.5f\n", Frame, Content, Used,
                  "yes", L.MeasuredError);
    else
      std::printf("%5u  %-12s %-11s %9s %10s\n", Frame, Content, Used,
                  "-", "-");
  }

  std::printf("\nfell back: %s after %zu checks\n",
              Mon.fellBack() ? "yes" : "no", Mon.history().size());
  std::printf("modeled stream time %.3f ms (%.0f%% spent in the "
              "perforated kernel)\n",
              TotalMs, 100.0 * ApproxMs / TotalMs);
  std::printf("\nThe monitor kept the fast kernel while the content was "
              "smooth and\nswitched to the accurate kernel once the "
              "pattern content blew the\nerror budget -- the runtime "
              "side of the paper's \"library can\nautomatically apply "
              "and tune the technique\".\n");
  return 0;
}
