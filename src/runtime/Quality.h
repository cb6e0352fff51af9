//===- runtime/Quality.h - Runtime quality-of-result control ------*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime quality monitor in the spirit of the Sage/Paraprox runtime
/// helpers the paper cites: an application keeps launching the perforated
/// kernel, and the monitor periodically re-runs the accurate kernel on
/// the same inputs to measure the actual output error. If the measured
/// error exceeds the budget, the monitor permanently falls back to the
/// accurate kernel ("the target output quality criteria are met",
/// Paraprox section of the paper's related work).
///
/// Usage:
/// \code
///   rt::QualityMonitor Mon(S, Accurate, PerforatedVariant, Global,
///                          {AccLocalX, AccLocalY}, Budget);
///   for (Frame F : Video) {
///     ... upload F ...
///     auto R = Mon.launch(Args, OutBufferIndex, ScoreFn);
///   }
/// \endcode
///
/// Thread-safety: every method may be called concurrently. Several
/// threads may launch() at once, each with its own argument buffers; an
/// internal mutex guards the launch counter, the fell-back flag, the
/// history and the current variant. It is held only to decide what a
/// launch runs and to record a check's result, never across a kernel
/// launch or the scorer, so concurrent launches overlap.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_RUNTIME_QUALITY_H
#define KPERF_RUNTIME_QUALITY_H

#include "runtime/Session.h"

#include <deque>
#include <functional>
#include <mutex>

namespace kperf {
namespace rt {

/// Computes the error of a test output against a reference output. A
/// non-finite error counts as over every budget. May be called from
/// several threads at once (concurrent launches, background re-tunes),
/// so it must be thread-safe.
using ScoreFn = std::function<double(const std::vector<float> &Reference,
                                     const std::vector<float> &Test)>;

/// Outcome of one monitored launch.
struct MonitoredLaunch {
  sim::SimReport Report;
  bool UsedApproximate = false; ///< Which kernel actually ran.
  bool Checked = false;         ///< This launch included a quality check.
  double MeasuredError = 0;     ///< Valid when Checked.
};

/// Periodically validates a perforated kernel against its accurate
/// original and falls back when the error budget is violated.
class QualityMonitor {
public:
  /// \p CheckEvery: every N-th launch runs both kernels and compares
  /// (N=1 checks always; larger N amortizes the accurate run's cost).
  /// \p Approx is any single-pass variant (a perforated one in the
  /// paper's scenario); its launch constraints travel inside the handle.
  QualityMonitor(Session &S, Kernel Accurate, Variant Approx,
                 sim::Range2 Global, sim::Range2 AccurateLocal,
                 double ErrorBudget, unsigned CheckEvery = 8);

  /// Launches the currently selected kernel; on check iterations, runs
  /// the accurate kernel first, then the approximate one, and scores the
  /// outputs with \p Score. \p OutBuffer is the kernel's output buffer
  /// index inside the session (its pre-launch contents are restored
  /// before the approximate run, so both see the same initial state);
  /// concurrent callers must each pass their own.
  Expected<MonitoredLaunch> launch(const std::vector<sim::KernelArg> &Args,
                                   unsigned OutBuffer,
                                   const ScoreFn &Score);

  /// True once the monitor has given up on the approximate kernel. No
  /// longer necessarily permanent: rearm() (e.g. after an online re-tune
  /// hot-swaps the variant) puts the monitor back in approximate mode.
  bool fellBack() const;

  /// Number of launches performed so far.
  unsigned launches() const;

  /// The errors of the most recent 64 checks, oldest first (a copy): a
  /// long-lived monitor keeps a sliding window, not an unbounded log.
  std::deque<double> history() const;

  /// Swaps in \p NewApprox (e.g. a re-tuned variant) and re-arms the
  /// monitor: FellBack clears and history restarts so stale errors from
  /// the replaced variant never count against the new one -- a check
  /// still in flight across the swap reports its own result to its
  /// caller but records nothing. The launch counter keeps running.
  void rearm(const Variant &NewApprox);

private:
  Session &S;
  const Kernel Accurate;
  const sim::Range2 Global;
  const sim::Range2 AccurateLocal;
  const double ErrorBudget;
  const unsigned CheckEvery;

  /// Guards every member below; never held across a launch or a score.
  mutable std::mutex Mu;
  Variant Approx;
  bool FellBack = false;
  unsigned Launches = 0;
  std::deque<double> History;
  /// Bumped by rearm(): a check records its result only if the
  /// generation it launched under is still current.
  unsigned Generation = 0;
};

} // namespace rt
} // namespace kperf

#endif // KPERF_RUNTIME_QUALITY_H
