//===- apps/App.h - Benchmark application harness ------------------*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Uniform harness over the six applications: build accurate/baseline/
/// perforated/output-approximated kernel variants once, then run them on
/// workloads and score output quality. This is the layer the benchmarks,
/// the examples, and the autotuner drive.
///
/// Variants are rt::Variant handles built inside an rt::Session; building
/// the same variant twice in one session (as sweeps do) is served from the
/// session's compiled-variant cache.
///
/// Variant vocabulary (paper terms):
///  * plain     -- the kernel as written (global loads only);
///  * baseline  -- the best accurate version: local-memory prefetch for
///                 apps with data reuse, plain otherwise (the paper's
///                 speedup denominator, section 6.1/6.3);
///  * perforated-- local memory-aware kernel perforation (our approach);
///  * outputApprox -- Paraprox-style output approximation (related work).
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_APPS_APP_H
#define KPERF_APPS_APP_H

#include "apps/References.h"
#include "img/Image.h"
#include "img/Metrics.h"
#include "perforation/Scheme.h"
#include "perforation/Transform.h"
#include "perforation/OutputApprox.h"
#include "runtime/Session.h"

#include <memory>
#include <string>
#include <vector>

namespace kperf {
namespace apps {

/// One problem instance.
struct Workload {
  img::Image Input;      ///< Image apps: the image. Hotspot: temperature.
  img::Image Power;      ///< Hotspot only.
  unsigned Iterations = 1; ///< Hotspot time steps.
  HotspotParams Hotspot;   ///< Hotspot physical constants.
};

/// A run's output values plus the simulator report (accumulated over all
/// launches the run needed, e.g. Hotspot iterations).
struct RunOutcome {
  std::vector<float> Output;
  sim::SimReport Report;
};

/// Base class of the six applications.
class App {
public:
  App(std::string Name, std::string Domain, bool UseMre);
  virtual ~App();
  App(const App &) = delete;
  App &operator=(const App &) = delete;

  const std::string &name() const { return Name; }
  const std::string &domain() const { return Domain; }
  /// "Mean relative error" or "Mean error" (paper Table 1).
  const char *metricName() const;

  /// PCL source and kernel name.
  virtual const char *source() const = 0;
  virtual const char *kernelName() const = 0;

  /// True if the accurate baseline should prefetch through local memory
  /// (apps with data reuse across threads, paper section 6.1). Inversion
  /// returns false: a prefetch step would only add time.
  virtual bool baselineUsesLocalMemory() const { return true; }

  /// Ground-truth output via the native reference implementation.
  virtual std::vector<float> reference(const Workload &W) const = 0;

  /// Output quality: MRE or mean error depending on the app.
  double score(const std::vector<float> &Reference,
               const std::vector<float> &Test) const;

  /// Cleanup pipeline used when building perforated and
  /// output-approximated variants -- part of every variant's cache key.
  /// Defaults to ir::defaultPipelineSpec(); the pipeline ablations, the
  /// loop-perforation bench and the pipeline oracle set other specs.
  const std::string &pipelineSpec() const { return PipelineSpec; }
  void setPipelineSpec(std::string Spec) {
    PipelineSpec = std::move(Spec);
  }

  /// Verify the IR after every pipeline pass when building perforated
  /// variants (the differential pipeline oracle turns this on).
  void setVerifyEach(bool V) { VerifyEach = V; }

  //===--- Variant construction --------------------------------------------//

  /// Compiles the kernel as written. The variant's K.F is the session's
  /// promoted IR of it; launching it runs the session's copy optimized
  /// under the default pipeline (same outputs and modeled time, fewer
  /// simulated ops).
  virtual Expected<rt::Variant> buildPlain(rt::Session &S,
                                           sim::Range2 Local) const;

  /// Builds the accurate baseline (local prefetch if beneficial).
  virtual Expected<rt::Variant> buildBaseline(rt::Session &S,
                                              sim::Range2 Local) const;

  /// Builds the perforated variant for \p Scheme at work-group shape
  /// \p Local.
  virtual Expected<rt::Variant>
  buildPerforated(rt::Session &S, perf::PerforationScheme Scheme,
                  sim::Range2 Local) const;

  /// Builds the Paraprox output-approximation variant.
  virtual Expected<rt::Variant>
  buildOutputApprox(rt::Session &S, perf::OutputSchemeKind Kind,
                    unsigned ApproxPerComputed, sim::Range2 Local) const;

  /// Runs a built variant on \p W inside \p S.
  virtual Expected<RunOutcome> run(rt::Session &S, const rt::Variant &V,
                                   const Workload &W) const = 0;

protected:
  /// Width/height scalar argument indices (for output approximation).
  virtual unsigned widthArgIndex() const = 0;
  virtual unsigned heightArgIndex() const = 0;

  /// For build* overrides that populate their own transform plans (the
  /// two-pass ConvSep app): they must propagate this into
  /// Plan.VerifyEach, or the oracle's verify-each guarantee silently
  /// skips their extra kernels.
  bool verifyEach() const { return VerifyEach; }

private:
  std::string Name;
  std::string Domain;
  bool UseMre;
  std::string PipelineSpec;
  bool VerifyEach = false;
};

/// Creates all six applications in the paper's Table 1 order.
std::vector<std::unique_ptr<App>> makeAllApps();

/// Creates the extension applications beyond the paper's Table 1: the
/// remaining Paraprox stencil benchmarks quoted in section 4.3 ("mean",
/// "convsep") plus "sharpen".
std::vector<std::unique_ptr<App>> makeExtensionApps();

/// Creates one application by name ("gaussian", "inversion", "median",
/// "hotspot", "sobel3", "sobel5", and the extensions "mean", "sharpen",
/// "convsep"); null if unknown.
std::unique_ptr<App> makeApp(const std::string &Name);

/// Generates a Hotspot workload: a power map with a few hot blocks and an
/// ambient-plus-gradient initial temperature field, Rodinia-style.
Workload makeHotspotWorkload(unsigned Size, uint64_t Seed,
                             unsigned Iterations = 4);

/// Generates an image-app workload from a synthetic image.
Workload makeImageWorkload(img::Image Input);

} // namespace apps
} // namespace kperf

#endif // KPERF_APPS_APP_H
