//===- bench/BenchUtil.h - Shared benchmark harness helpers -------*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the figure-regeneration benchmarks: dataset
/// construction, config evaluation (speedup vs. the paper's baseline +
/// error distribution over inputs), and table printing.
///
/// Environment knobs (all benchmarks):
///   KPERF_IMG_SIZE   image edge length (default 256; paper used 1024)
///   KPERF_NUM_IMAGES dataset size      (default 40;  paper used 100)
///   KPERF_IMG_DIR    directory of .pgm images to use instead of the
///                    synthetic dataset (e.g. the USC-SIPI misc/pattern
///                    images the paper used, converted to PGM). Images
///                    are center-cropped to multiples of 128 so every
///                    Fig. 9 work-group shape divides them; images
///                    smaller than 128x128 are skipped.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_BENCH_BENCHUTIL_H
#define KPERF_BENCH_BENCHUTIL_H

#include "apps/App.h"
#include "img/Generators.h"
#include "perforation/Scheme.h"
#include "support/Statistics.h"

#include <string>
#include <vector>

namespace kperf {
namespace bench {

/// Benchmark-wide workload sizing, overridable via environment
/// (KPERF_IMG_SIZE, floored at 32; KPERF_NUM_IMAGES, floored at 1;
/// KPERF_IMG_DIR).
struct BenchSettings {
  unsigned ImageSize = 256;
  unsigned NumImages = 40;
  std::string ImageDir; ///< Empty: synthetic dataset.

  static BenchSettings fromEnvironment();
};

/// How a kernel variant is constructed.
struct VariantSpec {
  enum class Kind : uint8_t { Baseline, Plain, Perforated, OutputApprox };
  Kind K = Kind::Baseline;
  perf::PerforationScheme Scheme;          ///< Perforated only.
  perf::OutputSchemeKind OutKind =
      perf::OutputSchemeKind::Rows;        ///< OutputApprox only.
  unsigned ApproxPerComputed = 2;          ///< OutputApprox only.
  std::string Label;

  static VariantSpec baseline();
  static VariantSpec perforated(perf::PerforationScheme S);
  static VariantSpec outputApprox(perf::OutputSchemeKind K, unsigned N);
};

/// Evaluation of one (app, variant, work-group shape) triple.
struct VariantEval {
  std::string Label;
  double SpeedupVsBaseline = 0; ///< Modeled-time ratio on the first input.
  double TimeMs = 0;            ///< Modeled time of the variant itself.
  double BaselineTimeMs = 0;
  std::vector<double> Errors;   ///< Per-input output error.
  Summary ErrorSummary;         ///< Five-number summary of Errors.
};

/// Builds and runs \p Variant for \p TheApp over \p Workloads; speedup is
/// measured against the paper baseline (local prefetch where beneficial)
/// at the same work-group shape. Each evaluation uses one rt::Session:
/// the kernel compiles once and the variant is built once, then reused
/// across all workloads.
Expected<VariantEval> evaluateVariant(const apps::App &TheApp,
                                      const VariantSpec &Variant,
                                      sim::Range2 Local,
                                      const std::vector<apps::Workload>
                                          &Workloads);

/// Evaluates every spec of \p Variants on \p Jobs worker threads (0 =
/// one per hardware thread), sharing ONE rt::Session across the whole
/// batch: each variant's kernels compile at most once, and workers run
/// concurrent simulator instances over the shared read-only variants
/// with buffer sets checked out from the session free list. Results come
/// back in \p Variants order and are identical to calling
/// evaluateVariant per spec (modulo the shared session's compile
/// counters).
std::vector<Expected<VariantEval>> evaluateVariantsParallel(
    const apps::App &TheApp, const std::vector<VariantSpec> &Variants,
    sim::Range2 Local, const std::vector<apps::Workload> &Workloads,
    unsigned Jobs, rt::SessionStats *StatsOut = nullptr);

/// Scans a benchmark's argv for "--jobs N" / "--jobs=N"; falls back to
/// the KPERF_JOBS environment variable. Returns \p Default when neither
/// is given (benches default to 1: serial, byte-reproducible without
/// opting in).
unsigned parseJobsFlag(int Argc, char **Argv, unsigned Default = 1);

/// The count in environment variable \p Name, or \p Default when it is
/// unset. A value that is not a decimal count up to UINT_MAX is a usage
/// error: exits 2 with a "bad NAME value" line.
unsigned envCount(const char *Name, unsigned Default);

//===--- Machine-readable output (--json) -----------------------------------//

/// One flat JSON object built key by key, for the benchmarks' --json
/// flags.
class JsonRecord {
public:
  void add(const std::string &Key, const std::string &Value);
  void add(const std::string &Key, const char *Value);
  void add(const std::string &Key, double Value);
  void add(const std::string &Key, unsigned long long Value);
  const std::string &body() const { return Body; }

private:
  std::string Body;
};

/// Scans a benchmark's argv for "--json" or "--json=FILE". Returns true
/// when JSON output was requested; \p Path receives FILE or, for the
/// bare flag, "BENCH_<benchname>.json".
bool parseJsonFlag(int Argc, char **Argv, const std::string &BenchName,
                   std::string &Path);

/// Writes \p Records as a JSON array of objects to \p Path. Reports to
/// stderr and returns false on I/O failure.
bool writeJsonRecords(const std::string &Path,
                      const std::vector<JsonRecord> &Records);

/// Builds the standard per-app workload set: images for image apps, the
/// eight Rodinia-style sizes for Hotspot (paper 6.2).
std::vector<apps::Workload> workloadsFor(const apps::App &TheApp,
                                         const BenchSettings &S);

/// Prints "name  value" aligned rows for boxplot-style summaries.
void printSummaryRow(const std::string &Name, const std::string &Config,
                     double Speedup, const Summary &S);

/// Prints the shared header for summary tables.
void printSummaryHeader();

} // namespace bench
} // namespace kperf

#endif // KPERF_BENCH_BENCHUTIL_H
