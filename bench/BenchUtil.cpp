//===- bench/BenchUtil.cpp -------------------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

#include "img/PGM.h"
#include "support/ParallelFor.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>

using namespace kperf;
using namespace kperf::bench;
using namespace kperf::apps;

BenchSettings BenchSettings::fromEnvironment() {
  BenchSettings S;
  S.ImageSize = std::max(envCount("KPERF_IMG_SIZE", S.ImageSize), 32u);
  S.NumImages = std::max(envCount("KPERF_NUM_IMAGES", S.NumImages), 1u);
  if (const char *E = std::getenv("KPERF_IMG_DIR"))
    S.ImageDir = E;
  return S;
}

VariantSpec VariantSpec::baseline() {
  VariantSpec V;
  V.K = Kind::Baseline;
  V.Label = "Baseline";
  return V;
}

VariantSpec VariantSpec::perforated(perf::PerforationScheme S) {
  VariantSpec V;
  V.K = Kind::Perforated;
  V.Scheme = S;
  V.Label = S.str();
  return V;
}

VariantSpec VariantSpec::outputApprox(perf::OutputSchemeKind K,
                                      unsigned N) {
  VariantSpec V;
  V.K = Kind::OutputApprox;
  V.OutKind = K;
  V.ApproxPerComputed = N;
  const char *KindName = K == perf::OutputSchemeKind::Rows   ? "Rows"
                         : K == perf::OutputSchemeKind::Cols ? "Cols"
                                                             : "Center";
  V.Label = format("Paraprox-%s%u", KindName, N / 2);
  return V;
}

namespace {

Expected<rt::Variant> buildVariant(const App &TheApp, rt::Session &S,
                                   const VariantSpec &Variant,
                                   sim::Range2 Local) {
  switch (Variant.K) {
  case VariantSpec::Kind::Baseline:
    return TheApp.buildBaseline(S, Local);
  case VariantSpec::Kind::Plain:
    return TheApp.buildPlain(S, Local);
  case VariantSpec::Kind::Perforated:
    return TheApp.buildPerforated(S, Variant.Scheme, Local);
  case VariantSpec::Kind::OutputApprox:
    return TheApp.buildOutputApprox(S, Variant.OutKind,
                                    Variant.ApproxPerComputed, Local);
  }
  return makeError("unknown variant kind");
}

} // namespace

namespace {

/// The body shared by the serial and parallel evaluation paths: builds
/// the baseline and the variant in \p S (served from the session cache
/// when another worker already built them) and measures time + errors.
Expected<VariantEval> evaluateVariantIn(rt::Session &S, const App &TheApp,
                                        const VariantSpec &Variant,
                                        sim::Range2 Local,
                                        const std::vector<Workload>
                                            &Workloads) {
  if (Workloads.empty())
    return makeError("evaluateVariant: no workloads");

  VariantEval Eval;
  Eval.Label = Variant.Label;

  Expected<rt::Variant> Base = TheApp.buildBaseline(S, Local);
  if (!Base)
    return Base.takeError();
  Expected<rt::Variant> BK = buildVariant(TheApp, S, Variant, Local);
  if (!BK)
    return BK.takeError();

  // Timing: baseline vs. variant on the first workload (speedup does not
  // depend on input content, paper section 6.2).
  Expected<RunOutcome> RB = TheApp.run(S, *Base, Workloads.front());
  if (!RB)
    return RB.takeError();
  Eval.BaselineTimeMs = RB->Report.TimeMs;
  Expected<RunOutcome> RV = TheApp.run(S, *BK, Workloads.front());
  if (!RV)
    return RV.takeError();
  Eval.TimeMs = RV->Report.TimeMs;
  Eval.SpeedupVsBaseline = Eval.BaselineTimeMs / Eval.TimeMs;

  // Error distribution over all workloads, reusing the built variant.
  for (const Workload &W : Workloads) {
    Expected<RunOutcome> R = TheApp.run(S, *BK, W);
    if (!R)
      return R.takeError();
    Eval.Errors.push_back(TheApp.score(TheApp.reference(W), R->Output));
  }
  Eval.ErrorSummary = summarize(Eval.Errors);
  return Eval;
}

} // namespace

Expected<VariantEval>
bench::evaluateVariant(const App &TheApp, const VariantSpec &Variant,
                       sim::Range2 Local,
                       const std::vector<Workload> &Workloads) {
  // One session for the whole evaluation: the source compiles once and
  // the variant is built once (the baseline shares the compile through
  // the session's cache).
  rt::Session S;
  return evaluateVariantIn(S, TheApp, Variant, Local, Workloads);
}

std::vector<Expected<VariantEval>> bench::evaluateVariantsParallel(
    const App &TheApp, const std::vector<VariantSpec> &Variants,
    sim::Range2 Local, const std::vector<Workload> &Workloads,
    unsigned Jobs, rt::SessionStats *StatsOut) {
  // One shared session: compiles serialize (and dedupe) inside it, the
  // simulator runs are per-worker, and every run's buffers come from the
  // session free list.
  rt::Session S;
  std::vector<std::optional<Expected<VariantEval>>> Slots(Variants.size());
  parallelFor(Variants.size(), Jobs, [&](size_t I) {
    Slots[I].emplace(
        evaluateVariantIn(S, TheApp, Variants[I], Local, Workloads));
  });

  if (StatsOut)
    *StatsOut = S.stats();
  std::vector<Expected<VariantEval>> Results;
  Results.reserve(Slots.size());
  for (auto &Slot : Slots)
    Results.push_back(std::move(*Slot));
  return Results;
}

namespace {

/// Parses a count strictly: a malformed value, or one past UINT_MAX, is a
/// usage error, not a silent fallback or a wrapped value (a job count of
/// 0 would mean "every hardware thread").
unsigned parseCount(const char *Value, const char *Origin,
                    const char *Expected) {
  unsigned Count = 0;
  if (!parseUnsigned(Value, Count)) {
    std::fprintf(stderr, "error: bad %s value '%s' (expected %s)\n", Origin,
                 Value, Expected);
    std::exit(2);
  }
  return Count;
}

unsigned parseJobsValue(const char *Value, const char *Origin) {
  return parseCount(Value, Origin,
                    "a count up to 4294967295; 0 = hardware threads");
}

} // namespace

unsigned bench::envCount(const char *Name, unsigned Default) {
  const char *E = std::getenv(Name);
  return E ? parseCount(E, Name, "a count up to 4294967295") : Default;
}

unsigned bench::parseJobsFlag(int Argc, char **Argv, unsigned Default) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--jobs" && I + 1 < Argc)
      return parseJobsValue(Argv[I + 1], "--jobs");
    if (A.rfind("--jobs=", 0) == 0)
      return parseJobsValue(A.c_str() + 7, "--jobs");
  }
  if (const char *E = std::getenv("KPERF_JOBS"))
    return parseJobsValue(E, "KPERF_JOBS");
  return Default;
}

namespace {

/// Center-crops \p In to the largest multiple of 128 in each dimension,
/// so that every work-group shape the benchmarks sweep divides it.
/// Returns an empty image if \p In is smaller than 128x128.
img::Image cropToWorkGroupMultiple(const img::Image &In) {
  unsigned W = In.width() / 128 * 128;
  unsigned H = In.height() / 128 * 128;
  if (W == 0 || H == 0)
    return img::Image();
  unsigned X0 = (In.width() - W) / 2;
  unsigned Y0 = (In.height() - H) / 2;
  img::Image Out(W, H);
  for (unsigned Y = 0; Y < H; ++Y)
    for (unsigned X = 0; X < W; ++X)
      Out.set(X, Y, In.at(X0 + X, Y0 + Y));
  return Out;
}

/// Loads up to \p Limit PGM images from \p Dir (sorted by filename for
/// reproducibility), cropped for the benchmark work-group shapes.
std::vector<img::Image> loadPgmDataset(const std::string &Dir,
                                       unsigned Limit) {
  namespace fs = std::filesystem;
  std::vector<std::string> Paths;
  std::error_code Ec;
  for (const auto &Entry : fs::directory_iterator(Dir, Ec))
    if (Entry.is_regular_file() && Entry.path().extension() == ".pgm")
      Paths.push_back(Entry.path().string());
  std::sort(Paths.begin(), Paths.end());

  std::vector<img::Image> Images;
  for (const std::string &Path : Paths) {
    if (Images.size() >= Limit)
      break;
    Expected<img::Image> I = img::readPGM(Path);
    if (!I) {
      std::fprintf(stderr, "warning: skipping %s: %s\n", Path.c_str(),
                   I.error().message().c_str());
      continue;
    }
    img::Image Cropped = cropToWorkGroupMultiple(*I);
    if (Cropped.size() == 0) {
      std::fprintf(stderr, "warning: skipping %s: smaller than 128x128\n",
                   Path.c_str());
      continue;
    }
    Images.push_back(std::move(Cropped));
  }
  return Images;
}

} // namespace

std::vector<Workload> bench::workloadsFor(const App &TheApp,
                                          const BenchSettings &S) {
  std::vector<Workload> Workloads;
  if (TheApp.name() == "hotspot") {
    // Eight input sets differing in size (paper 6.2), scaled down with
    // the benchmark image size.
    unsigned Base = std::max(32u, S.ImageSize / 4);
    for (unsigned I = 0; I < 8; ++I) {
      unsigned Size = std::min(Base * (1u + I / 2), S.ImageSize);
      Workloads.push_back(
          makeHotspotWorkload(Size, 1000 + I, /*Iterations=*/4));
    }
    return Workloads;
  }
  std::vector<img::Image> Images;
  if (!S.ImageDir.empty()) {
    Images = loadPgmDataset(S.ImageDir, S.NumImages);
    if (Images.empty())
      std::fprintf(stderr,
                   "warning: no usable .pgm images in %s, using the "
                   "synthetic dataset\n",
                   S.ImageDir.c_str());
  }
  if (Images.empty())
    Images = img::generateDataset(S.NumImages, S.ImageSize, S.ImageSize,
                                  20180224);
  for (img::Image &I : Images)
    Workloads.push_back(makeImageWorkload(std::move(I)));
  return Workloads;
}

void bench::printSummaryHeader() {
  std::printf("%-10s %-14s %8s | %8s %8s %8s %8s %8s %8s\n", "app",
              "config", "speedup", "min", "q1", "median", "q3", "max",
              "mean");
  std::printf("%.*s\n", 100,
              "--------------------------------------------------------"
              "--------------------------------------------");
}

void bench::printSummaryRow(const std::string &Name,
                            const std::string &Config, double Speedup,
                            const Summary &S) {
  std::printf("%-10s %-14s %7.2fx | %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f\n",
              Name.c_str(), Config.c_str(), Speedup, S.Min, S.Q1, S.Median,
              S.Q3, S.Max, S.Mean);
}

//===--- Machine-readable output (--json) -------------------------------------//

namespace {

std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += format("\\u%04x", C);
      else
        Out += C;
    }
  }
  return Out;
}

} // namespace

void JsonRecord::add(const std::string &Key, const std::string &Value) {
  if (!Body.empty())
    Body += ", ";
  Body += format("\"%s\": \"%s\"", jsonEscape(Key).c_str(),
                 jsonEscape(Value).c_str());
}

void JsonRecord::add(const std::string &Key, const char *Value) {
  add(Key, std::string(Value));
}

void JsonRecord::add(const std::string &Key, double Value) {
  if (!Body.empty())
    Body += ", ";
  Body += format("\"%s\": %.6g", jsonEscape(Key).c_str(), Value);
}

void JsonRecord::add(const std::string &Key, unsigned long long Value) {
  if (!Body.empty())
    Body += ", ";
  Body += format("\"%s\": %llu", jsonEscape(Key).c_str(), Value);
}

bool bench::parseJsonFlag(int Argc, char **Argv,
                          const std::string &BenchName,
                          std::string &Path) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--json") {
      Path = "BENCH_" + BenchName + ".json";
      return true;
    }
    if (A.rfind("--json=", 0) == 0) {
      Path = A.substr(7);
      return true;
    }
  }
  return false;
}

bool bench::writeJsonRecords(const std::string &Path,
                             const std::vector<JsonRecord> &Records) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return false;
  }
  std::fputs("[\n", F);
  for (size_t I = 0; I < Records.size(); ++I)
    std::fprintf(F, "  {%s}%s\n", Records[I].body().c_str(),
                 I + 1 < Records.size() ? "," : "");
  std::fputs("]\n", F);
  std::fclose(F);
  std::printf("wrote %s (%zu records)\n", Path.c_str(), Records.size());
  return true;
}
