//===- perfbench/perfbench.cpp - The repository benchmark -----------------===//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Drives three workloads through the library's public API from one
// process and prints one JSON result line (see perfbench/README.md):
//
//   serve_steady  nine services on rt::Server, smooth frames, zipf mix;
//                 no quality check trips.
//   serve_drift   eighteen services (two error budgets per kernel);
//                 frames switch from smooth to pattern mid-round, so
//                 checks trip and online re-tunes run on the request path.
//   tune_offline  `kperfc tune`'s flow for each of the nine kernels over
//                 perf::defaultTuningSpace() less its known defects, each
//                 on a 128x128 natural frame of its own.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--tiny] [--corrupt]
//
// Every workload runs whole rounds of identical composition until
// --seconds have elapsed, so the share of each request class -- and the
// class a tail percentile lands in -- does not depend on host speed.
// Every output is checked against the native apps::reference*
// implementations, computed before timing starts. --trace 1 records a
// span around each call the benchmark makes into a library layer and
// reports per-layer metrics instead of end-to-end ones. --tiny shrinks
// every workload for the self-test; --corrupt damages one output so the
// self-test can see the correctness gate count it.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "apps/Kernels.h"
#include "apps/References.h"
#include "gpusim/Interpreter.h"
#include "img/Generators.h"
#include "img/Metrics.h"
#include "ir/PassManager.h"
#include "perforation/Tuner.h"
#include "runtime/Server.h"
#include "runtime/Session.h"
#include "support/Rng.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace kperf;
using namespace perfbench;

namespace {

//===--- Kernels ---------------------------------------------------------===//

struct KernelDef {
  const char *Name;
  const char *(*Source)();
  img::Image (*Reference)(const img::Image &);
};

/// The nine standard-signature kernels (global const float* in, global
/// float* out, int w, int h), as kperfd registers them.
const std::vector<KernelDef> &kernelDefs() {
  static const std::vector<KernelDef> Defs = {
      {"gaussian", apps::gaussianSource, apps::referenceGaussian},
      {"inversion", apps::inversionSource, apps::referenceInversion},
      {"median", apps::medianSource, apps::referenceMedian},
      {"sobel3", apps::sobel3Source, apps::referenceSobel3},
      {"sobel5", apps::sobel5Source, apps::referenceSobel5},
      {"mean", apps::meanSource, apps::referenceMean},
      {"sharpen", apps::sharpenSource, apps::referenceSharpen},
      {"convsep_row", apps::convSepRowSource, apps::referenceConvSepRow},
      {"convsep_col", apps::convSepColSource, apps::referenceConvSepCol}};
  return Defs;
}

/// The tests' tolerance for simulator output against the native
/// references.
constexpr double AccurateTolerance = 1e-3;

//===--- Options and results ---------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string TraceOut;
  bool Tiny = false;
  bool Corrupt = false;
};

bool parseOptions(int Argc, char **Argv, Options &O) {
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    char *End = nullptr;
    if (A == "--tiny") {
      O.Tiny = true;
    } else if (A == "--corrupt") {
      O.Corrupt = true;
    } else if (!(V = value())) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", A.c_str());
      return false;
    } else if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, &End, 10);
      HaveSeed = *V != '\0' && *End == '\0';
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V, &End);
      HaveSeconds = *End == '\0' && O.Seconds > 0;
    } else if (A == "--trace") {
      HaveTrace = std::strcmp(V, "0") == 0 || std::strcmp(V, "1") == 0;
      O.Trace = std::strcmp(V, "1") == 0;
    } else if (A == "--trace-out") {
      O.TraceOut = V;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", A.c_str());
      return false;
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace || O.Workload.empty()) {
    std::fprintf(stderr, "usage: perfbench --workload NAME --seed N "
                         "--seconds S --trace 0|1 [--trace-out FILE] "
                         "[--tiny] [--corrupt]\n");
    return false;
  }
  return true;
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// What a workload reports: operations attempted and failed, end-to-end
/// and per-layer metrics, and why a per-layer metric does not apply.
struct Outcome {
  unsigned long long Attempted = 0;
  unsigned long long Failed = 0;
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;
  std::vector<std::pair<std::string, std::string>> Absent;

  void e2e(const std::string &Name, double Value, const char *Unit) {
    EndToEnd.push_back({Name, Value, Unit});
  }
  void layer(const std::string &Name, double Value, const char *Unit) {
    PerLayer.push_back({Name, Value, Unit});
  }
  /// A per-layer metric this workload cannot measure: reported as 0 and
  /// listed with \p Why.
  void absent(const std::string &Name, const char *Unit, const char *Why) {
    PerLayer.push_back({Name, 0.0, Unit});
    Absent.push_back({Name, Why});
  }
};

//===--- Statistics ------------------------------------------------------===//

/// Nearest-rank percentile (\p P in [0, 1]); 0 for no samples.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * V.size()));
  return V[Rank == 0 ? 0 : Rank - 1];
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

double msBetween(int64_t T0, int64_t T1) {
  return static_cast<double>(T1 - T0) / 1e6;
}

//===--- Correctness gate ------------------------------------------------===//

bool finiteAndSized(const std::vector<float> &Out, size_t N) {
  if (Out.size() != N)
    return false;
  for (float V : Out)
    if (!std::isfinite(V))
      return false;
  return true;
}

double maxAbsDiff(const std::vector<float> &A, const std::vector<float> &B) {
  double Max = 0;
  for (size_t I = 0; I < A.size() && I < B.size(); ++I)
    Max = std::max(Max, std::fabs(double(A[I]) - double(B[I])));
  return Max;
}

/// Damages an output the way the self-test expects the gate to catch.
void corrupt(std::vector<float> &Out) {
  if (!Out.empty())
    Out[Out.size() / 2] = std::numeric_limits<float>::quiet_NaN();
}

//===--- Serving workloads -----------------------------------------------===//

struct ServiceSpec {
  std::string Name;
  unsigned Kernel; ///< Index into kernelDefs().
  double Budget;
};

struct ServeWorkload {
  bool Drift = false;
  unsigned Edge = 64;
  unsigned Clients = 2;
  /// Fresh server set-ups before each round (timed for setup_s).
  unsigned SetupsPerRound = 0;
  std::vector<ServiceSpec> Services;
  /// Requests per service in one round (multiples of the check period,
  /// so every round holds the same number of checks per service).
  std::vector<unsigned> RoundCounts;
  /// Drift point range within a round, as request indices.
  unsigned DriftLo = 0, DriftHi = 0;
  unsigned FramesPerClass = 8;
};

/// Zipf(1) rank of each kernel in the serving mix, by kernelDefs() index.
/// Fixed (not seeded): the seed orders requests and draws frames, but
/// every seed serves the same number of requests per service, so the
/// class holding each latency percentile is the same on every run.
constexpr unsigned ZipfRank[9] = {/*gaussian*/ 0, /*inversion*/ 5,
                                  /*median*/ 2,   /*sobel3*/ 3,
                                  /*sobel5*/ 1,   /*mean*/ 4,
                                  /*sharpen*/ 6,  /*convsep_row*/ 7,
                                  /*convsep_col*/ 8};

/// Requests of a kernel per round: zipf(1) share of \p Total, rounded
/// to the check period 8 (at least one period).
unsigned zipfCount(unsigned Kernel, unsigned Total) {
  double Norm = 0;
  for (unsigned R = 0; R < 9; ++R)
    Norm += 1.0 / (R + 1);
  double Share = 1.0 / (ZipfRank[Kernel] + 1) / Norm;
  unsigned Periods =
      static_cast<unsigned>(std::lround(Share * Total / 8.0));
  return 8 * std::max(1u, Periods);
}

ServeWorkload serveWorkload(bool Drift, bool Tiny) {
  ServeWorkload W;
  W.Drift = Drift;
  W.Edge = Tiny ? 32 : 64;
  W.SetupsPerRound = Tiny ? 1 : (Drift ? 3 : 2);
  W.FramesPerClass = Tiny ? 2 : 256;
  const unsigned Total = Tiny ? 72 : (Drift ? 1000 : 400);
  for (unsigned K = 0; K < kernelDefs().size(); ++K) {
    const std::string Name = kernelDefs()[K].Name;
    if (!Drift) {
      W.Services.push_back({Name, K, 0.1});
      W.RoundCounts.push_back(zipfCount(K, Total));
      continue;
    }
    // Two tenants per kernel that differ only in error budget; they
    // share a shard, so the second tenant's re-tunes hit variants the
    // first one compiled.
    unsigned PerTenant = std::max(8u, zipfCount(K, Total) / 2 / 8 * 8);
    W.Services.push_back({Name + "@0.1", K, 0.1});
    W.RoundCounts.push_back(PerTenant);
    W.Services.push_back({Name + "@0.05", K, 0.05});
    W.RoundCounts.push_back(PerTenant);
  }
  unsigned N = 0;
  for (unsigned C : W.RoundCounts)
    N += C;
  W.DriftLo = N / 4;
  W.DriftHi = N / 3;
  return W;
}

/// Frames, references and accurate modeled times, all computed before
/// timing starts.
struct ServeInputs {
  /// Frames: [0, F) smooth, then (drift) [F, 2F) pattern.
  std::vector<std::vector<float>> Frames;
  /// Native reference output, [kernel][frame].
  std::vector<std::vector<std::vector<float>>> Reference;
  /// Modeled time of the accurate kernel at 16x16, [kernel][frame].
  std::vector<std::vector<double>> AccurateMs;
};

bool prepareServeInputs(const ServeWorkload &W, uint64_t Seed,
                        ServeInputs &In, Outcome &Out) {
  const unsigned E = W.Edge;
  std::vector<img::Image> Images;
  std::vector<img::ImageClass> Classes = {img::ImageClass::Smooth};
  if (W.Drift)
    Classes.push_back(img::ImageClass::Pattern);
  for (img::ImageClass C : Classes)
    for (unsigned I = 0; I < W.FramesPerClass; ++I)
      Images.push_back(
          img::generateImage(C, E, E, Seed * 100000 + Images.size()));
  const size_t NK = kernelDefs().size();
  const size_t NF = Images.size();
  In.Reference.assign(NK, std::vector<std::vector<float>>(NF));
  In.AccurateMs.assign(NK, std::vector<double>(NF, 0.0));
  for (const img::Image &Im : Images)
    In.Frames.push_back(Im.pixels());

  // Accurate modeled time per kernel and frame, on sessions of the
  // benchmark's own, in chunks of frames on a few threads. They run on
  // the batched tier, whose outputs and counters the pipeline oracle pins
  // bit-identical to the tree walker's, so a large frame pool costs
  // little; the served requests run on the library's default tier.
  const size_t Chunk = 32;
  const size_t ChunksPerKernel = (NF + Chunk - 1) / Chunk;
  std::atomic<size_t> NextItem{0};
  std::atomic<unsigned> Mismatches{0};
  std::vector<std::string> Errors(NK * ChunksPerKernel);
  auto Worker = [&]() {
    for (size_t Item; (Item = NextItem.fetch_add(1)) < Errors.size();) {
      const size_t K = Item / ChunksPerKernel;
      const size_t F0 = Item % ChunksPerKernel * Chunk;
      const KernelDef &D = kernelDefs()[K];
      rt::Session S;
      S.setExecTier(sim::ExecTier::Batched);
      Expected<rt::Kernel> Kn = S.compile(D.Source(), D.Name);
      if (!Kn) {
        Errors[Item] = Kn.error().message();
        continue;
      }
      unsigned InBuf = S.createBuffer(size_t(E) * E);
      unsigned OutBuf = S.createBuffer(size_t(E) * E);
      for (size_t F = F0; F < std::min(NF, F0 + Chunk); ++F) {
        In.Reference[K][F] = D.Reference(Images[F]).pixels();
        S.buffer(InBuf).uploadFloats(Images[F].pixels());
        Expected<sim::SimReport> R =
            S.launch(*Kn, {E, E}, {16, 16},
                     {rt::arg::buffer(InBuf), rt::arg::buffer(OutBuf),
                      rt::arg::i32(int32_t(E)), rt::arg::i32(int32_t(E))});
        if (!R) {
          Errors[Item] = R.error().message();
          break;
        }
        In.AccurateMs[K][F] = R->TimeMs;
        if (maxAbsDiff(S.buffer(OutBuf).downloadFloats(),
                       In.Reference[K][F]) > AccurateTolerance)
          ++Mismatches;
      }
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < 4; ++I)
    Threads.emplace_back(Worker);
  for (std::thread &Th : Threads)
    Th.join();
  for (const std::string &E : Errors)
    if (!E.empty()) {
      std::fprintf(stderr, "perfbench: %s\n", E.c_str());
      return false;
    }
  if (Mismatches) {
    std::printf("gate: %u accurate outputs differ from the native "
                "reference\n",
                Mismatches.load());
    Out.Failed += Mismatches;
  }
  return true;
}

/// Builds one ready server: construct, register every service, answer
/// one warm-up request per service.
std::unique_ptr<rt::Server> setUpServer(const ServeWorkload &W,
                                        const ServeInputs &In, Tracer &T) {
  Scope Setup(T, "runtime.setup");
  auto Srv = std::make_unique<rt::Server>(rt::ServerConfig());
  for (size_t I = 0; I < W.Services.size(); ++I) {
    const ServiceSpec &Sp = W.Services[I];
    const KernelDef &D = kernelDefs()[Sp.Kernel];
    rt::ServiceConfig SC;
    SC.Name = Sp.Name;
    SC.Source = D.Source();
    SC.Kernel = D.Name;
    SC.Width = W.Edge;
    SC.Height = W.Edge;
    SC.Scheme = perf::PerforationScheme::rows(
        2, perf::ReconstructionKind::Linear);
    SC.ErrorBudget = Sp.Budget;
    Error E = Error::success();
    {
      Scope Add(T, "runtime.add_service", I, Sp.Name);
      E = Srv->addService(SC);
    }
    if (E) {
      std::fprintf(stderr, "perfbench: %s\n", E.message().c_str());
      return nullptr;
    }
  }
  for (size_t I = 0; I < W.Services.size(); ++I) {
    Scope Warm(T, "runtime.warmup", I, W.Services[I].Name);
    Expected<rt::ServeResult> R = Srv->serve(W.Services[I].Name, In.Frames[0]);
    if (!R) {
      std::fprintf(stderr, "perfbench: warm-up: %s\n",
                   R.error().message().c_str());
      return nullptr;
    }
  }
  return Srv;
}

enum RequestClass : uint8_t { Approx, Check, Retune, Accurate, NumClasses };
const char *const ClassNames[NumClasses] = {"approx", "check", "retune",
                                            "accurate"};

struct Request {
  unsigned Service;
  unsigned Frame;
};

struct RequestRecord {
  int64_t T0 = 0, T1 = 0;
  unsigned Client = 0;
  unsigned Service = 0;
  unsigned Round = 0;
  bool Ok = false;
  uint8_t Class = Approx;
  bool Approximate = false; ///< An approximate kernel's output was served.
  bool Tripped = false;     ///< A check whose error was over budget.
  double Mre = 0;
  double ServedModeledMs = 0;
  double AccurateModeledMs = 0;
  sim::Counters Totals;
};

/// One round's request schedule: a seeded shuffle of the fixed per-service
/// counts, seeded frame draws, and (drift) the switch to pattern frames.
std::vector<Request> makeRound(const ServeWorkload &W, Rng &R) {
  std::vector<Request> Sched;
  for (unsigned S = 0; S < W.Services.size(); ++S)
    for (unsigned I = 0; I < W.RoundCounts[S]; ++I)
      Sched.push_back({S, 0});
  for (size_t I = Sched.size(); I > 1; --I)
    std::swap(Sched[I - 1], Sched[R.below(I)]);
  const size_t DriftAt =
      W.Drift ? W.DriftLo + R.below(W.DriftHi - W.DriftLo) : Sched.size();
  for (size_t I = 0; I < Sched.size(); ++I)
    Sched[I].Frame = unsigned(R.below(W.FramesPerClass)) +
                     (I >= DriftAt ? W.FramesPerClass : 0);
  return Sched;
}

/// Runs one round on \p Srv with closed-loop clients; appends one record
/// per request.
void runRound(rt::Server &Srv, const ServeWorkload &W, const ServeInputs &In,
              const std::vector<Request> &Sched, unsigned Round,
              bool CorruptFirst, Tracer &T, int RoundSpan,
              std::vector<RequestRecord> &Out) {
  const size_t Base = Out.size();
  Out.resize(Base + Sched.size());
  const size_t N = size_t(W.Edge) * W.Edge;
  std::atomic<size_t> Next{0};
  auto Client = [&](unsigned ClientId) {
    for (;;) {
      const size_t I = Next.fetch_add(1);
      if (I >= Sched.size())
        return;
      const Request &Rq = Sched[I];
      const ServiceSpec &Sp = W.Services[Rq.Service];
      RequestRecord &Rec = Out[Base + I];
      Rec.Client = ClientId;
      Rec.Service = Rq.Service;
      Rec.Round = Round;
      const int Span = T.begin("runtime.serve", Base + I, "", RoundSpan);
      Rec.T0 = nowNs();
      Expected<rt::ServeResult> Res =
          Srv.serve(Sp.Name, In.Frames[Rq.Frame]);
      Rec.T1 = nowNs();
      T.end(Span);
      if (!Res) {
        std::printf("gate: request %zu (%s): %s\n", Base + I,
                    Sp.Name.c_str(), Res.error().message().c_str());
        continue;
      }
      Rec.Class = Res->ReTuned            ? Retune
                  : Res->Checked          ? Check
                  : Res->UsedApproximate ? Approx
                                          : Accurate;
      T.setDetail(Span, std::string(ClassNames[Rec.Class]) + " " + Sp.Name);
      Rec.Approximate = Res->UsedApproximate;
      Rec.Tripped = Res->Checked && Res->MeasuredError > Sp.Budget;
      Rec.ServedModeledMs = Res->Report.TimeMs;
      Rec.AccurateModeledMs = In.AccurateMs[Sp.Kernel][Rq.Frame];
      Rec.Totals = Res->Report.Totals;
      if (CorruptFirst && I == 0)
        corrupt(Res->Output);
      const std::vector<float> &Ref = In.Reference[Sp.Kernel][Rq.Frame];
      Rec.Ok = finiteAndSized(Res->Output, N) &&
               (Res->UsedApproximate ||
                maxAbsDiff(Res->Output, Ref) <= AccurateTolerance);
      if (!Rec.Ok) {
        std::printf("gate: request %zu (%s) output is invalid\n", Base + I,
                    Sp.Name.c_str());
        continue;
      }
      Rec.Mre = img::meanRelativeError(Ref, Res->Output);
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < W.Clients; ++C)
    Threads.emplace_back(Client, C);
  for (std::thread &Th : Threads)
    Th.join();
}

/// Sum of the time each request waited for the other client's serve()
/// on the same service to return (the service lock), from the
/// benchmark's own timestamps.
void lockWaits(const std::vector<RequestRecord> &Recs, unsigned &Waits,
               double &WaitMs) {
  Waits = 0;
  WaitMs = 0;
  std::map<std::pair<unsigned, unsigned>, std::vector<const RequestRecord *>>
      ByService;
  for (const RequestRecord &R : Recs)
    ByService[{R.Round, R.Service}].push_back(&R);
  for (auto &Entry : ByService) {
    std::vector<const RequestRecord *> &V = Entry.second;
    std::sort(V.begin(), V.end(),
              [](const RequestRecord *A, const RequestRecord *B) {
                return A->T0 < B->T0;
              });
    for (size_t I = 1; I < V.size(); ++I) {
      const RequestRecord *Prev = V[I - 1];
      if (Prev->Client != V[I]->Client && Prev->T1 > V[I]->T0) {
        ++Waits;
        WaitMs += msBetween(V[I]->T0, std::min(Prev->T1, V[I]->T1));
      }
    }
  }
}

/// The passes whose time and changes the ir layer reports.
constexpr const char *IrPasses[] = {
    "mem2reg",        "unroll", "simplify",   "sroa", "gvn",           "cse",
    "memopt-forward", "licm",   "memopt-dse", "dce",  "perforate-loop"};

struct MetricName {
  const char *Name;
  const char *Unit;
};

void absentAll(Outcome &O, std::initializer_list<MetricName> Metrics,
               const char *Why) {
  for (const MetricName &M : Metrics)
    O.absent(M.Name, M.Unit, Why);
}

/// The layers a serve workload cannot see into: that work runs inside
/// rt::Server.
void serveAbsent(Outcome &O) {
  absentAll(O,
            {{"gpusim.launches", "count"},
             {"gpusim.launch_ms", "ms"},
             {"gpusim.launch_p50_ms", "ms"},
             {"gpusim.ns_per_item", "ns"}},
            "the benchmark makes no Session::launch call on serve workloads");
  const char *IrWhy =
      "variants are built inside rt::Server, which exposes no PassStats";
  absentAll(O,
            {{"ir.pipeline_ms", "ms"},
             {"ir.fixpoint_rounds", "count"},
             {"ir.variant_instrs_mean", "count"}},
            IrWhy);
  for (const char *P : IrPasses) {
    O.absent(std::string("ir.") + P + ".ms", "ms", IrWhy);
    O.absent(std::string("ir.") + P + ".changes", "count", IrWhy);
  }
  absentAll(O,
            {{"perforation.perforate_calls", "count"},
             {"perforation.perforate_ms", "ms"},
             {"perforation.transform_ms", "ms"},
             {"perforation.configs", "count"},
             {"perforation.feasible", "count"},
             {"perforation.feasible_frac", "fraction"},
             {"perforation.tune_ms", "ms"},
             {"perforation.eval_p50_ms", "ms"}},
            "perforation runs inside rt::Server (addService and re-tunes)");
  absentAll(O, {{"pcl.compiles", "count"}, {"pcl.compile_ms", "ms"}},
            "compiles run inside Server::addService (see "
            "runtime.add_service_ms)");
  absentAll(O, {{"img.scores", "count"}, {"img.score_ms", "ms"}},
            "quality checks score inside rt::QualityMonitor");
}

/// Per-request modeled counters summed per round.
void simReportLayer(Outcome &O, const std::vector<sim::Counters> &Totals,
                    double ModeledMs, double Rounds) {
  sim::Counters Sum;
  for (const sim::Counters &C : Totals)
    Sum += C;
  O.layer("gpusim.work_items", double(Sum.WorkItems) / Rounds, "count");
  O.layer("gpusim.alu_ops", double(Sum.AluOps) / Rounds, "count");
  O.layer("gpusim.global_read_tx", double(Sum.GlobalReadTransactions) / Rounds,
          "count");
  O.layer("gpusim.local_accesses", double(Sum.LocalAccesses) / Rounds,
          "count");
  O.layer("gpusim.barriers", double(Sum.Barriers) / Rounds, "count");
  O.layer("gpusim.modeled_ms", ModeledMs / Rounds, "ms");
}

void sessionLayer(Outcome &O, const rt::SessionStats &S, double Per) {
  O.layer("runtime.source_compiles", S.SourceCompiles / Per, "count");
  O.layer("runtime.variant_compiles", S.VariantCompiles / Per, "count");
  O.layer("runtime.bytecode_compiles", S.BytecodeCompiles / Per, "count");
  O.layer("runtime.variant_cache_hits", S.VariantCacheHits / Per, "count");
  O.layer("runtime.bytecode_cache_hits", S.BytecodeCacheHits / Per, "count");
  O.layer("runtime.variant_hit_rate", S.variantHitRate(), "fraction");
  O.layer("runtime.buffer_creates", S.BufferCreates / Per, "count");
  O.layer("runtime.buffer_reuses", S.BufferReuses / Per, "count");
}

void addInto(rt::SessionStats &Into, const rt::SessionStats &From) {
  Into.SourceCompiles += From.SourceCompiles.load();
  Into.VariantCompiles += From.VariantCompiles.load();
  Into.VariantCacheHits += From.VariantCacheHits.load();
  Into.BytecodeCompiles += From.BytecodeCompiles.load();
  Into.BytecodeCacheHits += From.BytecodeCacheHits.load();
  Into.BufferCreates += From.BufferCreates.load();
  Into.BufferReuses += From.BufferReuses.load();
}

bool runServe(const Options &Opt, Tracer &T, Outcome &O) {
  const bool Drift = Opt.Workload == "serve_drift";
  const ServeWorkload W = serveWorkload(Drift, Opt.Tiny);
  ServeInputs In;
  const int64_t Prep0 = nowNs();
  if (!prepareServeInputs(W, Opt.Seed, In, O))
    return false;
  std::printf("inputs: %zu frames of %ux%u, references prepared in %.2f s\n",
              In.Frames.size(), W.Edge, W.Edge,
              msBetween(Prep0, nowNs()) / 1e3);

  Rng R(Opt.Seed * 0x9e3779b97f4a7c15ULL + (Drift ? 2 : 1));
  std::vector<double> SetupS;
  std::vector<RequestRecord> Recs;
  std::vector<rt::ServerStats> ServerStats;
  double MeasuredS = 0;
  unsigned Rounds = 0;
  for (;;) {
    // Fresh set-ups before every round, so their median samples the host
    // over the whole run; the round runs on the last one.
    std::unique_ptr<rt::Server> Srv;
    for (unsigned I = 0; I < W.SetupsPerRound; ++I) {
      Srv.reset();
      const int64_t T0 = nowNs();
      Srv = setUpServer(W, In, T);
      if (!Srv)
        return false;
      SetupS.push_back(msBetween(T0, nowNs()) / 1e3);
    }
    std::vector<Request> Sched = makeRound(W, R);
    const int64_t T0 = nowNs();
    const int RoundSpan = T.begin("bench.round", Rounds);
    runRound(*Srv, W, In, Sched, Rounds, Opt.Corrupt && Rounds == 0, T,
             RoundSpan, Recs);
    T.end(RoundSpan);
    MeasuredS += msBetween(T0, nowNs()) / 1e3;
    ++Rounds;
    ServerStats.push_back(Srv->stats());
    // Stop at the round boundary nearest the deadline.
    if (MeasuredS + 0.5 * MeasuredS / Rounds >= Opt.Seconds)
      break;
  }

  // End-to-end metrics.
  std::vector<double> Lat;
  unsigned ApproxServed = 0;
  double SumAcc = 0, SumServed = 0, SumMre = 0;
  unsigned ClassCount[NumClasses] = {};
  std::vector<sim::Counters> Totals;
  unsigned Checks = 0, Trips = 0;
  std::vector<std::array<unsigned, NumClasses>> PerService(
      W.Services.size(), std::array<unsigned, NumClasses>{});
  for (const RequestRecord &Rc : Recs) {
    ++O.Attempted;
    Lat.push_back(msBetween(Rc.T0, Rc.T1));
    if (!Rc.Ok) {
      ++O.Failed;
      continue;
    }
    ++ClassCount[Rc.Class];
    ++PerService[Rc.Service][Rc.Class];
    ApproxServed += Rc.Approximate;
    SumAcc += Rc.AccurateModeledMs;
    SumServed += Rc.ServedModeledMs;
    SumMre += Rc.Mre;
    Totals.push_back(Rc.Totals);
    if (Rc.Class == Check || Rc.Class == Retune) {
      ++Checks;
      Trips += Rc.Tripped;
    }
  }
  const double Ok = std::max(1.0, double(O.Attempted - O.Failed));
  O.e2e("setup_s", median(SetupS), "s");
  O.e2e("throughput_ops_s", double(Recs.size()) / MeasuredS, "ops/s");
  O.e2e("latency_p50_ms", percentile(Lat, 0.50), "ms");
  O.e2e("latency_p99_ms", percentile(Lat, 0.99), "ms");
  O.e2e("approx_frac", ApproxServed / Ok, "fraction");
  O.e2e("modeled_speedup", SumServed > 0 ? SumAcc / SumServed : 0, "x");
  O.e2e("output_mre", SumMre / Ok, "MRE");

  // Composition: identical from run to run by design; a drifted one
  // shows here next to the numbers it moved.
  unsigned Degraded = 0;
  rt::SessionStats Sessions;
  for (const rt::ServerStats &St : ServerStats) {
    Degraded += St.DegradedServices;
    addInto(Sessions, St.Sessions);
  }
  std::printf("composition: %u round(s), %zu requests, %u per round, "
              "%u clients\n",
              Rounds, Recs.size(), unsigned(Recs.size() / Rounds), W.Clients);
  std::printf("set-up: %zu fresh servers, ms:", SetupS.size());
  for (double S : SetupS)
    std::printf(" %.1f", S * 1e3);
  std::printf("\n");
  std::printf("  %-16s %8s %8s %8s %8s   p50 ms: %8s %8s\n", "service",
              "approx", "check", "retune", "accurate", "approx", "check");
  for (size_t S = 0; S < W.Services.size(); ++S) {
    std::vector<double> Ms[NumClasses];
    for (const RequestRecord &Rc : Recs)
      if (Rc.Ok && Rc.Service == S)
        Ms[Rc.Class].push_back(msBetween(Rc.T0, Rc.T1));
    std::printf("  %-16s %8u %8u %8u %8u           %8.2f %8.2f\n",
                W.Services[S].Name.c_str(), PerService[S][Approx],
                PerService[S][Check], PerService[S][Retune],
                PerService[S][Accurate], percentile(Ms[Approx], 0.5),
                percentile(Ms[Check], 0.5));
  }
  std::printf("  degraded services: %u; variant compiles: %u; check trips: "
              "%u of %u checks\n",
              Degraded, Sessions.VariantCompiles.load(), Trips, Checks);

  // Per-layer metrics, from the spans and the request records.
  const double PerRound = Rounds;
  const double PerServer = double(ServerStats.size());
  std::map<std::string, SpanStats> Spans = T.aggregate();
  std::vector<double> ClassMs[NumClasses];
  for (const RequestRecord &Rc : Recs)
    if (Rc.Ok)
      ClassMs[Rc.Class].push_back(msBetween(Rc.T0, Rc.T1));
  O.layer("runtime.add_service_ms",
          Spans["runtime.add_service"].TotalMs /
              std::max(1u, Spans["runtime.setup"].Count),
          "ms");
  for (unsigned C = 0; C < NumClasses; ++C)
    O.layer(std::string("runtime.") + ClassNames[C] + "_reqs",
            ClassCount[C] / PerRound, "count");
  for (unsigned C = 0; C < NumClasses; ++C) {
    const std::string Name =
        std::string("runtime.") + ClassNames[C] + "_req_p50_ms";
    if (ClassMs[C].empty())
      O.absent(Name, "ms", "no request of this class on this workload");
    else
      O.layer(Name, percentile(ClassMs[C], 0.5), "ms");
  }
  O.layer("runtime.degraded_services", Degraded / PerServer, "count");
  O.layer("runtime.check_trip_frac", Checks ? double(Trips) / Checks : 0,
          "fraction");
  unsigned Waits = 0;
  double WaitMs = 0;
  lockWaits(Recs, Waits, WaitMs);
  O.layer("runtime.lock_waits", Waits / PerRound, "count");
  O.layer("runtime.lock_wait_ms", WaitMs / PerRound, "ms");
  sessionLayer(O, Sessions, PerServer);
  simReportLayer(O, Totals, SumServed, PerRound);
  serveAbsent(O);
  return true;
}

//===--- Offline tuning workload -----------------------------------------===//

struct TuneKernel {
  unsigned Def = 0;
  std::unique_ptr<rt::Session> S;
  rt::Kernel K;
  std::vector<float> SimReference;
  std::map<std::pair<unsigned, unsigned>, double> AccurateMs;
};

/// One evaluation, as seen from the benchmark.
struct EvalRecord {
  unsigned Kernel = 0; ///< Index into the workload's kernels.
  double Ms = 0;
  bool Failed = false;
  bool Launched = false;
  bool Compiled = false; ///< perforate() missed the variant cache.
  double PerforateMs = 0;
  sim::SimReport Report;
  ir::PipelineStats PassStats;
  size_t Instrs = 0;
};

/// Configurations of perf::defaultTuningSpace() on which the library
/// fails today: rows(4) on a 2-row tile of a kernel without a vertical
/// halo loads no row when the tile's origin is not a multiple of 4, and
/// reconstruction then reads local memory out of bounds, so the launch
/// fails. They are left out of tune_offline's sweep (a failed launch
/// would fail every run) and re-tried after it, outside timing and the
/// gate; every run prints whether each still fails.
struct KnownDefect {
  const char *Kernel;
  perf::SchemeKind Kind;
  unsigned Period;
  unsigned TileX, TileY;
};
constexpr KnownDefect KnownDefects[] = {
    {"inversion", perf::SchemeKind::Rows, 4, 128, 2},
    {"convsep_row", perf::SchemeKind::Rows, 4, 128, 2}};

bool isKnownDefect(const char *Kernel, const perf::TunerConfig &C) {
  for (const KnownDefect &D : KnownDefects)
    if (std::strcmp(D.Kernel, Kernel) == 0 && C.Scheme.Kind == D.Kind &&
        C.Scheme.Period == D.Period && C.TileX == D.TileX &&
        C.TileY == D.TileY)
      return true;
  return false;
}

/// What one kernel's sweeps evaluated, for the composition printout.
struct KernelComposition {
  unsigned Evals = 0;
  unsigned Feasible = 0;
  unsigned Compiled = 0;
  bool ApproxWinner = false;
};

/// kperfc tune's set-up for one kernel: a session, the compile, the
/// accurate reference output and the accurate baseline time at every
/// tile shape of the space.
bool setUpTuneKernel(TuneKernel &TK, const img::Image &In,
                     const std::vector<perf::TunerConfig> &Space, Tracer &T) {
  const KernelDef &D = kernelDefs()[TK.Def];
  const unsigned W = In.width(), H = In.height();
  TK.S = std::make_unique<rt::Session>();
  rt::Session &S = *TK.S;
  {
    Scope C(T, "pcl.compile", TK.Def, D.Name);
    Expected<rt::Kernel> K = S.compile(D.Source(), D.Name);
    if (!K) {
      std::fprintf(stderr, "perfbench: %s\n", K.error().message().c_str());
      return false;
    }
    TK.K = *K;
  }
  unsigned InBuf = S.createBufferFrom(In.pixels());
  unsigned OutBuf = S.createBuffer(In.size());
  std::vector<sim::KernelArg> Args = {
      rt::arg::buffer(InBuf), rt::arg::buffer(OutBuf),
      rt::arg::i32(int32_t(W)), rt::arg::i32(int32_t(H))};
  auto launch = [&](sim::Range2 Local) {
    Scope L(T, "gpusim.baseline_launch", TK.Def);
    return S.launch(TK.K, {W, H}, Local, Args);
  };
  Expected<sim::SimReport> R = launch({16, 16});
  if (!R) {
    std::fprintf(stderr, "perfbench: %s\n", R.error().message().c_str());
    return false;
  }
  TK.SimReference = S.buffer(OutBuf).downloadFloats();
  for (const perf::TunerConfig &C : Space) {
    auto Key = std::make_pair(C.TileX, C.TileY);
    if (TK.AccurateMs.count(Key) || W % C.TileX || H % C.TileY)
      continue;
    Expected<sim::SimReport> B = launch({C.TileX, C.TileY});
    if (!B) {
      std::fprintf(stderr, "perfbench: %s\n", B.error().message().c_str());
      return false;
    }
    TK.AccurateMs.emplace(Key, B->TimeMs);
  }
  S.releaseBuffer(InBuf);
  S.releaseBuffer(OutBuf);
  return true;
}

/// The plan `kperfc tune` builds for configuration \p C.
perf::PerforationPlan planFor(const perf::TunerConfig &C) {
  perf::PerforationPlan Plan;
  Plan.Scheme = C.Scheme;
  Plan.TileX = C.TileX;
  Plan.TileY = C.TileY;
  Plan.PipelineSpec = perf::jointPipelineSpec(Plan.PipelineSpec, C.LoopStride);
  return Plan;
}

/// Launches \p V over frame \p In on buffers checked out for this launch,
/// inside a span named \p SpanName; the output lands in \p Out.
Expected<sim::SimReport> launchOn(rt::Session &S, const rt::Variant &V,
                                  const img::Image &In, std::vector<float> &Out,
                                  Tracer &T, const char *SpanName,
                                  long long Id) {
  const unsigned W = In.width(), H = In.height();
  unsigned InBuf = S.createBufferFrom(In.pixels());
  unsigned OutBuf = S.createBuffer(In.size());
  Expected<sim::SimReport> R = [&] {
    Scope Sp(T, SpanName, Id);
    return S.launch(V, {W, H},
                    {rt::arg::buffer(InBuf), rt::arg::buffer(OutBuf),
                     rt::arg::i32(int32_t(W)), rt::arg::i32(int32_t(H))});
  }();
  Out = S.buffer(OutBuf).downloadFloats();
  S.releaseBuffer(InBuf);
  S.releaseBuffer(OutBuf);
  return R;
}

/// Re-tries the configurations left out of the sweep as known defects,
/// outside timing and the gate, and prints whether each still fails.
void probeKnownDefects(
    const std::vector<unsigned> &Kernels, const std::vector<img::Image> &Frames,
    const std::vector<std::vector<perf::TunerConfig>> &Excluded) {
  Tracer Off(false);
  for (size_t KI = 0; KI < Kernels.size(); ++KI) {
    if (Excluded[KI].empty())
      continue;
    const KernelDef &D = kernelDefs()[Kernels[KI]];
    rt::Session S;
    Expected<rt::Kernel> K = S.compile(D.Source(), D.Name);
    for (const perf::TunerConfig &C : Excluded[KI]) {
      std::string Status;
      if (!K) {
        Status = "compile fails: " + K.error().message();
      } else if (Expected<rt::Variant> P = S.perforate(*K, planFor(C)); !P) {
        Status = "transform refuses it: " + P.error().message();
      } else {
        std::vector<float> Out;
        Expected<sim::SimReport> R =
            launchOn(S, *P, Frames[KI], Out, Off, "", -1);
        Status = R ? "runs now; the exclusion can go"
                   : "still fails: " + R.error().message();
      }
      std::printf("known defect: %-12s %-20s %s\n", D.Name, C.str().c_str(),
                  Status.c_str());
    }
  }
}

/// A tuning frame: an 8x8 mosaic of Natural frames, so a configuration's
/// error on it averages 64 scenes. On a single scene, the scene alone
/// moved a configuration's MRE by up to 3x, which flipped the
/// tuner's pick from seed to seed and spread output_mre by 0.13-0.32
/// over ten seeds. A 4x4 mosaic still flipped sharpen's pick on 2 seeds
/// of 25; the 8x8 mosaic flipped one pick on 1 seed of 25.
img::Image tuningFrame(unsigned Edge, uint64_t Seed) {
  const unsigned Tiles = 8, T = Edge / Tiles;
  img::Image Frame(Edge, Edge);
  for (unsigned TY = 0; TY < Tiles; ++TY)
    for (unsigned TX = 0; TX < Tiles; ++TX) {
      const img::Image Scene =
          img::generateImage(img::ImageClass::Natural, T, T,
                             Seed * Tiles * Tiles + TY * Tiles + TX);
      for (unsigned Y = 0; Y < T; ++Y)
        for (unsigned X = 0; X < T; ++X)
          Frame.set(TX * T + X, TY * T + Y, Scene.at(X, Y));
    }
  return Frame;
}

bool runTune(const Options &Opt, Tracer &T, Outcome &O) {
  const unsigned Edge = Opt.Tiny ? 64 : 128;
  const double Budget = 0.05;
  const unsigned SetupReps = Opt.Tiny ? 1 : 3;
  std::vector<unsigned> Kernels;
  for (unsigned K = 0; K < kernelDefs().size(); ++K)
    if (!Opt.Tiny || K == 0 || K == 4)
      Kernels.push_back(K);
  std::vector<perf::TunerConfig> Space = perf::defaultTuningSpace();
  if (Opt.Tiny)
    Space.erase(std::remove_if(Space.begin(), Space.end(),
                               [](const perf::TunerConfig &C) {
                                 return C.TileX != 16 || C.TileY != 16;
                               }),
                Space.end());

  // Each kernel tunes on a frame of its own, as separate `kperfc tune`
  // runs would: the winners' errors then vary independently from frame to
  // frame instead of all moving with one frame's content.
  std::vector<img::Image> Frames;
  std::vector<std::vector<float>> Native;
  for (unsigned K : Kernels) {
    Frames.push_back(tuningFrame(Edge, Opt.Seed * 100 + K));
    Native.push_back(kernelDefs()[K].Reference(Frames.back()).pixels());
  }
  // The space each kernel sweeps: the default space without its known
  // defects.
  std::vector<std::vector<perf::TunerConfig>> Swept(Kernels.size()),
      Excluded(Kernels.size());
  for (size_t KI = 0; KI < Kernels.size(); ++KI)
    for (const perf::TunerConfig &C : Space)
      (isKnownDefect(kernelDefs()[Kernels[KI]].Name, C) ? Excluded[KI]
                                                         : Swept[KI])
          .push_back(C);

  // setup_s sums, over kernels, the median of that kernel's set-ups.
  std::vector<std::vector<double>> SetupS(Kernels.size());
  std::vector<EvalRecord> Evals;
  std::vector<double> WinnerSpeedup, WinnerMre;
  unsigned KernelsWithWinner = 0, Configs = 0, Feasible = 0, Rounds = 0;
  double TuneS = 0;
  rt::SessionStats Sessions;
  std::map<std::string, KernelComposition> Composition;
  bool CorruptPending = Opt.Corrupt;
  for (;;) {
    // A fresh, timed set-up of kernel KI into TK.
    auto setUp = [&](TuneKernel &TK, size_t KI) {
      TK = TuneKernel();
      TK.Def = Kernels[KI];
      const int64_t T0 = nowNs();
      {
        Scope Setup(T, "bench.setup", TK.Def);
        if (!setUpTuneKernel(TK, Frames[KI], Space, T))
          return false;
      }
      SetupS[KI].push_back(msBetween(T0, nowNs()) / 1e3);
      return true;
    };
    // Each kernel's sweep runs on its first set-up; the others (timed
    // only) are spread over the sweep below, so each kernel's median
    // samples the host over the whole round.
    std::vector<TuneKernel> TKs(Kernels.size());
    for (size_t KI = 0; KI < Kernels.size(); ++KI)
      if (!setUp(TKs[KI], KI))
        return false;
    for (size_t KI = 0; KI < Kernels.size(); ++KI)
      if (maxAbsDiff(TKs[KI].SimReference, Native[KI]) > AccurateTolerance) {
        std::printf("gate: accurate %s differs from the native reference\n",
                    kernelDefs()[Kernels[KI]].Name);
        ++O.Failed;
      }

    // kperfc tune's evaluation callback for kernel KI.
    auto evaluator = [&](size_t KI) -> perf::EvaluateFn {
      return [&, KI](const perf::TunerConfig &Config)
                 -> Expected<perf::Measurement> {
        TuneKernel &TK = TKs[KI];
        rt::Session &S = *TK.S;
        const img::Image &In = Frames[KI];
        EvalRecord Rec;
        Rec.Kernel = unsigned(KI);
        const int64_t T0 = nowNs();
        Scope EvalSpan(T, "perforation.eval", Evals.size(), Config.str());
        auto finish = [&]() {
          Rec.Ms = msBetween(T0, nowNs());
          Evals.push_back(Rec);
        };
        auto Acc = TK.AccurateMs.find({Config.TileX, Config.TileY});
        if (In.width() % Config.TileX || In.height() % Config.TileY ||
            Acc == TK.AccurateMs.end()) {
          finish();
          return makeError("no accurate baseline at %ux%u", Config.TileX,
                           Config.TileY);
        }
        if (Config.Scheme.Kind == perf::SchemeKind::None &&
            Config.LoopStride <= 1) {
          finish();
          return perf::Measurement{1.0, 0.0, {}};
        }
        const unsigned Before = S.stats().VariantCompiles;
        int64_t P0 = nowNs();
        Expected<rt::Variant> P = [&] {
          Scope Sp(T, "perforation.perforate", Evals.size());
          return S.perforate(TK.K, planFor(Config));
        }();
        Rec.PerforateMs = msBetween(P0, nowNs());
        Rec.Compiled = S.stats().VariantCompiles != Before;
        if (!P) {
          // The transform refused this configuration: infeasible.
          finish();
          return P.takeError();
        }
        if (Rec.Compiled) {
          Rec.PassStats = P->PassStats;
          Rec.Instrs = ir::functionInstructionCount(*P->K.F);
        }
        std::vector<float> Out;
        Expected<sim::SimReport> App =
            launchOn(S, *P, In, Out, T, "gpusim.launch", Evals.size());
        Rec.Launched = true;
        if (CorruptPending) {
          corrupt(Out);
          CorruptPending = false;
        }
        if (!App || !finiteAndSized(Out, In.size())) {
          std::printf("gate: %s %s: %s\n", kernelDefs()[TK.Def].Name,
                      Config.str().c_str(),
                      App ? "invalid output" : App.error().message().c_str());
          Rec.Failed = true;
          finish();
          return makeError("evaluation failed");
        }
        Rec.Report = *App;
        perf::Measurement M;
        M.Speedup = Acc->second / App->TimeMs;
        {
          Scope Sp(T, "img.score", Evals.size());
          M.Error = img::meanRelativeError(TK.SimReference, Out);
        }
        M.PassStats = P->PassStats;
        finish();
        return M;
      };
    };

    // The nine sweeps run interleaved, one slice of each kernel's space in
    // turn, so every kernel's evaluations -- sobel5's, the slowest, hold
    // p99 -- sample the host over the whole sweep instead of one stretch
    // of it. With one job, tuneParallel over the slices in order gives
    // what one call over the whole space would.
    const size_t Slice = 14;
    size_t Longest = 0;
    std::vector<perf::EvaluateFn> Evaluate;
    for (size_t KI = 0; KI < Kernels.size(); ++KI) {
      Evaluate.push_back(evaluator(KI));
      Longest = std::max(Longest, Swept[KI].size());
    }
    std::vector<std::vector<perf::TunerResult>> Results(Kernels.size());
    const size_t RoundFirst = Evals.size();
    const size_t Slices = (Longest + Slice - 1) / Slice;
    for (size_t SI = 0; SI < Slices; ++SI)
      for (size_t KI = 0; KI < Kernels.size(); ++KI) {
        for (unsigned J = 1; J < SetupReps; ++J) {
          TuneKernel Extra;
          if (SI == Slices * J / SetupReps && !setUp(Extra, KI))
            return false;
        }
        const std::vector<perf::TunerConfig> &Sp = Swept[KI];
        const size_t B = SI * Slice;
        if (B >= Sp.size())
          continue;
        const std::vector<perf::TunerConfig> Part(
            Sp.begin() + B, Sp.begin() + std::min(Sp.size(), B + Slice));
        const int64_t T0 = nowNs();
        {
          Scope Tune(T, "perforation.tune", Kernels[KI],
                     kernelDefs()[Kernels[KI]].Name);
          for (perf::TunerResult &R :
               perf::tuneParallel(Part, Evaluate[KI], /*Jobs=*/1))
            Results[KI].push_back(std::move(R));
        }
        TuneS += msBetween(T0, nowNs()) / 1e3;
      }
    for (size_t I = RoundFirst; I < Evals.size(); ++I) {
      KernelComposition &Comp =
          Composition[kernelDefs()[Kernels[Evals[I].Kernel]].Name];
      ++Comp.Evals;
      Comp.Compiled += Evals[I].Compiled;
    }

    // Winners: re-measured against the native reference, outside the
    // timed sweep.
    for (size_t KI = 0; KI < Kernels.size(); ++KI) {
      TuneKernel &TK = TKs[KI];
      rt::Session &S = *TK.S;
      addInto(Sessions, S.stats());
      const KernelDef &D = kernelDefs()[TK.Def];
      KernelComposition &Comp = Composition[D.Name];
      Configs += unsigned(Results[KI].size());
      for (const perf::TunerResult &Rs : Results[KI]) {
        Feasible += Rs.Feasible;
        Comp.Feasible += Rs.Feasible;
      }
      size_t Best = perf::bestWithinErrorBudget(Results[KI], Budget);
      if (Best == ~size_t(0))
        continue;
      const perf::TunerResult &Won = Results[KI][Best];
      const perf::TunerConfig &C = Won.Config;
      const bool Approximate =
          C.Scheme.Kind != perf::SchemeKind::None || C.LoopStride > 1;
      double Mre = 0;
      if (Approximate) {
        Expected<rt::Variant> P = S.perforate(TK.K, planFor(C));
        std::vector<float> Out;
        const bool Valid = P &&
                           launchOn(S, *P, Frames[KI], Out, T,
                                    "gpusim.winner_launch", TK.Def) &&
                           finiteAndSized(Out, Frames[KI].size());
        // An invalid output scores as the MRE cap, 1.
        Mre = Valid ? img::meanRelativeError(Native[KI], Out) : 1.0;
        if (!Valid || !(Mre <= Budget)) {
          std::printf("gate: %s winner %s re-measures at MRE %.6f\n", D.Name,
                      C.str().c_str(), Mre);
          ++O.Failed;
        }
        ++KernelsWithWinner;
        Comp.ApproxWinner = true;
      } else {
        Mre = img::meanRelativeError(Native[KI], TK.SimReference);
      }
      WinnerSpeedup.push_back(Won.M.Speedup);
      WinnerMre.push_back(Mre);
      std::printf("winner: %-12s %-28s speedup %.3fx  MRE %.5f\n", D.Name,
                  C.str().c_str(), Won.M.Speedup, Mre);
    }
    ++Rounds;
    if (TuneS + 0.5 * TuneS / Rounds >= Opt.Seconds)
      break;
  }

  std::vector<double> Lat;
  for (const EvalRecord &E : Evals) {
    ++O.Attempted;
    O.Failed += E.Failed;
    Lat.push_back(E.Ms);
  }
  double LogSum = 0;
  for (double S : WinnerSpeedup)
    LogSum += std::log(S);
  double MreSum = 0;
  for (double M : WinnerMre)
    MreSum += M;
  const double NK = double(Kernels.size()) * Rounds;
  double SetupSum = 0;
  for (const std::vector<double> &K : SetupS)
    SetupSum += median(K);
  O.e2e("setup_s", SetupSum, "s");
  O.e2e("throughput_ops_s", double(Evals.size()) / TuneS, "ops/s");
  O.e2e("latency_p50_ms", percentile(Lat, 0.50), "ms");
  O.e2e("latency_p99_ms", percentile(Lat, 0.99), "ms");
  O.e2e("approx_frac", KernelsWithWinner / NK, "fraction");
  O.e2e("modeled_speedup",
        WinnerSpeedup.empty() ? 0 : std::exp(LogSum / WinnerSpeedup.size()),
        "x");
  O.e2e("output_mre", WinnerMre.empty() ? 0 : MreSum / WinnerMre.size(),
        "MRE");

  std::printf("composition: %u round(s), %zu evaluations, %u set-ups per "
              "kernel and round\n",
              Rounds, Evals.size(), SetupReps);
  std::printf("  %-12s %8s %8s %8s %8s\n", "kernel", "evals", "feasible",
              "compiled", "winner");
  for (unsigned K : Kernels) {
    const KernelComposition &C = Composition[kernelDefs()[K].Name];
    std::printf("  %-12s %8u %8u %8u %8s\n", kernelDefs()[K].Name, C.Evals,
                C.Feasible, C.Compiled, C.ApproxWinner ? "approx" : "accurate");
  }
  probeKnownDefects(Kernels, Frames, Excluded);

  // Per-layer metrics.
  const double PerRound = Rounds;
  std::map<std::string, SpanStats> Spans = T.aggregate();
  const double SetupRounds = SetupReps * Rounds;
  const char *ServeWhy = "no rt::Server on tune_offline";
  absentAll(O,
            {{"runtime.add_service_ms", "ms"},
             {"runtime.degraded_services", "count"},
             {"runtime.check_trip_frac", "fraction"},
             {"runtime.lock_waits", "count"},
             {"runtime.lock_wait_ms", "ms"}},
            ServeWhy);
  for (const char *C : ClassNames) {
    O.absent(std::string("runtime.") + C + "_reqs", "count", ServeWhy);
    O.absent(std::string("runtime.") + C + "_req_p50_ms", "ms", ServeWhy);
  }
  sessionLayer(O, Sessions, PerRound);

  // Layer times and call counts come from the spans; the pass statistics
  // and modeled counters from what the calls returned.
  std::vector<sim::Counters> Totals;
  double ModeledMs = 0, PipelineMs = 0, TransformMs = 0;
  unsigned Built = 0;
  unsigned long long Items = 0, Iterations = 0, Instrs = 0;
  std::map<std::string, std::pair<double, unsigned long long>> PerPass;
  for (const EvalRecord &E : Evals) {
    if (E.Launched && !E.Failed) {
      Totals.push_back(E.Report.Totals);
      Items += E.Report.Totals.WorkItems;
      ModeledMs += E.Report.TimeMs;
    }
    if (E.Compiled) {
      ++Built;
      PipelineMs += E.PassStats.totalMillis();
      TransformMs += E.PerforateMs - E.PassStats.totalMillis();
      Iterations += E.PassStats.Iterations;
      Instrs += E.Instrs;
      for (const ir::PassExecution &P : E.PassStats.Passes) {
        PerPass[P.Name].first += P.Millis;
        PerPass[P.Name].second += P.Changes;
      }
    }
  }
  const SpanStats &Launch = Spans["gpusim.launch"];
  O.layer("gpusim.launches", Launch.Count / PerRound, "count");
  O.layer("gpusim.launch_ms", Launch.TotalMs / PerRound, "ms");
  O.layer("gpusim.launch_p50_ms", percentile(Launch.DurationsMs, 0.5), "ms");
  O.layer("gpusim.ns_per_item",
          Items ? Launch.TotalMs * 1e6 / double(Items) : 0, "ns");
  simReportLayer(O, Totals, ModeledMs, PerRound);

  O.layer("ir.pipeline_ms", PipelineMs / PerRound, "ms");
  O.layer("ir.fixpoint_rounds", double(Iterations) / PerRound, "count");
  for (const char *P : IrPasses) {
    O.layer(std::string("ir.") + P + ".ms", PerPass[P].first / PerRound, "ms");
    O.layer(std::string("ir.") + P + ".changes",
            double(PerPass[P].second) / PerRound, "count");
  }
  O.layer("ir.variant_instrs_mean", Built ? double(Instrs) / Built : 0,
          "count");

  const SpanStats &Perforate = Spans["perforation.perforate"];
  O.layer("perforation.perforate_calls", Perforate.Count / PerRound, "count");
  O.layer("perforation.perforate_ms", Perforate.TotalMs / PerRound, "ms");
  O.layer("perforation.transform_ms", TransformMs / PerRound, "ms");
  O.layer("perforation.configs", Configs / PerRound, "count");
  O.layer("perforation.feasible", Feasible / PerRound, "count");
  O.layer("perforation.feasible_frac", Configs ? double(Feasible) / Configs : 0,
          "fraction");
  O.layer("perforation.tune_ms", Spans["perforation.tune"].TotalMs / PerRound,
          "ms");
  O.layer("perforation.eval_p50_ms",
          percentile(Spans["perforation.eval"].DurationsMs, 0.5), "ms");

  O.layer("pcl.compiles", Spans["pcl.compile"].Count / SetupRounds, "count");
  O.layer("pcl.compile_ms", Spans["pcl.compile"].TotalMs / SetupRounds, "ms");
  O.layer("img.scores", Spans["img.score"].Count / PerRound, "count");
  O.layer("img.score_ms", Spans["img.score"].TotalMs / PerRound, "ms");
  return true;
}

//===--- Output ----------------------------------------------------------===//

void printResult(const Outcome &O, const std::vector<Metric> &Metrics) {
  std::string Json = "{\"correct\": ";
  Json += O.Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(O.Attempted);
  Json += ", \"failed\": " + std::to_string(O.Failed);
  Json += ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(M.Value) ? M.Value : 0.0);
    Json += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Buf +
            ", \"unit\": \"" + M.Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
}

/// Wall time of recording one span, for the tracing-overhead estimate.
double spanCostNs() {
  Tracer Probe(true);
  const int N = 20000;
  const int64_t T0 = nowNs();
  for (int I = 0; I < N; ++I)
    Probe.end(Probe.begin("probe", I));
  return static_cast<double>(nowNs() - T0) / N;
}

} // namespace

int main(int Argc, char **Argv) {
  // Pin the environment: the library reads only KPERF_EXEC_TIER, and the
  // benchmark measures the default tier as users get it.
  unsetenv("KPERF_EXEC_TIER");
  Options Opt;
  if (!parseOptions(Argc, Argv, Opt))
    return 2;
  const bool Serve =
      Opt.Workload == "serve_steady" || Opt.Workload == "serve_drift";
  if (!Serve && Opt.Workload != "tune_offline") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 Opt.Workload.c_str());
    return 2;
  }
  std::printf("perfbench: workload %s, seed %llu, %.0f s, trace %d, "
              "exec tier %s%s\n",
              Opt.Workload.c_str(), (unsigned long long)Opt.Seed, Opt.Seconds,
              int(Opt.Trace), sim::execTierName(sim::defaultExecTier()),
              Opt.Tiny ? ", tiny" : "");

  Tracer T(Opt.Trace);
  Outcome O;
  const int64_t Start = nowNs();
  if (!(Serve ? runServe(Opt, T, O) : runTune(Opt, T, O)))
    return 1;
  const double WallS = msBetween(Start, nowNs()) / 1e3;
  O.e2e("peak_rss_mb", peakRssMb(), "MB");

  std::printf("end-to-end%s:", Opt.Trace ? " (traced)" : "");
  for (const Metric &M : O.EndToEnd)
    std::printf(" %s=%.6g%s", M.Name.c_str(), M.Value,
                M.Unit == "fraction" || M.Unit == "x" || M.Unit == "MRE"
                    ? ""
                    : (" " + M.Unit).c_str());
  std::printf("\ngate: %llu attempted, %llu failed\n", O.Attempted, O.Failed);
  if (!Opt.Trace) {
    printResult(O, O.EndToEnd);
    return 0;
  }

  // Traced run: per-layer metrics, the trace file, and the overhead.
  const double SpanNs = spanCostNs();
  const double OverheadPct =
      100.0 * double(T.size()) * SpanNs / 1e9 / std::max(WallS, 1e-9);
  O.layer("trace.overhead_pct", OverheadPct, "%");
  std::printf("trace: %zu spans, %.0f ns per span, estimated overhead %.3f%% "
              "of %.1f s\n",
              T.size(), SpanNs, OverheadPct, WallS);
  // Where the time went: a span's self time is its duration minus the
  // time its child spans cover.
  std::printf("  %-26s %8s %12s %12s %10s\n", "span", "count", "total ms",
              "self ms", "p50 ms");
  for (const auto &Entry : T.aggregate())
    std::printf("  %-26s %8u %12.1f %12.1f %10.3f\n", Entry.first.c_str(),
                Entry.second.Count, Entry.second.TotalMs, Entry.second.SelfMs,
                percentile(Entry.second.DurationsMs, 0.5));
  for (const auto &A : O.Absent)
    std::printf("absent: %s: %s\n", A.first.c_str(), A.second.c_str());
  if (!Opt.TraceOut.empty()) {
    if (!T.writeChromeJson(Opt.TraceOut)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   Opt.TraceOut.c_str());
      return 1;
    }
    std::printf("trace: wrote %s\n", Opt.TraceOut.c_str());
  }
  printResult(O, O.PerLayer);
  return 0;
}
