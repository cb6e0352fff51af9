//===- tools/kperfd.cpp - Multi-tenant perforation serving daemon ------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Front-end over rt::Server: stands up the perforation serving layer with
// the nine standard-signature benchmark kernels registered as services,
// then drives it from concurrent client threads with a zipfian request
// mix -- the "compile once, serve many approximate launches behind a
// quality guarantee" deployment of the paper's end-game -- and measures
// it.
//
//   kperfd [--clients N]     concurrent client threads       (default 4;
//                            at most one per request)
//          [--requests N]    total requests to serve         (default 360)
//          [--size N]        frame edge length               (default 128)
//          [--cache DIR]     on-disk variant cache (persists across runs;
//                            a warm restart compiles no variant; a DIR
//                            that cannot be created is reported on
//                            stderr and the daemon serves without it)
//          [--budget E]      per-service error budget        (default 0.05)
//          [--check-every N] quality-check cadence           (default 8)
//          [--lint-gate]     static-check every generated kernel
//          [--seed S]        request schedule seed           (default 7)
//          [--json[=FILE]]   also write the results as JSON records
//                            (default FILE: BENCH_serve.json)
//
// Counts are decimal digits up to UINT_MAX and the budget a number >= 0;
// anything else exits 2 with a "bad value" line before the server starts.
// The execution tier follows KPERF_EXEC_TIER, like every other launcher.
//
// The schedule's service draw is a pure function of the seed, so the
// per-service request counts are deterministic: CI pins them exactly
// against the committed BENCH_serve.json (--requests 180 --size 64) and
// checks the wall-clock fields within a tolerance (tools/check_bench.py).
// Frames come from a pool of ten generated before the clock starts:
// request I serves frame I mod 10, and the last frame is pattern content,
// the class the approximation handles worst. With --cache, a second run
// over the same directory reports zero variant compiles (wired in CI).
//
// Output: a per-service table (requests served, approximate share,
// checks, re-tunes), the throughput and p50/p99 latency (each sample
// times one Server::serve call) and the aggregated server stats line.
//
//===----------------------------------------------------------------------===//

#include "apps/Kernels.h"
#include "bench/BenchUtil.h"
#include "img/Generators.h"
#include "runtime/Server.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

using namespace kperf;

namespace {

[[noreturn]] void badValue(const std::string &Text, const char *Flag) {
  std::fprintf(stderr, "kperfd: bad value '%s' for %s\n", Text.c_str(),
               Flag);
  std::exit(2);
}

unsigned countValue(const std::string &Text, const char *Flag) {
  unsigned V = 0;
  if (!parseUnsigned(Text, V))
    badValue(Text, Flag);
  return V;
}

double budgetValue(const std::string &Text) {
  double V = 0;
  if (!parseNonNegative(Text, V))
    badValue(Text, "--budget");
  return V;
}

/// A counter as a JSON integer (JsonRecord::add's unsigned long long
/// overload).
unsigned long long count(unsigned long long V) { return V; }

} // namespace

int main(int Argc, char **Argv) {
  unsigned Clients = 4, Requests = 360, Size = 128, Seed = 7;
  rt::ServerConfig Cfg;
  double Budget = 0.05;
  unsigned CheckEvery = 8;
  bool Json = false;
  std::string JsonPath;

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    std::string Value;
    auto eat = [&](const char *Flag) {
      if (A == Flag) {
        if (I + 1 >= Argc) {
          std::fprintf(stderr, "kperfd: %s needs a value\n", Flag);
          std::exit(2);
        }
        Value = Argv[++I];
        return true;
      }
      std::string Prefix = std::string(Flag) + "=";
      if (A.rfind(Prefix, 0) == 0) {
        Value = A.substr(Prefix.size());
        return true;
      }
      return false;
    };
    if (eat("--clients"))
      Clients = countValue(Value, "--clients");
    else if (eat("--requests"))
      Requests = countValue(Value, "--requests");
    else if (eat("--size"))
      Size = countValue(Value, "--size");
    else if (eat("--cache"))
      Cfg.DiskCacheDir = Value;
    else if (eat("--budget"))
      Budget = budgetValue(Value);
    else if (eat("--check-every"))
      CheckEvery = countValue(Value, "--check-every");
    else if (eat("--seed"))
      Seed = countValue(Value, "--seed");
    else if (A == "--lint-gate")
      Cfg.LintGate = true;
    else if (A == "--json" || A.rfind("--json=", 0) == 0) {
      Json = true;
      JsonPath = A == "--json" ? "BENCH_serve.json" : A.substr(7);
    } else {
      std::fprintf(stderr, "kperfd: unknown flag '%s'\n", A.c_str());
      return 2;
    }
  }
  // A client beyond the request count would have nothing to serve.
  Clients = std::min(std::max(Clients, 1u), Requests);

  rt::Server Server(Cfg);
  if (!Server.diskCacheError().empty()) {
    std::fprintf(stderr, "kperfd: %s; serving without the disk cache\n",
                 Server.diskCacheError().c_str());
    Cfg.DiskCacheDir.clear(); // The banner below names no cache.
  }
  const std::vector<apps::ImageKernel> Defs = apps::standardImageKernels();
  for (const apps::ImageKernel &D : Defs) {
    rt::ServiceConfig SC;
    SC.Name = D.Name;
    SC.Source = D.Source;
    SC.Kernel = D.Name;
    SC.Width = Size;
    SC.Height = Size;
    SC.Scheme = perf::PerforationScheme::rows(
        2, perf::ReconstructionKind::NearestNeighbor);
    SC.ErrorBudget = Budget;
    SC.CheckEvery = CheckEvery;
    if (Error E = Server.addService(SC)) {
      std::fprintf(stderr, "kperfd: %s\n", E.message().c_str());
      return 1;
    }
  }
  std::printf("kperfd: %zu services, %u clients, %u requests, %ux%u "
              "frames%s\n",
              Defs.size(), Clients, Requests, Size, Size,
              Cfg.DiskCacheDir.empty()
                  ? ""
                  : format(", disk cache %s",
                           Cfg.DiskCacheDir.c_str())
                        .c_str());

  // Precomputed deterministic request schedule (a zipfian service draw,
  // the schedule RNG's only use) over a pool of mostly smooth frames.
  Rng ScheduleRng(Seed);
  Zipf Mix(Defs.size());
  std::vector<size_t> Schedule;
  Schedule.reserve(Requests);
  for (unsigned I = 0; I < Requests; ++I)
    Schedule.push_back(Mix.sample(ScheduleRng));
  std::vector<std::vector<float>> Frames;
  for (unsigned I = 0; I < 10; ++I)
    Frames.push_back(img::generateImage(I == 9 ? img::ImageClass::Pattern
                                               : img::ImageClass::Smooth,
                                        Size, Size, 1000 + I)
                         .pixels());

  struct PerService {
    std::atomic<unsigned> Served{0};
    std::atomic<unsigned> Approx{0};
    std::atomic<unsigned> Checks{0};
    std::atomic<unsigned> ReTunes{0};
  };
  std::vector<PerService> Counts(Defs.size());
  std::vector<double> LatencyMs(Requests, 0.0);
  std::atomic<size_t> NextRequest{0};
  std::atomic<unsigned> Failures{0};

  using Clock = std::chrono::steady_clock;
  const Clock::time_point Start = Clock::now();
  auto Client = [&]() {
    for (;;) {
      size_t I = NextRequest.fetch_add(1);
      if (I >= Schedule.size())
        return;
      const size_t Svc = Schedule[I];
      const Clock::time_point T0 = Clock::now();
      Expected<rt::ServeResult> Res =
          Server.serve(Defs[Svc].Name, Frames[I % Frames.size()]);
      LatencyMs[I] =
          std::chrono::duration<double, std::milli>(Clock::now() - T0)
              .count();
      if (!Res) {
        ++Failures;
        continue;
      }
      PerService &C = Counts[Svc];
      ++C.Served;
      if (Res->UsedApproximate)
        ++C.Approx;
      if (Res->Checked)
        ++C.Checks;
      if (Res->ReTuned)
        ++C.ReTunes;
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < Clients; ++I)
    Threads.emplace_back(Client);
  for (std::thread &T : Threads)
    T.join();
  const double TotalSec =
      std::chrono::duration<double>(Clock::now() - Start).count();
  // Re-tunes run in the background, off the measured request path; let
  // them land so the degraded count on the stats line is final.
  Server.waitForReTunes();

  std::sort(LatencyMs.begin(), LatencyMs.end());
  auto percentile = [&](double P) {
    return LatencyMs.empty()
               ? 0.0
               : LatencyMs[static_cast<size_t>(P * (LatencyMs.size() - 1))];
  };
  const double RequestsPerSec = TotalSec > 0 ? Requests / TotalSec : 0;
  const rt::ServerStats St = Server.stats();

  std::printf("\n%-12s %8s %8s %8s %8s\n", "service", "served", "approx",
              "checks", "retunes");
  for (size_t I = 0; I < Defs.size(); ++I)
    std::printf("%-12s %8u %8u %8u %8u\n", Defs[I].Name,
                Counts[I].Served.load(), Counts[I].Approx.load(),
                Counts[I].Checks.load(), Counts[I].ReTunes.load());
  if (Failures.load() != 0)
    std::printf("failed requests: %u\n", Failures.load());
  std::printf("\nthroughput: %.1f requests/sec; latency p50 %.2f ms, "
              "p99 %.2f ms\n",
              RequestsPerSec, percentile(0.50), percentile(0.99));
  std::printf("server: %s\n", St.str().c_str());

  if (Json) {
    std::vector<bench::JsonRecord> Records;
    for (size_t I = 0; I < Defs.size(); ++I) {
      bench::JsonRecord R;
      R.add("bench", "serve");
      R.add("service", Defs[I].Name);
      R.add("requests", count(Counts[I].Served.load()));
      R.add("approx", count(Counts[I].Approx.load()));
      R.add("checks", count(Counts[I].Checks.load()));
      R.add("retunes", count(Counts[I].ReTunes.load()));
      Records.push_back(R);
    }
    const rt::SessionStats &Ss = St.Sessions;
    bench::JsonRecord Total;
    Total.add("bench", "serve");
    Total.add("service", "__total__");
    Total.add("requests", count(Requests));
    Total.add("failed", count(Failures.load()));
    Total.add("clients", count(Clients));
    Total.add("size", count(Size));
    Total.add("launches_per_sec", RequestsPerSec);
    Total.add("p50_ms", percentile(0.50));
    Total.add("p99_ms", percentile(0.99));
    Total.add("checks", count(St.Checks));
    Total.add("retunes", count(St.ReTunes));
    Total.add("degraded_services", count(St.DegradedServices));
    Total.add("variant_compiles", count(Ss.VariantCompiles.load()));
    Total.add("variant_cache_hits", count(Ss.VariantCacheHits.load()));
    Total.add("variant_hit_rate", Ss.variantHitRate());
    Total.add("bytecode_compiles", count(Ss.BytecodeCompiles.load()));
    Total.add("bytecode_cache_hits", count(Ss.BytecodeCacheHits.load()));
    Total.add("disk_hits", count(Ss.DiskVariantHits.load()));
    Total.add("disk_stores", count(Ss.DiskVariantStores.load()));
    Records.push_back(Total);
    if (!bench::writeJsonRecords(JsonPath, Records))
      return 1;
  }
  return Failures.load() == 0 ? 0 : 1;
}
