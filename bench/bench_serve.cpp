//===- bench/bench_serve.cpp - Serving-layer throughput benchmark ------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Measures the multi-tenant serving layer (rt::Server) under a sustained
// zipfian request mix across the nine standard-signature kernels:
// launches/sec, p50/p99 request latency, variant/bytecode/disk cache hit
// rates, quality checks, and online re-tunes triggered. One service
// (sobel5) runs with a deliberately unreachable error budget so exactly
// one deterministic re-tune fires and the re-tune/degrade path always
// runs (on the server's background worker, beside the measured
// requests).
//
//   bench_serve [--requests N] [--clients N] [--size N] [--shards N]
//               [--cache DIR] [--seed S] [--json[=FILE]]
//
// The request schedule (service choice and frame content) is a pure
// function of the seed, so per-service request counts are deterministic
// and CI pins them exactly; wall-clock fields are checked within a
// tolerance (tools/check_bench.py). With --cache, a second run over the
// same directory must report zero variant compiles -- the warm-restart
// acceptance criterion (wired in CI). Counts are decimal digits up to
// UINT_MAX; anything else exits 2 with a "bad value" line. At most one
// client thread starts per request.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "apps/Kernels.h"
#include "img/Generators.h"
#include "runtime/Server.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

using namespace kperf;

namespace {

/// The value of \p Flag ("--flag V" or "--flag=V"), or null if absent.
const char *rawFlag(int Argc, char **Argv, const char *Flag) {
  std::string Eq = std::string(Flag) + "=";
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == Flag && I + 1 < Argc)
      return Argv[I + 1];
    if (A.rfind(Eq, 0) == 0)
      return Argv[I] + Eq.size();
  }
  return nullptr;
}

unsigned flagValue(int Argc, char **Argv, const char *Flag,
                   unsigned Default) {
  const char *Text = rawFlag(Argc, Argv, Flag);
  if (!Text)
    return Default;
  unsigned V = 0;
  if (!parseUnsigned(Text, V)) {
    std::fprintf(stderr, "bench_serve: bad value '%s' for %s\n", Text,
                 Flag);
    std::exit(2);
  }
  return V;
}

std::string stringFlag(int Argc, char **Argv, const char *Flag) {
  const char *Text = rawFlag(Argc, Argv, Flag);
  return Text ? Text : "";
}

} // namespace

int main(int Argc, char **Argv) {
  const unsigned Requests = flagValue(Argc, Argv, "--requests", 180);
  const unsigned Clients =
      std::min(std::max(1u, flagValue(Argc, Argv, "--clients", 4)), Requests);
  const unsigned Size = flagValue(Argc, Argv, "--size", 64);
  const unsigned Seed = flagValue(Argc, Argv, "--seed", 7);
  std::string JsonPath;
  const bool Json = bench::parseJsonFlag(Argc, Argv, "serve", JsonPath);

  rt::ServerConfig Cfg;
  Cfg.Shards = flagValue(Argc, Argv, "--shards", 4);
  Cfg.DiskCacheDir = stringFlag(Argc, Argv, "--cache");

  rt::Server Server(Cfg);
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
    SC.CheckEvery = 8;
    // sobel5's budget is unreachable by construction: its first quality
    // check always fails, queueing exactly one deterministic online
    // re-tune (which finds no candidate and degrades the service), so
    // the quality loop always runs.
    SC.ErrorBudget = std::strcmp(D.Name, "sobel5") == 0 ? 1e-12 : 0.05;
    if (Error E = Server.addService(SC)) {
      std::fprintf(stderr, "bench_serve: %s\n", E.message().c_str());
      return 1;
    }
  }

  // Deterministic zipfian schedule over a small pool of smooth frames.
  Rng ScheduleRng(Seed);
  Zipf Mix(Defs.size());
  std::vector<size_t> Schedule;
  Schedule.reserve(Requests);
  for (unsigned I = 0; I < Requests; ++I)
    Schedule.push_back(Mix.sample(ScheduleRng));
  std::vector<std::vector<float>> Frames;
  for (unsigned I = 0; I < 16; ++I)
    Frames.push_back(
        img::generateImage(img::ImageClass::Smooth, Size, Size, 100 + I)
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
      size_t SvcIdx = Schedule[I];
      const Clock::time_point T0 = Clock::now();
      Expected<rt::ServeResult> Res =
          Server.serve(Defs[SvcIdx].Name, Frames[I % Frames.size()]);
      LatencyMs[I] =
          std::chrono::duration<double, std::milli>(Clock::now() - T0)
              .count();
      if (!Res) {
        ++Failures;
        continue;
      }
      PerService &C = Counts[SvcIdx];
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
  // them land so the degraded count is final.
  Server.waitForReTunes();

  std::vector<double> Sorted = LatencyMs;
  std::sort(Sorted.begin(), Sorted.end());
  auto percentile = [&](double P) {
    if (Sorted.empty())
      return 0.0;
    size_t Idx = static_cast<size_t>(P * (Sorted.size() - 1));
    return Sorted[Idx];
  };
  const double LaunchesPerSec =
      TotalSec > 0 ? static_cast<double>(Requests) / TotalSec : 0;
  const rt::ServerStats St = Server.stats();

  std::printf("bench_serve: %u requests, %u clients, %u shards, %ux%u "
              "frames%s\n",
              Requests, Clients, Server.config().Shards, Size, Size,
              Cfg.DiskCacheDir.empty() ? "" : " (disk cache)");
  std::printf("%-12s %8s %8s %8s %8s\n", "service", "served", "approx",
              "checks", "retunes");
  for (size_t I = 0; I < Defs.size(); ++I)
    std::printf("%-12s %8u %8u %8u %8u\n", Defs[I].Name,
                Counts[I].Served.load(), Counts[I].Approx.load(),
                Counts[I].Checks.load(), Counts[I].ReTunes.load());
  std::printf("throughput: %.1f launches/sec; latency p50 %.2f ms, "
              "p99 %.2f ms\n",
              LaunchesPerSec, percentile(0.50), percentile(0.99));
  std::printf("server: %s\n", St.str().c_str());
  if (Failures.load() != 0)
    std::printf("failed requests: %u\n", Failures.load());

  if (Json) {
    std::vector<bench::JsonRecord> Records;
    for (size_t I = 0; I < Defs.size(); ++I) {
      bench::JsonRecord R;
      R.add("bench", "serve");
      R.add("service", Defs[I].Name);
      R.add("shard", static_cast<unsigned long long>(
                         cantFail(Server.shardOf(Defs[I].Name))));
      R.add("requests",
            static_cast<unsigned long long>(Counts[I].Served.load()));
      R.add("approx",
            static_cast<unsigned long long>(Counts[I].Approx.load()));
      R.add("checks",
            static_cast<unsigned long long>(Counts[I].Checks.load()));
      R.add("retunes",
            static_cast<unsigned long long>(Counts[I].ReTunes.load()));
      Records.push_back(R);
    }
    bench::JsonRecord Total;
    Total.add("bench", "serve");
    Total.add("service", "__total__");
    Total.add("requests", static_cast<unsigned long long>(Requests));
    Total.add("failed",
              static_cast<unsigned long long>(Failures.load()));
    Total.add("clients", static_cast<unsigned long long>(Clients));
    Total.add("shards",
              static_cast<unsigned long long>(Server.config().Shards));
    Total.add("size", static_cast<unsigned long long>(Size));
    Total.add("launches_per_sec", LaunchesPerSec);
    Total.add("p50_ms", percentile(0.50));
    Total.add("p99_ms", percentile(0.99));
    Total.add("checks", static_cast<unsigned long long>(St.Checks));
    Total.add("retunes", static_cast<unsigned long long>(St.ReTunes));
    Total.add("degraded_services",
              static_cast<unsigned long long>(St.DegradedServices));
    Total.add("variant_compiles", static_cast<unsigned long long>(
                                      St.Sessions.VariantCompiles.load()));
    Total.add("variant_cache_hits",
              static_cast<unsigned long long>(
                  St.Sessions.VariantCacheHits.load()));
    Total.add("variant_hit_rate", St.Sessions.variantHitRate());
    Total.add("bytecode_compiles",
              static_cast<unsigned long long>(
                  St.Sessions.BytecodeCompiles.load()));
    Total.add("bytecode_cache_hits",
              static_cast<unsigned long long>(
                  St.Sessions.BytecodeCacheHits.load()));
    Total.add("disk_hits", static_cast<unsigned long long>(
                               St.Sessions.DiskVariantHits.load()));
    Total.add("disk_stores", static_cast<unsigned long long>(
                                 St.Sessions.DiskVariantStores.load()));
    Records.push_back(Total);
    if (!bench::writeJsonRecords(JsonPath, Records))
      return 1;
  }
  return Failures.load() == 0 ? 0 : 1;
}
