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
// quality guarantee" deployment of the paper's end-game.
//
//   kperfd [--shards N]      lock stripes / shard sessions   (default 4)
//          [--clients N]     concurrent client threads       (default 4;
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
//
// Counts are decimal digits up to UINT_MAX and the budget a number >= 0;
// anything else exits 2 with a "bad value" line before the server starts.
// The execution tier follows KPERF_EXEC_TIER, like every other launcher.
// Output: a per-service table (requests served, approximate share,
// checks, re-tunes) and the aggregated server stats line.
//
//===----------------------------------------------------------------------===//

#include "apps/Kernels.h"
#include "img/Generators.h"
#include "runtime/Server.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
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

} // namespace

int main(int Argc, char **Argv) {
  unsigned Clients = 4, Requests = 360, Size = 128, Seed = 7;
  rt::ServerConfig Cfg;
  double Budget = 0.05;
  unsigned CheckEvery = 8;

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
    if (eat("--shards"))
      Cfg.Shards = countValue(Value, "--shards");
    else if (eat("--clients"))
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
    else {
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
  std::printf("kperfd: %u shards, %zu services, %u clients, %u requests, "
              "%ux%u frames%s\n",
              Server.config().Shards, Defs.size(), Clients, Requests, Size,
              Size,
              Cfg.DiskCacheDir.empty()
                  ? ""
                  : format(", disk cache %s",
                           Cfg.DiskCacheDir.c_str())
                        .c_str());
  for (const std::string &Name : Server.services())
    std::printf("  service %-12s -> shard %u\n", Name.c_str(),
                cantFail(Server.shardOf(Name)));

  // Precomputed deterministic request schedule: zipfian service choice,
  // mostly smooth frames with occasional pattern content (the content
  // class the approximation handles worst).
  struct Request {
    size_t Service;
    img::ImageClass Content;
    uint64_t FrameSeed;
  };
  Rng ScheduleRng(Seed);
  Zipf Mix(Defs.size());
  std::vector<Request> Schedule;
  Schedule.reserve(Requests);
  for (unsigned I = 0; I < Requests; ++I) {
    Request R;
    R.Service = Mix.sample(ScheduleRng);
    R.Content = ScheduleRng.uniform() < 0.9 ? img::ImageClass::Smooth
                                            : img::ImageClass::Pattern;
    R.FrameSeed = 1000 + I;
    Schedule.push_back(R);
  }

  struct PerService {
    std::atomic<unsigned> Served{0};
    std::atomic<unsigned> Approx{0};
    std::atomic<unsigned> Checks{0};
    std::atomic<unsigned> ReTunes{0};
  };
  std::vector<PerService> Counts(Defs.size());
  std::atomic<size_t> NextRequest{0};
  std::atomic<unsigned> Failures{0};

  auto Client = [&]() {
    for (;;) {
      size_t I = NextRequest.fetch_add(1);
      if (I >= Schedule.size())
        return;
      const Request &R = Schedule[I];
      img::Image Frame = img::generateImage(R.Content, Size, Size,
                                            R.FrameSeed);
      Expected<rt::ServeResult> Res =
          Server.serve(Defs[R.Service].Name, Frame.pixels());
      if (!Res) {
        ++Failures;
        continue;
      }
      PerService &C = Counts[R.Service];
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
  // Re-tunes run in the background; let them land so the degraded count
  // on the stats line is final.
  Server.waitForReTunes();

  std::printf("\n%-12s %8s %8s %8s %8s\n", "service", "served", "approx",
              "checks", "retunes");
  for (size_t I = 0; I < Defs.size(); ++I)
    std::printf("%-12s %8u %8u %8u %8u\n", Defs[I].Name,
                Counts[I].Served.load(), Counts[I].Approx.load(),
                Counts[I].Checks.load(), Counts[I].ReTunes.load());
  if (Failures.load() != 0)
    std::printf("failed requests: %u\n", Failures.load());
  std::printf("\nserver: %s\n", Server.stats().str().c_str());
  return Failures.load() == 0 ? 0 : 1;
}
