//===- bench/bench_interp.cpp - Execution-tier wall-clock benchmark ---------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Measures the *wall-clock* cost of the simulator itself (not the modeled
// GPU time) on both execution tiers: the tree-walking reference
// interpreter and the batched work-group tier. Each of the nine
// applications runs its Rows2:Linear perforated variant (the richest
// codepath: loader loops, barrier, reconstruction) under the default
// cleanup pipeline on both tiers; the batched tier's outputs and
// simulated counters are cross-checked against the tree walker while
// timing. Useful to size experiment sweeps.
//
// Flags: --json[=FILE] emits records {app, tier, wall_ms, speedup,
// outputs_identical, counters_identical}. KPERF_IMG_SIZE overrides the
// 128x128 default workload edge.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

#include <chrono>
#include <cstdio>
#include <cstring>

using namespace kperf;
using namespace kperf::apps;
using namespace kperf::bench;

namespace {

const char *AllAppNames[] = {"gaussian", "inversion", "median",
                             "hotspot",  "sobel3",    "sobel5",
                             "mean",     "sharpen",   "convsep"};

const sim::ExecTier AllTiers[] = {sim::ExecTier::Tree,
                                  sim::ExecTier::Batched};

unsigned workloadSize() {
  unsigned V = envCount("KPERF_IMG_SIZE", 0); // 0 keeps the default.
  return V ? V : 128;
}

Workload benchWorkload(const App &A, unsigned Size) {
  if (A.name() == "hotspot")
    return makeHotspotWorkload(Size, /*Seed=*/5, /*Iterations=*/1);
  return makeImageWorkload(
      img::generateImage(img::ImageClass::Natural, Size, Size, 5));
}

bool sameBytes(const std::vector<float> &A, const std::vector<float> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) == 0);
}

bool sameCounters(const sim::Counters &A, const sim::Counters &B) {
  return A.AluOps == B.AluOps && A.PrivateAccesses == B.PrivateAccesses &&
         A.LocalAccesses == B.LocalAccesses &&
         A.LocalWavefrontOps == B.LocalWavefrontOps &&
         A.BankConflictExtra == B.BankConflictExtra &&
         A.GlobalReadTransactions == B.GlobalReadTransactions &&
         A.GlobalWriteTransactions == B.GlobalWriteTransactions &&
         A.GlobalReads == B.GlobalReads &&
         A.GlobalWrites == B.GlobalWrites && A.Barriers == B.Barriers &&
         A.WorkGroups == B.WorkGroups && A.WorkItems == B.WorkItems;
}

/// Minimum of \p Reps timed runs after one untimed warm-up (which also
/// yields the outcome used for the parity checks).
struct TimedRun {
  double WallMs = 0;
  RunOutcome Outcome;
};

Expected<TimedRun> timeTier(const App &A, rt::Session &S,
                            const rt::Variant &V, const Workload &W,
                            sim::ExecTier Tier, int Reps) {
  S.setExecTier(Tier);
  Expected<RunOutcome> Warm = A.run(S, V, W);
  if (!Warm)
    return Warm.takeError();
  TimedRun T;
  T.Outcome = std::move(*Warm);
  T.WallMs = 1e30;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    auto Start = std::chrono::steady_clock::now();
    Expected<RunOutcome> R = A.run(S, V, W);
    auto End = std::chrono::steady_clock::now();
    if (!R)
      return R.takeError();
    double Ms = std::chrono::duration<double, std::milli>(End - Start).count();
    if (Ms < T.WallMs)
      T.WallMs = Ms;
  }
  return T;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath;
  bool Json = parseJsonFlag(Argc, Argv, "interp", JsonPath);
  unsigned Size = workloadSize();
  std::vector<JsonRecord> Records;
  bool AllParity = true;

  std::printf("Simulator wall clock by execution tier "
              "(%ux%u, Rows2:Linear perforated, min of 3)\n\n",
              Size, Size);
  std::printf("%-10s %-9s %10s %9s %9s %9s\n", "app", "tier", "wall ms",
              "speedup", "outputs", "counters");

  for (const char *Name : AllAppNames) {
    auto A = makeApp(Name);
    if (!A) {
      std::fprintf(stderr, "unknown app '%s'\n", Name);
      return 1;
    }
    Workload W = benchWorkload(*A, Size);

    rt::Session S;
    Expected<rt::Variant> V = A->buildPerforated(
        S,
        perf::PerforationScheme::rows(2, perf::ReconstructionKind::Linear),
        {16, 16});
    if (!V) {
      std::fprintf(stderr, "%s: %s\n", Name, V.error().message().c_str());
      return 1;
    }

    TimedRun Tree;
    for (sim::ExecTier Tier : AllTiers) {
      Expected<TimedRun> T = timeTier(*A, S, *V, W, Tier, /*Reps=*/3);
      if (!T) {
        std::fprintf(stderr, "%s (%s): %s\n", Name,
                     sim::execTierName(Tier), T.error().message().c_str());
        return 1;
      }
      bool SameOut = true, SameCnt = true;
      double Speedup = 1.0;
      if (Tier == sim::ExecTier::Tree) {
        Tree = std::move(*T);
      } else {
        SameOut = sameBytes(Tree.Outcome.Output, T->Outcome.Output);
        SameCnt = sameCounters(Tree.Outcome.Report.Totals,
                               T->Outcome.Report.Totals);
        Speedup = T->WallMs > 0 ? Tree.WallMs / T->WallMs : 0;
        AllParity = AllParity && SameOut && SameCnt;
      }
      const TimedRun &Shown =
          Tier == sim::ExecTier::Tree ? Tree : *T;
      std::printf("%-10s %-9s %10.3f %8.1fx %9s %9s\n", Name,
                  sim::execTierName(Tier), Shown.WallMs, Speedup,
                  SameOut ? "same" : "DIFFER", SameCnt ? "same" : "DIFFER");
      if (Json) {
        JsonRecord R;
        R.add("app", Name);
        R.add("tier", sim::execTierName(Tier));
        R.add("wall_ms", Shown.WallMs);
        R.add("speedup", Speedup);
        R.add("outputs_identical",
              static_cast<unsigned long long>(SameOut ? 1 : 0));
        R.add("counters_identical",
              static_cast<unsigned long long>(SameCnt ? 1 : 0));
        Records.push_back(std::move(R));
      }
    }
  }

  if (Json && !writeJsonRecords(JsonPath, Records))
    return 1;
  if (!AllParity) {
    std::fprintf(stderr,
                 "FAIL: the batched tier diverged from the tree walker\n");
    return 1;
  }
  return 0;
}
