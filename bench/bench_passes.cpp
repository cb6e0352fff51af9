//===- bench/bench_passes.cpp - Compiler-pass ablation ------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Not a paper figure: ablation of the cleanup pipeline that runs over
// every generated perforated kernel, across all nine paper/extension
// applications. The perforation transform clones the original address
// arithmetic into the loader, the reconstruction, and the rewritten body,
// so without the pipeline the generated kernels carry substantial
// redundant ALU work -- enough to shift compute-bound kernels' modeled
// time and hence the reported speedups.
//
// Every row starts from the session's promoted kernel: rt::Session
// compiles the source and runs mem2reg once, so the application's own
// scalars are SSA values before any pipeline runs. The private traffic
// the rows without mem2reg keep is the transform's own loader and
// reconstruction loop counters, plus the window arrays of median and
// sobel5, which only unroll or sroa take apart.
//
// Per application and pipeline setting the table shows:
//
//   instrs      static instruction count (both passes for convsep)
//   loads/item  dynamic memory accesses per work item
//               (private + local + global lanes, loads and stores)
//   priv/item   the private-memory share of the above
//   ALU/item    dynamic ALU ops per work item
//   time        modeled execution time of the workload
//   energy      modeled energy
//
// for the pipeline specs (the ablation reconstructs the pipeline's
// history; each row adds what the next generation of passes bought):
//
//   none          ""
//   simplify+DCE  fixpoint(simplify,dce)
//   full          fixpoint(simplify,memopt-forward,licm,memopt-dse,dce)
//   +mem2reg      mem2reg ahead of the full fixpoint group
//   +unroll+gvn   mem2reg,unroll,fixpoint(...,gvn,...)
//   +sroa         the default: sroa + in-fixpoint mem2reg on top, with
//                 gvn/licm/memopt-dse widened over memory SSA
//
// The final row's per-pass instrumentation (invocations, changes, net
// IR-size delta, net static-ALU delta) is printed per app underneath,
// straight from the variant's PipelineStats.
//
// --json[=FILE]: also emit every row as a JSON array (default
// BENCH_passes.json) so the trajectory can be tracked across revisions;
// per-pass rows are emitted as bench="passes_pass" records.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

#include "ir/Passes.h"

#include <cstdio>

using namespace kperf;
using namespace kperf::bench;
using namespace kperf::apps;

namespace {

struct AblationRow {
  size_t Instructions = 0;
  double LoadsPerItem = 0; ///< All memory lanes: private+local+global.
  double PrivPerItem = 0;  ///< Private share of the above.
  double AluPerItem = 0;
  double TimeMs = 0;
  double EnergyMJ = 0;
  ir::PipelineStats PassStats; ///< What the pipeline did (per-pass rows).
};

/// Builds the Rows1:LI perforated variant of \p TheApp with the cleanup
/// pipeline \p PipelineSpec and measures one run of workload \p W. The
/// session is shared across an app's pipeline rows: the pipeline spec is
/// part of every variant's cache key, so each row still gets its own
/// freshly optimized variant from a single source compile.
AblationRow measure(rt::Session &S, apps::App &TheApp, const Workload &W,
                    const std::string &PipelineSpec) {
  TheApp.setPipelineSpec(PipelineSpec);

  rt::Variant BK = cantFail(TheApp.buildPerforated(
      S,
      perf::PerforationScheme::rows(2, perf::ReconstructionKind::Linear),
      {16, 16}));
  RunOutcome R = cantFail(TheApp.run(S, BK, W));

  AblationRow Row;
  Row.Instructions = ir::functionInstructionCount(*BK.K.F);
  if (BK.isTwoPass())
    Row.Instructions += ir::functionInstructionCount(*BK.K2.F);
  double Items = static_cast<double>(R.Report.Totals.WorkItems);
  Row.LoadsPerItem =
      static_cast<double>(R.Report.Totals.PrivateAccesses +
                          R.Report.Totals.LocalAccesses +
                          R.Report.Totals.GlobalReads +
                          R.Report.Totals.GlobalWrites) /
      Items;
  Row.PrivPerItem =
      static_cast<double>(R.Report.Totals.PrivateAccesses) / Items;
  Row.AluPerItem = static_cast<double>(R.Report.Totals.AluOps) / Items;
  Row.TimeMs = R.Report.TimeMs;
  Row.EnergyMJ = R.Report.EnergyMJ;
  Row.PassStats = BK.PassStats;
  return Row;
}

void printRow(const char *Label, const AblationRow &R) {
  std::printf("  %-14s %8zu %12.1f %11.1f %10.1f %9.3f %9.3f\n", Label,
              R.Instructions, R.LoadsPerItem, R.PrivPerItem, R.AluPerItem,
              R.TimeMs, R.EnergyMJ);
}

/// Per-pass instrumentation of the default pipeline's run: what each
/// pass changed and the net IR-size / static-ALU movement it caused.
void printPassTable(const ir::PipelineStats &Stats) {
  std::printf("    %-16s %5s %8s %8s %8s\n", "pass", "runs", "changes",
              "d-instr", "d-alu");
  for (const ir::PassExecution &E : Stats.Passes)
    std::printf("    %-16s %5u %8u %+8lld %+8lld\n", E.Name.c_str(),
                E.Invocations, E.Changes, E.SizeDelta, E.AluDelta);
}

void recordRow(std::vector<JsonRecord> &Records, const char *AppName,
               const char *Label, const AblationRow &R) {
  JsonRecord Rec;
  Rec.add("bench", "passes");
  Rec.add("app", AppName);
  Rec.add("pipeline", Label);
  Rec.add("instrs", static_cast<unsigned long long>(R.Instructions));
  Rec.add("loads_per_item", R.LoadsPerItem);
  Rec.add("priv_per_item", R.PrivPerItem);
  Rec.add("alu_per_item", R.AluPerItem);
  Rec.add("time_ms", R.TimeMs);
  Rec.add("energy_mj", R.EnergyMJ);
  Records.push_back(std::move(Rec));
}

void recordPassRows(std::vector<JsonRecord> &Records, const char *AppName,
                    const ir::PipelineStats &Stats) {
  for (const ir::PassExecution &E : Stats.Passes) {
    JsonRecord Rec;
    Rec.add("bench", "passes_pass");
    Rec.add("app", AppName);
    Rec.add("pass", E.Name);
    Rec.add("invocations",
            static_cast<unsigned long long>(E.Invocations));
    Rec.add("changes", static_cast<unsigned long long>(E.Changes));
    Rec.add("size_delta", static_cast<double>(E.SizeDelta));
    Rec.add("alu_delta", static_cast<double>(E.AluDelta));
    Records.push_back(std::move(Rec));
  }
}

} // namespace

int main(int Argc, char **Argv) {
  BenchSettings S = BenchSettings::fromEnvironment();
  std::string JsonPath;
  bool Json = parseJsonFlag(Argc, Argv, "passes", JsonPath);
  std::vector<JsonRecord> Records;

  // The pipeline's history as ablation rows: the pre-mem2reg fixpoint
  // ("full"), SSA promotion on top ("+mem2reg"), constant-trip unrolling
  // + cross-block GVN ("+unroll+gvn"), and the current default with SROA
  // + memory-SSA-widened gvn/licm/memopt-dse ("+sroa").
  const char *FullNoMem2Reg =
      "fixpoint(simplify,memopt-forward,licm,memopt-dse,dce)";
  const char *Mem2RegOnly =
      "mem2reg,fixpoint(simplify,memopt-forward,licm,memopt-dse,dce)";
  const char *UnrollGvn =
      "mem2reg,unroll,fixpoint(simplify,gvn,memopt-forward,licm,"
      "memopt-dse,dce)";

  std::printf("=== Pass ablation: Rows1:LI perforated kernels, %ux%u "
              "input ===\n\n",
              S.ImageSize, S.ImageSize);
  std::printf("  %-14s %8s %12s %11s %10s %9s %9s\n", "pipeline",
              "instrs", "loads/item", "priv/item", "ALU/item", "ms",
              "mJ");

  for (const char *Name : {"gaussian", "inversion", "median", "hotspot",
                           "sobel3", "sobel5", "mean", "sharpen",
                           "convsep"}) {
    std::printf("%s\n", Name);
    auto TheApp = makeApp(Name);
    Workload W = workloadsFor(*TheApp, S).front();
    rt::Session Session;
    struct Setting {
      const char *Label;
      std::string Spec;
    };
    const Setting Settings[] = {
        {"none", ""},
        {"simplify+DCE", "fixpoint(simplify,dce)"},
        {"full", FullNoMem2Reg},
        {"+mem2reg", Mem2RegOnly},
        {"+unroll+gvn", UnrollGvn},
        {"+sroa", ir::defaultPipelineSpec()},
    };
    ir::PipelineStats DefaultStats;
    for (const Setting &Set : Settings) {
      AblationRow Row = measure(Session, *TheApp, W, Set.Spec);
      printRow(Set.Label, Row);
      if (Json)
        recordRow(Records, Name, Set.Label, Row);
      if (Set.Spec == ir::defaultPipelineSpec())
        DefaultStats = Row.PassStats;
    }
    printPassTable(DefaultStats);
    if (Json)
      recordPassRows(Records, Name, DefaultStats);
  }

  std::printf("\nExpected shape: +sroa <= +unroll+gvn <= +mem2reg < full "
              "in dynamic loads and\nenergy, and simplify+DCE < none in "
              "static size, ALU and energy. Every row\nstarts from the "
              "session's promoted kernel, so the private traffic left "
              "in the\nfirst three rows is the transform's own loop "
              "counters and the median/sobel5\nwindow arrays. mem2reg "
              "removes the private traffic store "
              "forwarding\n(block-local) cannot; unroll flattens the "
              "constant-trip filter windows into\nstraight-line blocks "
              "whose collapsed induction arithmetic simplify folds "
              "and\nwhose cross-block recomputations gvn merges; sroa "
              "then splits the\nconstant-indexed window arrays the "
              "folded indices expose into scalars the\nin-fixpoint "
              "mem2reg promotes, and the memory-SSA-widened "
              "gvn/licm/memopt-dse\nclean up the rest -- priv/item "
              "reaches 0.0 on every app in the final row, "
              "with\nbyte-identical outputs (pipeline_oracle_test "
              "certifies this across all nine\napps). Modeled time only "
              "moves for compute-bound kernels; with the default\ndevice "
              "every perforated kernel here stays memory-bound, which "
              "is exactly why\ninput perforation pays off on it.\n");
  if (Json && !writeJsonRecords(JsonPath, Records))
    return 1;
  return 0;
}
