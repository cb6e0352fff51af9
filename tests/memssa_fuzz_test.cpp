//===- tests/memssa_fuzz_test.cpp - Differential kernel fuzzer --------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Randomized differential oracle for the memory-SSA optimization stack:
// a seeded generator emits random PCL kernels exercising exactly the
// shapes sroa / widened mem2reg / memory-SSA GVN / region-local DSE /
// LICM reason about -- private scalars, constant- and variable-indexed
// private arrays, local-memory phases split by barriers, divergent
// stores, constant-trip loops -- and every kernel is compiled twice
// (empty pipeline vs the full default pipeline, verified after every
// pass) and run under both execution tiers. All four runs must
// agree byte for byte on the output buffer and exactly on fault
// behavior. The same seeds also run through two perforating pipelines,
// whose outputs may legitimately differ: there a build must run clean
// wherever the baseline does, agree across tiers and lint error-free.
// A run of >= 200 seeds is cheap (tiny NDRanges) and every failure
// message carries the seed and the generated source, so any miscompile
// reproduces from the log alone.
//
//===----------------------------------------------------------------------===//

#include "gpusim/Interpreter.h"
#include "ir/Lint.h"
#include "ir/PassManager.h"
#include "pcl/Compiler.h"
#include "perforation/Tuner.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <string>
#include <vector>

using namespace kperf;
using namespace kperf::sim;

namespace {

constexpr int GlobalItems = 64; ///< One row of 4 work groups of 16.
constexpr int GroupItems = 16;
constexpr int InputSize = 64;

/// Generates one random kernel. All global accesses are clamped in
/// bounds; private/local indices are clamped to their array's extent
/// (except the deliberate fault payload, see below); divisions use
/// nonzero constants only; sqrt takes fabs'd operands -- so baseline
/// and optimized builds can only diverge through a compiler bug, never
/// through genuinely undefined inputs. Roughly one seed in eight
/// additionally plants a guaranteed out-of-bounds private store behind
/// a divergent branch: both builds must then fault identically (DSE and
/// sroa must refuse to touch it).
class KernelGenerator {
public:
  explicit KernelGenerator(uint64_t Seed) : R(Seed) {}

  /// True if the last generate() planted the out-of-bounds payload (the
  /// static-lint companion test expects an error-severity diagnostic
  /// exactly for these seeds).
  bool plantedFault() const { return Planted; }

  std::string generate() {
    Stmts.clear();
    Floats = {"acc"};
    Arrays.clear();
    NextId = 0;
    Planted = false;

    // One or two private arrays to fuzz sroa/DSE/GVN against.
    unsigned NumArrays = 1 + R.below(2);
    for (unsigned I = 0; I < NumArrays; ++I)
      declareArray();

    unsigned NumStmts = 6 + R.below(7);
    for (unsigned I = 0; I < NumStmts; ++I)
      emitStatement();

    if (R.below(8) == 0 && !Arrays.empty()) {
      // Fault payload: a constant index provably past the end, behind a
      // divergent branch. sroa must refuse the array, DSE must keep the
      // store, and every build/tier must fault the same way. The offset
      // must clear the *whole* private segment, not just this array --
      // the simulator bounds-checks the per-item segment, and a near-OOB
      // write can silently land in a neighboring alloca in the baseline
      // build while faulting in the slimmer optimized one.
      const Arr &A = Arrays[R.below(Arrays.size())];
      Stmts.push_back("if (x == " + std::to_string(R.below(4)) + ") { " +
                      A.Name + "[" + std::to_string(A.Size + 4096) +
                      "] = 1.0; }");
      Planted = true;
    }

    std::string Src;
    Src += "kernel void k(global const float* in, global float* out, "
           "int n) {\n";
    Src += "  int x = get_global_id(0);\n";
    Src += "  int lx = get_local_id(0);\n";
    Src += "  float acc = 0.0;\n";
    for (const std::string &S : Stmts)
      Src += "  " + S + "\n";
    Src += "  out[x] = acc;\n";
    Src += "}\n";
    return Src;
  }

private:
  struct Arr {
    std::string Name;
    int Size;
  };

  std::string fresh(const char *Prefix) {
    return Prefix + std::to_string(NextId++);
  }

  std::string intLit(int Lo, int Hi) {
    return std::to_string(Lo + static_cast<int>(R.below(Hi - Lo + 1)));
  }

  std::string floatLit() {
    return std::to_string(static_cast<int>(R.below(4))) + "." +
           std::to_string(static_cast<int>(R.below(10)));
  }

  /// A well-defined int expression over x, lx, n, and literals.
  std::string intExpr(unsigned Depth) {
    if (Depth == 0)
      return intAtom();
    switch (R.below(6)) {
    case 0:
      return "(" + intExpr(Depth - 1) + " + " + intExpr(Depth - 1) + ")";
    case 1:
      return "(" + intExpr(Depth - 1) + " - " + intExpr(Depth - 1) + ")";
    case 2:
      return "(" + intExpr(Depth - 1) + " * " + intLit(1, 3) + ")";
    case 3:
      return "min(" + intExpr(Depth - 1) + ", " + intExpr(Depth - 1) + ")";
    case 4:
      return "max(" + intExpr(Depth - 1) + ", " + intExpr(Depth - 1) + ")";
    default:
      return intAtom();
    }
  }

  std::string intAtom() {
    switch (R.below(4)) {
    case 0:
      return "x";
    case 1:
      return "lx";
    case 2:
      return "n";
    default:
      return intLit(0, InputSize - 1);
    }
  }

  /// A clamped-in-bounds index expression for an extent of \p Bound.
  std::string index(int Bound) {
    return "clamp(" + intExpr(1 + R.below(2)) + ", 0, " +
           std::to_string(Bound - 1) + ")";
  }

  /// A well-defined float expression over the in-scope values.
  std::string floatExpr(unsigned Depth) {
    if (Depth == 0)
      return floatAtom();
    switch (R.below(8)) {
    case 0:
      return "(" + floatExpr(Depth - 1) + " + " + floatExpr(Depth - 1) +
             ")";
    case 1:
      return "(" + floatExpr(Depth - 1) + " - " + floatExpr(Depth - 1) +
             ")";
    case 2:
      return "(" + floatExpr(Depth - 1) + " * " + floatExpr(Depth - 1) +
             ")";
    case 3:
      return "min(" + floatExpr(Depth - 1) + ", " + floatExpr(Depth - 1) +
             ")";
    case 4:
      return "max(" + floatExpr(Depth - 1) + ", " + floatExpr(Depth - 1) +
             ")";
    case 5:
      return "clamp(" + floatExpr(Depth - 1) + ", 0.0, 8.0)";
    case 6:
      return "sqrt(fabs(" + floatExpr(Depth - 1) + "))";
    default:
      return floatAtom();
    }
  }

  std::string floatAtom() {
    switch (R.below(5)) {
    case 0:
      return floatLit();
    case 1:
      return "in[" + index(InputSize) + "]";
    case 2:
      if (!Arrays.empty()) {
        const Arr &A = Arrays[R.below(Arrays.size())];
        // Constant or runtime element read.
        if (R.below(2) == 0)
          return A.Name + "[" + intLit(0, A.Size - 1) + "]";
        return A.Name + "[" + index(A.Size) + "]";
      }
      return floatLit();
    case 3:
      return "(float)(" + intExpr(1) + ")";
    default:
      return Floats[R.below(Floats.size())];
    }
  }

  void declareArray() {
    static const int Sizes[] = {2, 3, 4, 8};
    Arr A{fresh("a"), Sizes[R.below(4)]};
    Stmts.push_back("float " + A.Name + "[" + std::to_string(A.Size) +
                    "];");
    // Seed a few elements so uninitialized (zero-filled) reads are the
    // exception, not the rule.
    for (int E = 0; E < A.Size && E < 3; ++E)
      Stmts.push_back(A.Name + "[" + std::to_string(E) +
                      "] = " + floatExpr(1) + ";");
    Arrays.push_back(A);
  }

  std::string arrayStore() {
    const Arr &A = Arrays[R.below(Arrays.size())];
    std::string Idx = R.below(2) == 0 ? intLit(0, A.Size - 1)
                                      : index(A.Size);
    return A.Name + "[" + Idx + "] = " + floatExpr(2) + ";";
  }

  void emitStatement() {
    switch (R.below(8)) {
    case 0: { // New scalar.
      std::string N = fresh("f");
      Stmts.push_back("float " + N + " = " + floatExpr(2) + ";");
      Floats.push_back(N);
      break;
    }
    case 1: // Accumulate.
      Stmts.push_back("acc = acc + " + floatExpr(2) + ";");
      break;
    case 2: // Array store (constant or runtime index).
      Stmts.push_back(arrayStore());
      break;
    case 3: { // Divergent store or scalar assignment.
      std::string Cond = intExpr(1) + " < " + intExpr(1);
      std::string Body = R.below(2) == 0
                             ? arrayStore()
                             : Floats[R.below(Floats.size())] + " = " +
                                   floatExpr(1) + ";";
      Stmts.push_back("if (" + Cond + ") { " + Body + " }");
      break;
    }
    case 4: { // Local-memory phase: write own slot, barrier, read a
              // shuffled slot. A fresh tile per phase keeps the phase
              // race-free without a trailing barrier.
      std::string T = fresh("t");
      Stmts.push_back("local float " + T + "[" +
                      std::to_string(GroupItems) + "];");
      Stmts.push_back(T + "[lx] = " + floatExpr(1) + ";");
      Stmts.push_back("barrier();");
      Stmts.push_back("acc = acc + " + T + "[clamp(" +
                      std::to_string(GroupItems - 1) + " - lx, 0, " +
                      std::to_string(GroupItems - 1) + ")];");
      break;
    }
    case 5: { // Constant-trip loader loop over an array prefix.
      const Arr &A = Arrays[R.below(Arrays.size())];
      int Trip = 2 + static_cast<int>(R.below(A.Size - 1));
      std::string I = fresh("i");
      Stmts.push_back("for (int " + I + " = 0; " + I + " < " +
                      std::to_string(Trip) + "; " + I + "++) { " + A.Name +
                      "[" + I + "] = in[clamp(x + " + I + ", 0, " +
                      std::to_string(InputSize - 1) + ")]; }");
      break;
    }
    case 6: { // Constant-trip reduce loop over an array prefix.
      const Arr &A = Arrays[R.below(Arrays.size())];
      int Trip = 2 + static_cast<int>(R.below(A.Size - 1));
      std::string I = fresh("i");
      Stmts.push_back("for (int " + I + " = 0; " + I + " < " +
                      std::to_string(Trip) + "; " + I + "++) { acc = acc + " +
                      A.Name + "[" + I + "] * 0.5; }");
      break;
    }
    default: // Overwriting scalar assignment (DSE food).
      Stmts.push_back(Floats[R.below(Floats.size())] + " = " +
                      floatExpr(2) + ";");
      break;
    }
  }

  Rng R;
  bool Planted = false;
  std::vector<std::string> Stmts;
  std::vector<std::string> Floats;
  std::vector<Arr> Arrays;
  unsigned NextId = 0;
};

const ExecTier Tiers[] = {ExecTier::Tree, ExecTier::Batched};

struct TierRun {
  bool Ok = false;
  std::string Fault;
  std::vector<float> Output;
};

/// Compiles \p Source into \p M under \p Spec, verified after every pass.
Expected<ir::Function *> compileVerified(ir::Module &M,
                                         const std::string &Source,
                                         const std::string &Spec) {
  pcl::CompileOptions Opts;
  Opts.PipelineSpec = Spec;
  Opts.VerifyEach = true;
  return pcl::compileKernel(M, Source, "k", Opts);
}

/// Runs \p F under every tier over identical buffers; one entry per tier.
std::vector<TierRun> runAllTiers(const ir::Function &F,
                                 const std::vector<float> &Input) {
  DeviceConfig Device;
  std::vector<TierRun> Runs;
  for (ExecTier Tier : Tiers) {
    BufferData InBuf, OutBuf(GlobalItems);
    InBuf.uploadFloats(Input);
    std::vector<BufferData *> Bank = {&InBuf, &OutBuf};
    std::vector<KernelArg> Args = {KernelArg::makeBuffer(0),
                                   KernelArg::makeBuffer(1),
                                   KernelArg::makeInt(InputSize)};
    LaunchOptions LOpts;
    LOpts.Tier = Tier;
    Expected<SimReport> Rep = launchKernel(
        F, {GlobalItems, 1}, {GroupItems, 1}, Args, Bank, Device, LOpts);
    TierRun R;
    R.Ok = static_cast<bool>(Rep);
    if (!Rep)
      R.Fault = Rep.error().message();
    R.Output = OutBuf.downloadFloats();
    Runs.push_back(std::move(R));
  }
  return Runs;
}

/// Compiles \p Source under \p Spec and runs it under every tier over
/// identical buffers. Returns one entry per tier, or nullopt-style empty
/// on compile failure (reported by the caller via \p CompileError).
std::vector<TierRun> compileAndRunAllTiers(const std::string &Source,
                                           const std::string &Spec,
                                           const std::vector<float> &Input,
                                           std::string &CompileError) {
  ir::Module M;
  Expected<ir::Function *> F = compileVerified(M, Source, Spec);
  if (!F) {
    CompileError = F.error().message();
    return {};
  }
  return runAllTiers(**F, Input);
}

/// The input buffer of seed \p Seed.
std::vector<float> seedInput(uint64_t Seed) {
  Rng InputRng(Seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<float> Input(InputSize);
  for (float &V : Input)
    V = static_cast<float>(InputRng.below(1024)) * 0.125f - 32.0f;
  return Input;
}

/// Lint options matching the fuzzer's launch geometry.
ir::lint::LintOptions fuzzLintOptions() {
  ir::lint::LintOptions LO;
  LO.Bounds.GlobalSize[0] = GlobalItems;
  LO.Bounds.LocalSize[0] = GroupItems;
  return LO;
}

bool bitIdentical(const std::vector<float> &A, const std::vector<float> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) == 0);
}

/// One differential trial: baseline (empty pipeline) vs the full default
/// pipeline, on every tier.
void runSeed(uint64_t Seed) {
  KernelGenerator G(Seed);
  std::string Source = G.generate();
  SCOPED_TRACE("seed " + std::to_string(Seed) + "\n" + Source);

  std::vector<float> Input = seedInput(Seed);

  std::string BaseErr, OptErr;
  std::vector<TierRun> Base =
      compileAndRunAllTiers(Source, "", Input, BaseErr);
  ASSERT_FALSE(Base.empty()) << "baseline compile failed: " << BaseErr;
  std::vector<TierRun> Opt = compileAndRunAllTiers(
      Source, ir::defaultPipelineSpec(), Input, OptErr);
  ASSERT_FALSE(Opt.empty()) << "optimized compile failed: " << OptErr;

  // Fault behavior must agree across all runs.
  for (size_t T = 0; T < std::size(Tiers); ++T) {
    EXPECT_EQ(Base[0].Ok, Base[T].Ok) << "baseline tier " << T
                                      << " fault mismatch: " << Base[T].Fault;
    EXPECT_EQ(Base[0].Ok, Opt[T].Ok)
        << "optimized tier " << T << " fault mismatch (baseline "
        << (Base[0].Ok ? "ran" : "faulted: " + Base[0].Fault)
        << ", optimized " << (Opt[T].Ok ? "ran" : "faulted: " + Opt[T].Fault)
        << ")";
  }
  if (!Base[0].Ok)
    return; // All faulted alike; partial output bytes are not a contract.

  // Outputs must be byte-identical across pipelines and tiers.
  for (size_t T = 1; T < std::size(Tiers); ++T)
    EXPECT_TRUE(bitIdentical(Base[0].Output, Base[T].Output))
        << "baseline tier " << T << " diverged from the tree walker";
  for (size_t T = 0; T < std::size(Tiers); ++T)
    EXPECT_TRUE(bitIdentical(Base[0].Output, Opt[T].Output))
        << "optimized tier " << T << " diverged from the baseline";
}

} // namespace

TEST(MemSSAFuzzTest, TwoHundredSeedsDifferentiallyIdentical) {
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    runSeed(Seed);
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

TEST(MemSSAFuzzTest, PlantedFaultsAreFlaggedStatically) {
  // The static checker (ir/Lint.h) over the same 200 seeds, after the
  // default pipeline: every planted far-OOB constant-index store must be
  // reported at error severity, and -- the severity contract -- no
  // fault-free kernel may produce any error-severity diagnostic
  // (warnings are fine: the generator deliberately leaves some array
  // elements uninitialized).
  unsigned Planted = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    KernelGenerator G(Seed);
    std::string Source = G.generate();
    SCOPED_TRACE("seed " + std::to_string(Seed) + "\n" + Source);
    ir::Module M;
    pcl::CompileOptions Opts;
    Opts.PipelineSpec = ir::defaultPipelineSpec();
    Expected<ir::Function *> F = pcl::compileKernel(M, Source, "k", Opts);
    ASSERT_TRUE(static_cast<bool>(F)) << F.error().message();
    ir::AnalysisManager AM;
    ir::lint::LintResult R = ir::lint::run(**F, AM, fuzzLintOptions());
    if (G.plantedFault()) {
      ++Planted;
      bool FlaggedOob = false;
      for (const ir::lint::Diagnostic &D : R.Diags)
        FlaggedOob |= D.Sev == ir::lint::Severity::Error && D.Check == "oob";
      EXPECT_TRUE(FlaggedOob)
          << "planted OOB store not flagged; diagnostics:\n" << R.str();
    } else {
      EXPECT_EQ(R.numErrors(), 0u)
          << "false positive on a fault-free kernel:\n" << R.str();
    }
  }
  EXPECT_GT(Planted, 10u); // The 1-in-8 payload actually exercised.
}

TEST(MemSSAFuzzTest, PerforatedBuildsStayFaultFreeAndTierIdentical) {
  // The approximating path on random loops. Perforation may change the
  // output, so robustness is what is checked: wherever the baseline runs
  // clean, the perforated build (verified after every pass) runs clean
  // too, agrees byte for byte across tiers, and lints free of errors.
  const std::string Specs[] = {
      "mem2reg,perforate-loop(2)",
      perf::jointPipelineSpec(ir::defaultPipelineSpec(), 3)};
  unsigned Trials = 0, Changed = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    KernelGenerator G(Seed);
    std::string Source = G.generate();
    SCOPED_TRACE("seed " + std::to_string(Seed) + "\n" + Source);
    std::vector<float> Input = seedInput(Seed);
    std::string BaseErr;
    std::vector<TierRun> Base =
        compileAndRunAllTiers(Source, "", Input, BaseErr);
    ASSERT_FALSE(Base.empty()) << "baseline compile failed: " << BaseErr;
    if (!Base[0].Ok)
      continue;
    for (const std::string &Spec : Specs) {
      SCOPED_TRACE("spec " + Spec);
      ir::Module M;
      Expected<ir::Function *> F = compileVerified(M, Source, Spec);
      ASSERT_TRUE(static_cast<bool>(F)) << F.error().message();
      std::vector<TierRun> Perf = runAllTiers(**F, Input);
      ++Trials;
      for (size_t T = 0; T < std::size(Tiers); ++T)
        EXPECT_TRUE(Perf[T].Ok)
            << "perforated tier " << T << " faulted: " << Perf[T].Fault;
      for (size_t T = 1; T < std::size(Tiers); ++T)
        EXPECT_TRUE(bitIdentical(Perf[0].Output, Perf[T].Output))
            << "perforated tier " << T << " diverged from the tree walker";
      Changed += bitIdentical(Base[0].Output, Perf[0].Output) ? 0 : 1;
      ir::AnalysisManager AM;
      ir::lint::LintResult R = ir::lint::run(**F, AM, fuzzLintOptions());
      EXPECT_EQ(R.numErrors(), 0u) << R.str();
    }
  }
  // Perforation must actually bite, or the checks above are vacuous.
  EXPECT_GT(Changed, 100u) << "of " << Trials << " trials";
}

TEST(MemSSAFuzzTest, GeneratorIsDeterministic) {
  // The seed printed on failure must reproduce the exact kernel.
  EXPECT_EQ(KernelGenerator(42).generate(), KernelGenerator(42).generate());
}
