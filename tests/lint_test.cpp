//===- tests/lint_test.cpp - Range/divergence analyses and lint -------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Unit tests of the two dataflow analyses behind the static kernel
// checker -- interval ranges (refinement, widening, wraparound
// conservatism) and divergence (sync dependence, reconvergence) -- the
// lint diagnostics built on them, the AnalysisManager caching counters,
// the Session lint gate, and the nine-apps-are-diagnostic-free
// regression pinning the severity contract: error-severity means the
// fault is proven, so kernels that run fault-free must produce none.
//
//===----------------------------------------------------------------------===//

#include "apps/App.h"
#include "ir/AnalysisManager.h"
#include "ir/Lint.h"
#include "ir/Passes.h"
#include "pcl/Compiler.h"
#include "runtime/Session.h"

#include <gtest/gtest.h>

using namespace kperf;
using namespace kperf::ir;

namespace {

/// Compiles the single kernel "f" of \p Source under \p Spec.
Function *compileWith(Module &M, const char *Source,
                      const char *Spec = "mem2reg") {
  pcl::CompileOptions Opts;
  Opts.PipelineSpec = Spec;
  Opts.VerifyEach = true;
  Expected<Function *> F = pcl::compileKernel(M, Source, "f", Opts);
  EXPECT_TRUE(static_cast<bool>(F)) << F.error().message();
  return F ? *F : nullptr;
}

const BasicBlock *blockNamed(const Function &F, const std::string &Name) {
  for (const auto &BB : F.blocks())
    if (BB->name() == Name)
      return BB.get();
  ADD_FAILURE() << "no block named " << Name;
  return nullptr;
}

const Instruction *firstInst(const Function &F, Opcode Op) {
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (I->opcode() == Op)
        return I.get();
  ADD_FAILURE() << "no instruction with the requested opcode";
  return nullptr;
}

const Instruction *valueNamed(const Function &F, const std::string &Name) {
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (I->name() == Name)
        return I.get();
  ADD_FAILURE() << "no value named " << Name;
  return nullptr;
}

unsigned countCheck(const lint::LintResult &R, const char *Check,
                    lint::Severity Sev) {
  unsigned N = 0;
  for (const lint::Diagnostic &D : R.Diags)
    N += D.Check == Check && D.Sev == Sev;
  return N;
}

//===----------------------------------------------------------------------===//
// RangeAnalysis
//===----------------------------------------------------------------------===//

TEST(RangeAnalysisTest, WorkItemIdsSeedFromBounds) {
  Module M;
  Function *F = compileWith(M,
                            "kernel void f(global const float* in, "
                            "global float* out, int w, int h) {"
                            "  int x = get_global_id(0);"
                            "  out[x] = in[x];"
                            "}");
  ASSERT_NE(F, nullptr);
  AnalysisManager AM;
  const DominatorTree &DT = AM.getDominatorTree(*F);
  const Instruction *Id = firstInst(*F, Opcode::Call);
  ASSERT_NE(Id, nullptr);

  // Unknown launch: ids are non-negative but unbounded.
  RangeAnalysis Unbounded = RangeAnalysis::compute(*F, DT);
  EXPECT_EQ(Unbounded.rangeOf(Id), Interval::make(0, INT32_MAX));

  NDRangeBounds B;
  B.GlobalSize[0] = 64;
  RangeAnalysis RA = RangeAnalysis::compute(*F, DT, B);
  EXPECT_EQ(RA.rangeOf(Id), Interval::make(0, 63));
}

TEST(RangeAnalysisTest, BranchConditionRefinesDominatedCode) {
  Module M;
  Function *F = compileWith(M,
                            "kernel void f(global const float* in, "
                            "global float* out, int w, int h) {"
                            "  int x = get_global_id(0);"
                            "  if (x < 10) { out[x + 1] = in[x]; }"
                            "}");
  ASSERT_NE(F, nullptr);
  AnalysisManager AM;
  RangeAnalysis RA = RangeAnalysis::compute(*F, AM.getDominatorTree(*F));
  const Instruction *Id = firstInst(*F, Opcode::Call);
  const Instruction *Plus1 = firstInst(*F, Opcode::Add);
  const BasicBlock *Then = blockNamed(*F, "if.then0");
  ASSERT_NE(Id, nullptr);
  ASSERT_NE(Plus1, nullptr);
  ASSERT_NE(Then, nullptr);

  // Flow-insensitive: only the id's own non-negativity.
  EXPECT_EQ(RA.rangeOf(Id), Interval::make(0, INT32_MAX));
  // Inside the taken edge the condition holds, and the refinement
  // reaches derived expressions: x in [0,9], x+1 in [1,10].
  EXPECT_EQ(RA.rangeAt(Id, Then), Interval::make(0, 9));
  EXPECT_EQ(RA.rangeAt(Plus1, Then), Interval::make(1, 10));
}

TEST(RangeAnalysisTest, LoopPhiWidensInsteadOfIterating) {
  Module M;
  Function *F = compileWith(M,
                            "kernel void f(global const float* in, "
                            "global float* out, int w, int h) {"
                            "  int x = get_global_id(0);"
                            "  float acc = 0.0;"
                            "  for (int i = 0; i < w; i++) {"
                            "    acc = acc + in[clamp(i, 0, 63)];"
                            "  }"
                            "  out[x] = acc;"
                            "}");
  ASSERT_NE(F, nullptr);
  AnalysisManager AM;
  RangeAnalysis RA = RangeAnalysis::compute(*F, AM.getDominatorTree(*F));
  const Instruction *I = valueNamed(*F, "i");
  ASSERT_NE(I, nullptr);
  ASSERT_EQ(I->opcode(), Opcode::Phi);

  // The stable bound survives widening, the growing one jumps to the
  // int32 extreme (w's range gives the exit test no finite cap).
  EXPECT_EQ(RA.rangeOf(I), Interval::make(0, INT32_MAX));
  // In the body the i < w refinement shaves the upper bound: i can
  // never equal INT32_MAX there (w <= INT32_MAX means i <= max-1).
  Interval AtBody = RA.rangeAt(I, blockNamed(*F, "for.body0"));
  EXPECT_EQ(AtBody.Lo, 0);
  EXPECT_LT(AtBody.Hi, INT32_MAX);
}

TEST(RangeAnalysisTest, OverflowCollapsesToFullRange) {
  Module M;
  Function *F = compileWith(M,
                            "kernel void f(global const float* in, "
                            "global float* out, int w, int h) {"
                            "  int x = get_global_id(0);"
                            "  int y = x + x;"
                            "  out[clamp(y, 0, 63)] = 1.0;"
                            "}");
  ASSERT_NE(F, nullptr);
  AnalysisManager AM;
  RangeAnalysis RA = RangeAnalysis::compute(*F, AM.getDominatorTree(*F));
  // x in [0, INT32_MAX], so x+x can wrap anywhere: the sound answer is
  // the full range (negatives included), not a clamped [0, INT32_MAX].
  const Instruction *Y = firstInst(*F, Opcode::Add);
  ASSERT_NE(Y, nullptr);
  EXPECT_TRUE(RA.rangeOf(Y).isFull());
  // The clamp restores an informative range.
  for (const auto &BB : F->blocks())
    for (const auto &I : BB->instructions())
      if (I->opcode() == Opcode::Call && I->callee() == Builtin::Clamp) {
        EXPECT_EQ(RA.rangeOf(I.get()), Interval::make(0, 63));
      }
}

//===----------------------------------------------------------------------===//
// DivergenceAnalysis
//===----------------------------------------------------------------------===//

TEST(DivergenceAnalysisTest, IdsDivergeUniformArgumentsDoNot) {
  Module M;
  Function *F = compileWith(M,
                            "kernel void f(global const float* in, "
                            "global float* out, int w, int h) {"
                            "  int l = get_local_id(0);"
                            "  out[l] = (float)(w + 3);"
                            "}");
  ASSERT_NE(F, nullptr);
  DivergenceAnalysis DA = DivergenceAnalysis::compute(*F);
  const Instruction *L = firstInst(*F, Opcode::Call);
  const Instruction *WPlus3 = firstInst(*F, Opcode::Add);
  ASSERT_NE(L, nullptr);
  ASSERT_NE(WPlus3, nullptr);
  EXPECT_TRUE(DA.isDivergent(L));
  EXPECT_TRUE(DA.isUniform(WPlus3)); // Argument arithmetic.
}

TEST(DivergenceAnalysisTest, SyncDependenceMakesPhiDivergent) {
  Module M;
  Function *F = compileWith(M,
                            "kernel void f(global const float* in, "
                            "global float* out, int w, int h) {"
                            "  int l = get_local_id(0);"
                            "  int v = 0;"
                            "  if (l < 2) { v = 1; }"
                            "  out[get_global_id(0)] = (float)v;"
                            "}");
  ASSERT_NE(F, nullptr);
  DivergenceAnalysis DA = DivergenceAnalysis::compute(*F);
  const Instruction *V = valueNamed(*F, "v");
  ASSERT_NE(V, nullptr);
  ASSERT_EQ(V->opcode(), Opcode::Phi);
  // Both incomings are constants; only the arrival edge differs per
  // item -- the phi is divergent purely through sync dependence.
  EXPECT_TRUE(DA.isDivergent(V));
}

TEST(DivergenceAnalysisTest, ControlReconvergesAtThePostDominator) {
  Module M;
  Function *F = compileWith(M,
                            "kernel void f(global const float* in, "
                            "global float* out, int w, int h) {"
                            "  int l = get_local_id(0);"
                            "  int v = 0;"
                            "  if (l < 2) { v = 1; }"
                            "  out[get_global_id(0)] = (float)v;"
                            "}");
  ASSERT_NE(F, nullptr);
  DivergenceAnalysis DA = DivergenceAnalysis::compute(*F);
  // The guarded block is divergently executed; the join block is not --
  // every item reaches the post-dominator again.
  EXPECT_TRUE(DA.isDivergentBlock(blockNamed(*F, "if.then0")));
  EXPECT_FALSE(DA.isDivergentBlock(blockNamed(*F, "if.end0")));
  EXPECT_FALSE(DA.isDivergentBlock(blockNamed(*F, "entry")));
  EXPECT_FALSE(DA.hasUniformBranch(blockNamed(*F, "entry")));
}

TEST(DivergenceAnalysisTest, ArgumentBranchIsUniform) {
  Module M;
  Function *F = compileWith(M,
                            "kernel void f(global const float* in, "
                            "global float* out, int w, int h) {"
                            "  int x = get_global_id(0);"
                            "  if (w > 10) { out[x] = in[x]; }"
                            "}");
  ASSERT_NE(F, nullptr);
  DivergenceAnalysis DA = DivergenceAnalysis::compute(*F);
  EXPECT_TRUE(DA.hasUniformBranch(blockNamed(*F, "entry")));
  // Every item takes the same edge: the guarded block is not divergent.
  EXPECT_FALSE(DA.isDivergentBlock(blockNamed(*F, "if.then0")));
}

//===----------------------------------------------------------------------===//
// Lint diagnostics
//===----------------------------------------------------------------------===//

TEST(LintTest, DivergentBarrierIsAnError) {
  Module M;
  Function *F = compileWith(M,
                            "kernel void f(global const float* in, "
                            "global float* out, int w) {"
                            "  int l = get_local_id(0);"
                            "  if (l < 2) { barrier(); }"
                            "  out[get_global_id(0)] = in[clamp(l, 0, 7)];"
                            "}",
                            "mem2reg,fixpoint(simplify,sroa,mem2reg,gvn,"
                            "memopt-forward,licm,memopt-dse,dce)");
  ASSERT_NE(F, nullptr);
  AnalysisManager AM;
  lint::LintResult R = lint::run(*F, AM);
  EXPECT_EQ(countCheck(R, "divergent-barrier", lint::Severity::Error), 1u)
      << R.str();
  EXPECT_TRUE(R.hasErrors());
}

TEST(LintTest, UniformAndReconvergedBarriersAreClean) {
  Module M;
  Function *F = compileWith(M,
                            "kernel void f(global const float* in, "
                            "global float* out, int w) {"
                            "  int l = get_local_id(0);"
                            "  local float t[16];"
                            "  t[l] = in[clamp(l, 0, 63)];"
                            "  if (w > 10) { barrier(); }"  // Uniform guard.
                            "  if (l < 2) { t[l] = 0.0; }"
                            "  barrier();"                  // Post-join.
                            "  out[get_global_id(0)] = t[15 - l];"
                            "}");
  ASSERT_NE(F, nullptr);
  AnalysisManager AM;
  lint::LintResult R = lint::run(*F, AM);
  EXPECT_EQ(countCheck(R, "divergent-barrier", lint::Severity::Error), 0u)
      << R.str();
}

TEST(LintTest, ConstantOobStoreIsAnError) {
  Module M;
  Function *F = compileWith(M,
                            "kernel void f(global const float* in, "
                            "global float* out, int w) {"
                            "  float p[8];"
                            "  int x = get_global_id(0);"
                            "  p[0] = in[clamp(x, 0, 63)];"
                            "  p[8200] = 3.0;"
                            "  out[x] = p[0];"
                            "}",
                            ir::defaultPipelineSpec());
  ASSERT_NE(F, nullptr);
  AnalysisManager AM;
  lint::LintResult R = lint::run(*F, AM);
  EXPECT_EQ(countCheck(R, "oob", lint::Severity::Error), 1u) << R.str();
}

TEST(LintTest, PossiblyOobIndexIsAWarning) {
  Module M;
  Function *F = compileWith(M,
                            "kernel void f(global const float* in, "
                            "global float* out, int w) {"
                            "  float p[8];"
                            "  int x = get_global_id(0);"
                            "  p[clamp(x, 0, 10)] = in[clamp(x, 0, 63)];"
                            "  out[x] = p[clamp(x, 0, 7)];"
                            "}");
  ASSERT_NE(F, nullptr);
  AnalysisManager AM;
  lint::LintResult R = lint::run(*F, AM);
  // [0,10] exceeds p[0..7] but overlaps it: unproven, so a warning.
  EXPECT_EQ(countCheck(R, "oob", lint::Severity::Warning), 1u) << R.str();
  EXPECT_EQ(R.numErrors(), 0u) << R.str();
}

TEST(LintTest, NegativeGlobalIndexIsAnError) {
  Module M;
  Function *F = compileWith(M,
                            "kernel void f(global const float* in, "
                            "global float* out, int w) {"
                            "  int m = 0 - 5;"
                            "  out[m] = 1.0;"
                            "}");
  ASSERT_NE(F, nullptr);
  AnalysisManager AM;
  lint::LintResult R = lint::run(*F, AM);
  EXPECT_EQ(countCheck(R, "oob", lint::Severity::Error), 1u) << R.str();
}

TEST(LintTest, DivByZeroSeverityTracksTheDivisorRange) {
  Module M;
  // Divisor provably zero: error. Divisor [0,4]: possible, warning.
  // Fully-unknown divisor (w): quiet.
  Function *F = compileWith(M,
                            "kernel void f(global const float* in, "
                            "global float* out, int w) {"
                            "  int x = get_global_id(0);"
                            "  int z = w * 0;"
                            "  int a = x / z;"
                            "  int b = x / clamp(w, 0, 4);"
                            "  int c = x / w;"
                            "  out[clamp(a + b + c, 0, 63)] = 1.0;"
                            "}");
  ASSERT_NE(F, nullptr);
  AnalysisManager AM;
  lint::LintResult R = lint::run(*F, AM);
  EXPECT_EQ(countCheck(R, "div-by-zero", lint::Severity::Error), 1u)
      << R.str();
  EXPECT_EQ(countCheck(R, "div-by-zero", lint::Severity::Warning), 1u)
      << R.str();
}

TEST(LintTest, UninitializedPrivateLoadIsAWarning) {
  Module M;
  Function *F = compileWith(M,
                            "kernel void f(global const float* in, "
                            "global float* out, int w) {"
                            "  float p[4];"
                            "  int x = get_global_id(0);"
                            "  out[x] = p[2];"
                            "}");
  ASSERT_NE(F, nullptr);
  AnalysisManager AM;
  lint::LintResult R = lint::run(*F, AM);
  EXPECT_EQ(countCheck(R, "uninit-private", lint::Severity::Warning), 1u)
      << R.str();
}

TEST(LintTest, UnsynchronizedLocalAccessesWarnButTileIdiomIsClean) {
  Module M;
  // Write t[l] and read t[15-l] with no barrier in between: a possible
  // read-write race.
  Function *Racy = compileWith(M,
                               "kernel void f(global const float* in, "
                               "global float* out, int w) {"
                               "  int l = get_local_id(0);"
                               "  local float t[16];"
                               "  t[l] = in[clamp(l, 0, 63)];"
                               "  out[get_global_id(0)] = t[15 - l];"
                               "}");
  ASSERT_NE(Racy, nullptr);
  AnalysisManager AM;
  lint::LintResult R = lint::run(*Racy, AM);
  EXPECT_GE(countCheck(R, "local-race", lint::Severity::Warning), 1u)
      << R.str();
  EXPECT_EQ(R.numErrors(), 0u) << R.str();

  // The same pattern with the barrier is the cooperative tile idiom.
  pcl::CompileOptions Opts;
  Opts.PipelineSpec = "mem2reg";
  Expected<Function *> G = pcl::compileKernel(
      M,
      "kernel void g(global const float* in, global float* out, int w) {"
      "  int l = get_local_id(0);"
      "  local float t[16];"
      "  t[l] = in[clamp(l, 0, 63)];"
      "  barrier();"
      "  out[get_global_id(0)] = t[15 - l];"
      "}",
      "g", Opts);
  ASSERT_TRUE(static_cast<bool>(G)) << G.error().message();
  lint::LintResult RG = lint::run(**G, AM);
  EXPECT_EQ(countCheck(RG, "local-race", lint::Severity::Warning), 0u)
      << RG.str();
}

//===----------------------------------------------------------------------===//
// AnalysisManager caching
//===----------------------------------------------------------------------===//

TEST(AnalysisCachingTest, RangeAndDivergenceAreCachedAndCounted) {
  Module M;
  Function *F = compileWith(M,
                            "kernel void f(global const float* in, "
                            "global float* out, int w) {"
                            "  int x = get_global_id(0);"
                            "  out[x] = in[clamp(x, 0, 63)];"
                            "}");
  ASSERT_NE(F, nullptr);
  AnalysisManager AM;
  AM.getRangeAnalysis(*F);
  AM.getRangeAnalysis(*F); // Hit.
  NDRangeBounds B;
  B.LocalSize[0] = 16;
  AM.getRangeAnalysis(*F, B); // Different bounds: recompute.
  AM.getRangeAnalysis(*F, B); // Hit again.
  AM.getDivergenceAnalysis(*F);
  AM.getDivergenceAnalysis(*F); // Hit.
  EXPECT_EQ(AM.counters().RangeComputes, 2u);
  EXPECT_EQ(AM.counters().RangeHits, 2u);
  EXPECT_EQ(AM.counters().DivComputes, 1u);
  EXPECT_EQ(AM.counters().DivHits, 1u);

  // Both are instruction-sensitive: any invalidation drops them, even a
  // CFG-preserving one.
  AM.invalidate(*F, /*CFGPreserved=*/true);
  AM.getRangeAnalysis(*F, B);
  AM.getDivergenceAnalysis(*F);
  EXPECT_EQ(AM.counters().RangeComputes, 3u);
  EXPECT_EQ(AM.counters().DivComputes, 2u);

  // The stats line carries all five analyses.
  std::string S = AM.counters().str();
  EXPECT_NE(S.find("range 3/2"), std::string::npos) << S;
  EXPECT_NE(S.find("divergence 2/1"), std::string::npos) << S;
}

//===----------------------------------------------------------------------===//
// Session lint gate and the apps regression
//===----------------------------------------------------------------------===//

TEST(LintGateTest, GatePassesEveryGeneratedVariant) {
  // The gate must never reject what the transform generates: perforated
  // kernels (local prefetch, barriers, clamped tile indexing) are
  // exactly the shapes the checks were tuned against.
  rt::Session S;
  EXPECT_FALSE(S.lintGate()); // Off by default.
  S.setLintGate(true);
  auto Apps = apps::makeAllApps();
  ASSERT_FALSE(Apps.empty());
  for (const auto &A : Apps) {
    Expected<rt::Variant> V = A->buildPerforated(
        S, perf::PerforationScheme::rows(
               2, perf::ReconstructionKind::NearestNeighbor),
        {16, 16});
    EXPECT_TRUE(static_cast<bool>(V))
        << A->name() << ": " << V.error().message();
  }
}

TEST(LintAppsTest, AllNineAppsAreDiagnosticFree) {
  // Acceptance regression: every app kernel, compiled under the default
  // pipeline, produces zero diagnostics -- not even warnings. The suite
  // runs fault-free, so any error here is a false positive by
  // construction; warnings would spam every `kperfc lint` run.
  auto Apps = apps::makeAllApps();
  auto Ext = apps::makeExtensionApps();
  for (auto &A : Ext)
    Apps.push_back(std::move(A));
  ASSERT_EQ(Apps.size(), 9u);
  for (const auto &A : Apps) {
    rt::Session S;
    pcl::CompileOptions CO;
    CO.PipelineSpec = ir::defaultPipelineSpec();
    Expected<std::vector<rt::Kernel>> Kernels =
        S.compileAll(A->source(), CO);
    ASSERT_TRUE(static_cast<bool>(Kernels))
        << A->name() << ": " << Kernels.error().message();
    lint::LintOptions LO;
    LO.Bounds.LocalSize[0] = 16;
    LO.Bounds.LocalSize[1] = 16;
    for (const rt::Kernel &K : *Kernels) {
      lint::LintResult R = lint::run(*K.F, S.analyses(), LO);
      EXPECT_TRUE(R.Diags.empty())
          << A->name() << "/" << K.name() << ":\n" << R.str();
    }
  }
}

} // namespace
