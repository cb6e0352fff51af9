//===- tests/passes_test.cpp - Pass manager and pipeline tests --------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "apps/App.h"
#include "img/Generators.h"
#include "ir/AnalysisManager.h"
#include "ir/Clone.h"
#include "ir/IRBuilder.h"
#include "ir/PassManager.h"
#include "ir/Passes.h"
#include "ir/Verifier.h"
#include "pcl/Compiler.h"
#include "runtime/Session.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace kperf;
using namespace kperf::ir;

namespace {

/// Compiles \p Source and returns the single kernel.
Function *compileKernel(rt::Session &Ctx, const char *Source) {
  Expected<std::vector<Function *>> Fns =
      pcl::compile(Ctx.module(), Source);
  EXPECT_TRUE(static_cast<bool>(Fns)) << Fns.error().message();
  return Fns->front();
}

const char *LoopKernel = R"(
kernel void k(global const float* in, global float* out, int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  float acc = 0.0;
  for (int k = 0; k < 4; k++) {
    acc += in[clamp(y + k, 0, h - 1) * w + x];
  }
  out[y * w + x] = acc;
}
)";

//===----------------------------------------------------------------------===//
// PassRegistry
//===----------------------------------------------------------------------===//

TEST(PassRegistryTest, BuiltinPassesAreRegistered) {
  std::vector<std::string> Names =
      PassRegistry::instance().registeredNames();
  for (const char *Expected :
       {"dce", "gvn", "licm", "mem2reg", "memopt-dse",
        "memopt-forward", "perforate-loop", "simplify", "sroa",
        "unroll"})
    EXPECT_TRUE(PassRegistry::instance().contains(Expected)) << Expected;
  EXPECT_GE(Names.size(), 10u);
  EXPECT_TRUE(std::is_sorted(Names.begin(), Names.end()));
}

TEST(PassRegistryTest, CreateInstantiatesByName) {
  auto P = PassRegistry::instance().create("licm");
  ASSERT_NE(P, nullptr);
  EXPECT_STREQ(P->name(), "licm");
  EXPECT_TRUE(P->preservesCFG());
  EXPECT_EQ(PassRegistry::instance().create("nonexistent"), nullptr);
}

TEST(PassRegistryTest, ParameterizedPassCreation) {
  EXPECT_TRUE(PassRegistry::instance().isParameterized("unroll"));
  EXPECT_TRUE(PassRegistry::instance().isParameterized("perforate-loop"));
  EXPECT_FALSE(PassRegistry::instance().isParameterized("simplify"));
  EXPECT_FALSE(PassRegistry::instance().isParameterized("nonexistent"));
  // Bare creation uses the default budget; explicit budgets also work.
  auto Default = PassRegistry::instance().create("unroll");
  ASSERT_NE(Default, nullptr);
  EXPECT_STREQ(Default->name(), "unroll");
  EXPECT_FALSE(Default->preservesCFG()); // Rewrites the block set.
  auto Small = PassRegistry::instance().create("unroll", 16u);
  ASSERT_NE(Small, nullptr);
  // Stride-parameterized perforation: bare = stride 1 (the no-op).
  auto Perf = PassRegistry::instance().create("perforate-loop", 2u);
  ASSERT_NE(Perf, nullptr);
  EXPECT_STREQ(Perf->name(), "perforate-loop");
  EXPECT_TRUE(Perf->preservesCFG()); // Rewrites steps, never edges.
  // name(N) on a non-parameterized pass has no factory.
  EXPECT_EQ(PassRegistry::instance().create("simplify", 3u), nullptr);
}

//===----------------------------------------------------------------------===//
// Pipeline spec parsing
//===----------------------------------------------------------------------===//

TEST(PipelineParseTest, RoundTripsCanonicalSpecs) {
  for (const char *Spec :
       {"simplify", "simplify,gvn,dce",
        "fixpoint(simplify,gvn,dce)",
        "fixpoint(simplify,gvn,memopt-forward,licm,memopt-dse,dce)",
        "simplify,fixpoint(gvn,dce),licm",
        "fixpoint(simplify,fixpoint(gvn,dce))", "unroll",
        "unroll(256)", "mem2reg,unroll(64),fixpoint(simplify,gvn,dce)",
        "fixpoint(gvn,unroll(512),dce)"}) {
    Expected<PassPipeline> P = PassPipeline::parse(Spec);
    ASSERT_TRUE(static_cast<bool>(P)) << Spec;
    EXPECT_EQ(P->str(), Spec);
  }
}

TEST(PipelineParseTest, NormalizesWhitespace) {
  Expected<PassPipeline> P =
      PassPipeline::parse("  fixpoint( simplify , gvn ) , dce ");
  ASSERT_TRUE(static_cast<bool>(P));
  EXPECT_EQ(P->str(), "fixpoint(simplify,gvn),dce");
}

TEST(PipelineParseTest, EmptySpecIsEmptyPipeline) {
  Expected<PassPipeline> P = PassPipeline::parse("");
  ASSERT_TRUE(static_cast<bool>(P));
  EXPECT_TRUE(P->empty());
  EXPECT_EQ(P->str(), "");
}

TEST(PipelineParseTest, RejectsUnknownPass) {
  Expected<PassPipeline> P = PassPipeline::parse("simplify,frobnicate");
  ASSERT_FALSE(static_cast<bool>(P));
  EXPECT_NE(P.error().message().find("frobnicate"), std::string::npos);
  // The diagnostic lists what is available.
  EXPECT_NE(P.error().message().find("licm"), std::string::npos);
}

TEST(PipelineParseTest, RejectsMalformedSpecs) {
  for (const char *Spec :
       {"fixpoint(", "fixpoint()", "fixpoint(simplify", "simplify,,dce",
        "simplify)", ",simplify", "fixpoint(simplify))",
        // Parameter errors: simplify takes none; unroll needs an int
        // that fits unsigned.
        "simplify(3)", "unroll(", "unroll()", "unroll(abc)",
        "unroll(256", "unroll(4294967296)"}) {
    Expected<PassPipeline> P = PassPipeline::parse(Spec);
    EXPECT_FALSE(static_cast<bool>(P)) << Spec;
  }
}

//===----------------------------------------------------------------------===//
// Pipeline execution and stats
//===----------------------------------------------------------------------===//

TEST(PipelineRunTest, NestedFixpointRunsToCompletion) {
  rt::Session Ctx;
  Function *F = compileKernel(Ctx, LoopKernel);
  Expected<PassPipeline> P =
      PassPipeline::parse("fixpoint(simplify,fixpoint(gvn,dce))");
  ASSERT_TRUE(static_cast<bool>(P));
  Expected<PipelineStats> Stats = P->run(*F, Ctx.module());
  ASSERT_TRUE(static_cast<bool>(Stats));
  EXPECT_GT(Stats->total(), 0u);
  Error E = verifyFunction(*F);
  EXPECT_FALSE(E) << E.message();
  // Rerunning an already-converged pipeline changes nothing.
  Expected<PipelineStats> Again = P->run(*F, Ctx.module());
  ASSERT_TRUE(static_cast<bool>(Again));
  EXPECT_EQ(Again->total(), 0u);
}

TEST(PipelineRunTest, StatsDeriveFromSinglePerPassTable) {
  rt::Session Ctx;
  Function *F = compileKernel(Ctx, LoopKernel);
  PipelineStats Stats = runDefaultPipeline(*F, Ctx.module());

  // total() and changes() of every pass the default spec names are views
  // over the same table; the counters cannot drift from the sum.
  unsigned TableSum = 0;
  for (const PassExecution &E : Stats.Passes)
    TableSum += E.Changes;
  EXPECT_EQ(Stats.total(), TableSum);
  unsigned ByName = 0;
  for (const char *Name :
       {"mem2reg", "sroa", "unroll", "simplify", "gvn", "memopt-forward",
        "licm", "memopt-dse", "dce"})
    ByName += Stats.changes(Name);
  EXPECT_EQ(ByName, Stats.total());
  EXPECT_GT(Stats.total(), 0u);
  // mem2reg promoted the scalar allocas; the k<4 loop fully unrolled.
  EXPECT_GT(Stats.changes("mem2reg"), 0u);
  EXPECT_GT(Stats.changes("unroll"), 0u);
  EXPECT_GE(Stats.Iterations, 2u); // Work round plus the no-change round.

  // unroll runs once ahead of the fixpoint group; mem2reg runs once up
  // front plus once per round (inside the group, after sroa); every
  // other group member ran once per round.
  ASSERT_EQ(Stats.Passes.size(), 9u);
  for (const PassExecution &E : Stats.Passes) {
    unsigned Expected = Stats.Iterations;
    if (E.Name == "unroll")
      Expected = 1;
    else if (E.Name == "mem2reg")
      Expected = 1 + Stats.Iterations;
    EXPECT_EQ(E.Invocations, Expected) << E.Name;
  }
}

TEST(PipelineRunTest, TimingIsRecordedPerPass) {
  rt::Session Ctx;
  Function *F = compileKernel(Ctx, LoopKernel);
  PipelineStats Stats = runDefaultPipeline(*F, Ctx.module());
  double Sum = 0;
  for (const PassExecution &E : Stats.Passes) {
    EXPECT_GE(E.Millis, 0.0) << E.Name;
    Sum += E.Millis;
  }
  EXPECT_DOUBLE_EQ(Stats.totalMillis(), Sum);
}

TEST(PipelineRunTest, VerifyEachPassesOnWellFormedKernels) {
  rt::Session Ctx;
  Function *F = compileKernel(Ctx, LoopKernel);
  Expected<PassPipeline> P = PassPipeline::parse(defaultPipelineSpec());
  ASSERT_TRUE(static_cast<bool>(P));
  PassRunOptions Opts;
  Opts.VerifyEach = true;
  AnalysisManager AM;
  Expected<PipelineStats> Stats = P->run(*F, Ctx.module(), AM, Opts);
  ASSERT_TRUE(static_cast<bool>(Stats)) << Stats.error().message();
  EXPECT_GT(Stats->total(), 0u);
}

TEST(PipelineRunTest, MergeAccumulatesTables) {
  PipelineStats A, B;
  A.entry("gvn").Changes = 3;
  A.entry("gvn").Invocations = 1;
  A.Iterations = 2;
  B.entry("gvn").Changes = 2;
  B.entry("dce").Changes = 5;
  B.Iterations = 1;
  A.merge(B);
  EXPECT_EQ(A.changes("gvn"), 5u);
  EXPECT_EQ(A.changes("dce"), 5u);
  EXPECT_EQ(A.total(), 10u);
  EXPECT_EQ(A.Iterations, 3u);
}

//===----------------------------------------------------------------------===//
// Default pipeline
//===----------------------------------------------------------------------===//

TEST(PipelineTest, ReachesFixpoint) {
  Module M;
  IRBuilder B(M);
  Function *F = M.createFunction("f");
  Argument *Out = F->addArgument(
      Type::pointerTo(ScalarKind::Float, AddressSpace::Global), "out",
      false);
  Argument *W = F->addArgument(Type::intTy(), "w", false);
  B.setInsertPoint(F->createBlock("entry"));
  // (w*1+0) and (w*1) fold to w, exposing a duplicate cast, whose merge
  // leaves dead code -- exercises all three passes interacting.
  Value *X = B.createAdd(B.createMul(W, M.getInt(1)), M.getInt(0));
  Value *Y = B.createMul(W, M.getInt(1));
  B.createStore(B.createIntToFloat(X), B.createGep(Out, M.getInt(0)));
  B.createStore(B.createIntToFloat(Y), B.createGep(Out, M.getInt(1)));
  B.createRet();

  PipelineStats S1 = runDefaultPipeline(*F, M);
  EXPECT_GT(S1.total(), 0u);
  EXPECT_FALSE(verifyFunction(*F));
  // A second run must be a no-op.
  PipelineStats S2 = runDefaultPipeline(*F, M);
  EXPECT_EQ(S2.total(), 0u);
  EXPECT_EQ(S2.Iterations, 1u);
}

TEST(PipelineTest, PreservesKernelSemantics) {
  // Optimizing a freshly compiled kernel must not change its output.
  auto TheApp = apps::makeApp("gaussian");
  apps::Workload Wl = apps::makeImageWorkload(
      img::generateImage(img::ImageClass::Natural, 32, 32, 21));
  std::vector<float> Ref = TheApp->reference(Wl);

  rt::Session Ctx;
  rt::Variant BK = cantFail(TheApp->buildPlain(Ctx, {16, 16}));
  // Optimize and launch a copy of the compiled kernel, not the session's
  // own launch copy, so the run below checks this pipeline run.
  CloneMap Map;
  BK.K = rt::Kernel{
      cloneFunction(Ctx.module(), *BK.K.F, BK.K.name() + ".copy", Map)};
  size_t Before = functionInstructionCount(*BK.K.F);
  PipelineStats S = runDefaultPipeline(*BK.K.F, Ctx.module());
  EXPECT_FALSE(verifyFunction(*BK.K.F));
  EXPECT_LE(functionInstructionCount(*BK.K.F), Before);
  (void)S;

  apps::RunOutcome R = cantFail(TheApp->run(Ctx, BK, Wl));
  ASSERT_EQ(R.Output.size(), Ref.size());
  for (size_t I = 0; I < Ref.size(); ++I)
    ASSERT_NEAR(R.Output[I], Ref[I], 1e-4) << I;
}

TEST(PipelineTest, ShrinksPerforatedKernels) {
  // The perforation transform's generated loader/reconstruction code is
  // where value numbering pays off: the pipeline (already run inside
  // perforate()) must leave no further opportunity, i.e. running it
  // again is a no-op.
  auto TheApp = apps::makeApp("sobel3");
  rt::Session Ctx;
  rt::Variant BK = cantFail(TheApp->buildPerforated(
      Ctx,
      perf::PerforationScheme::rows(2, perf::ReconstructionKind::Linear),
      {16, 16}));
  // Run it on a copy: the session's variant is read-only.
  CloneMap Map;
  Function *Copy =
      cloneFunction(Ctx.module(), *BK.K.F, BK.K.name() + ".copy", Map);
  PipelineStats S = runDefaultPipeline(*Copy, Ctx.module());
  EXPECT_EQ(S.total(), 0u);
}

//===----------------------------------------------------------------------===//
// AnalysisManager: dominator-tree caching and invalidation
//===----------------------------------------------------------------------===//

TEST(AnalysisManagerTest, DominatorTreeIsCachedAcrossQueries) {
  rt::Session Ctx;
  Function *F = compileKernel(Ctx, LoopKernel);
  AnalysisManager AM;
  const DominatorTree &DT1 = AM.getDominatorTree(*F);
  const DominatorTree &DT2 = AM.getDominatorTree(*F);
  EXPECT_EQ(&DT1, &DT2);
  EXPECT_EQ(AM.counters().DomTreeComputes, 1u);
  EXPECT_EQ(AM.counters().DomTreeHits, 1u);
}

TEST(AnalysisManagerTest, CfgPreservingInvalidationKeepsDomTree) {
  rt::Session Ctx;
  Function *F = compileKernel(Ctx, LoopKernel);
  AnalysisManager AM;
  const DominatorTree &DT1 = AM.getDominatorTree(*F);
  const LoopInfo &LI1 = AM.getLoopInfo(*F);
  AM.invalidate(*F, /*CFGPreserved=*/true);
  const DominatorTree &DT2 = AM.getDominatorTree(*F);
  EXPECT_EQ(&DT1, &DT2);
  EXPECT_EQ(AM.counters().DomTreeComputes, 1u);
  // The loops are a CFG fact too: kept with the tree.
  EXPECT_EQ(&LI1, &AM.getLoopInfo(*F));
  EXPECT_EQ(AM.counters().LoopComputes, 1u);
  EXPECT_EQ(AM.counters().LoopHits, 1u);
}

TEST(AnalysisManagerTest, MutatingInvalidationRecomputesCorrectTree) {
  // Build a kernel whose CFG the simplifier rewrites: a condbr on a
  // constant condition collapses to an unconditional branch.
  Module M;
  IRBuilder B(M);
  Function *F = M.createFunction("f");
  Argument *Out = F->addArgument(
      Type::pointerTo(ScalarKind::Float, AddressSpace::Global), "out",
      false);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Then = F->createBlock("then");
  BasicBlock *Else = F->createBlock("else");
  BasicBlock *Join = F->createBlock("join");
  B.setInsertPoint(Entry);
  B.createCondBr(M.getBool(true), Then, Else);
  B.setInsertPoint(Then);
  B.createStore(M.getFloat(1.0f), B.createGep(Out, M.getInt(0)));
  B.createBr(Join);
  B.setInsertPoint(Else);
  B.createStore(M.getFloat(2.0f), B.createGep(Out, M.getInt(0)));
  B.createBr(Join);
  B.setInsertPoint(Join);
  B.createRet();

  AnalysisManager AM;
  const DominatorTree &Before = AM.getDominatorTree(*F);
  EXPECT_TRUE(Before.isReachable(Else));
  EXPECT_EQ(AM.counters().DomTreeComputes, 1u);
  AM.getLoopInfo(*F);
  EXPECT_EQ(AM.counters().LoopComputes, 1u);

  // Run simplify through the pipeline: it folds the branch (a CFG
  // mutation), so the manager must drop the cached tree.
  Expected<PipelineStats> Stats =
      runPipelineSpec(*F, M, AM, "simplify");
  ASSERT_TRUE(static_cast<bool>(Stats));
  EXPECT_GT(Stats->total(), 0u);

  const DominatorTree &After = AM.getDominatorTree(*F);
  EXPECT_EQ(AM.counters().DomTreeComputes, 2u);
  // The loops were dropped with the tree and recompute on the next
  // query.
  AM.getLoopInfo(*F);
  EXPECT_EQ(AM.counters().LoopComputes, 2u);
  EXPECT_EQ(AM.counters().LoopHits, 0u);

  // The recomputed tree matches a fresh recompute on the mutated
  // function block-for-block.
  DominatorTree Fresh = DominatorTree::compute(*F);
  for (const auto &BB : F->blocks()) {
    EXPECT_EQ(After.isReachable(BB.get()), Fresh.isReachable(BB.get()))
        << BB->name();
    EXPECT_EQ(After.idom(BB.get()), Fresh.idom(BB.get())) << BB->name();
  }
  EXPECT_FALSE(After.isReachable(Else)); // else is dead after folding.
}

TEST(AnalysisManagerTest, GenericCacheDropsOnAnyMutation) {
  rt::Session Ctx;
  Function *F = compileKernel(Ctx, LoopKernel);
  AnalysisManager AM;
  struct Summary {
    int Marker;
  };
  AM.cache(*F, Summary{42});
  ASSERT_NE(AM.lookup<Summary>(*F), nullptr);
  EXPECT_EQ(AM.lookup<Summary>(*F)->Marker, 42);
  // Even a CFG-preserving mutation invalidates instruction-sensitive
  // generic entries.
  AM.invalidate(*F, /*CFGPreserved=*/true);
  EXPECT_EQ(AM.lookup<Summary>(*F), nullptr);
}

TEST(AnalysisManagerTest, DomTreeComputedAtMostOncePerFixpointRound) {
  // The acceptance bar for the pass-manager refactor: across the whole
  // default pipeline the dominator tree is computed at most once per
  // fixpoint round (it used to be once per LICM invocation, and LICM
  // recomputed it internally per hoisting wave on top of that).
  rt::Session Ctx;
  Function *F = compileKernel(Ctx, LoopKernel);
  Expected<PassPipeline> P = PassPipeline::parse(defaultPipelineSpec());
  ASSERT_TRUE(static_cast<bool>(P));
  AnalysisManager AM;
  Expected<PipelineStats> Stats = P->run(*F, Ctx.module(), AM);
  ASSERT_TRUE(static_cast<bool>(Stats));
  EXPECT_GE(Stats->Iterations, 2u);
  // One compute for mem2reg, at most one after unroll rewrote the CFG,
  // then the (CFG-preserving) fixpoint group reuses the cache.
  EXPECT_LE(AM.counters().DomTreeComputes, Stats->Iterations + 2);
  // Many passes query the tree (directly, through the dominance
  // frontier, and through memory SSA, which derives both); all queries
  // beyond the computes were cache hits.
  EXPECT_GT(AM.counters().DomTreeHits, AM.counters().DomTreeComputes);
  // The frontier is computed at most twice: once for the up-front
  // mem2reg, once after unroll rewrote the CFG; the fixpoint group is
  // CFG-preserving and reuses it.
  EXPECT_LE(AM.counters().DomFrontierComputes, 2u);
  // Memory SSA is instruction-sensitive, so it recomputes after every
  // pass that changed something -- but the final no-change round serves
  // gvn, licm, and memopt-dse from one walk: hits must show up.
  EXPECT_GT(AM.counters().MemSSAComputes, 0u);
  EXPECT_GT(AM.counters().MemSSAHits, 0u);
}

TEST(AnalysisManagerTest, CfgPreservingPipelineReusesOneTreeAcrossRounds) {
  // In a pipeline of purely CFG-preserving passes the tree is computed
  // exactly once no matter how many rounds run.
  rt::Session Ctx;
  Function *F = compileKernel(Ctx, LoopKernel);
  Expected<PassPipeline> P =
      PassPipeline::parse("fixpoint(gvn,licm,dce)");
  ASSERT_TRUE(static_cast<bool>(P));
  AnalysisManager AM;
  Expected<PipelineStats> Stats = P->run(*F, Ctx.module(), AM);
  ASSERT_TRUE(static_cast<bool>(Stats));
  EXPECT_GE(Stats->Iterations, 2u);
  EXPECT_EQ(AM.counters().DomTreeComputes, 1u);
  // LICM also queries the tree through memory SSA (and its dominance
  // frontier), so hits exceed the one-direct-query-per-round floor.
  EXPECT_GE(AM.counters().DomTreeHits, Stats->Iterations - 1);
  // LICM reads the loops once per round: one compute, then a hit in
  // every later round.
  EXPECT_EQ(AM.counters().LoopComputes, 1u);
  EXPECT_EQ(AM.counters().LoopHits, Stats->Iterations - 1);
}

//===----------------------------------------------------------------------===//
// Compiler integration: post-verify pipeline
//===----------------------------------------------------------------------===//

TEST(CompilerPipelineTest, PostVerifyPipelineOptimizesKernels) {
  rt::Session Plain, Optimized;
  Function *F1 = compileKernel(Plain, LoopKernel);

  pcl::CompileOptions Opts;
  Opts.PipelineSpec = defaultPipelineSpec();
  Opts.VerifyEach = true;
  PipelineStats Stats;
  Opts.Stats = &Stats;
  Expected<std::vector<Function *>> Fns =
      pcl::compile(Optimized.module(), LoopKernel, Opts);
  ASSERT_TRUE(static_cast<bool>(Fns)) << Fns.error().message();
  Function *F2 = Fns->front();

  auto Count = [](const Function &F) {
    size_t N = 0;
    for (const auto &BB : F.blocks())
      N += BB->size();
    return N;
  };
  EXPECT_LT(Count(*F2), Count(*F1));
  EXPECT_GT(Stats.total(), 0u);
  Error E = verifyFunction(*F2);
  EXPECT_FALSE(E) << E.message();
}

} // namespace
