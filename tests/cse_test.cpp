//===- tests/cse_test.cpp - common subexpression elimination tests ----------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "apps/App.h"
#include "img/Generators.h"
#include "ir/CSE.h"
#include "ir/DCE.h"
#include "ir/IRBuilder.h"
#include "ir/Passes.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace kperf;
using namespace kperf::ir;

namespace {

/// Counts all instructions in \p F.
size_t instructionCount(const Function &F) {
  size_t N = 0;
  for (const auto &BB : F.blocks())
    N += BB->size();
  return N;
}

/// Fixture with two global float* arguments and one int argument, plus an
/// open entry block.
class CseTest : public ::testing::Test {
protected:
  CseTest() : B(M) {
    F = M.createFunction("f");
    In = F->addArgument(
        Type::pointerTo(ScalarKind::Float, AddressSpace::Global), "in",
        true);
    Out = F->addArgument(
        Type::pointerTo(ScalarKind::Float, AddressSpace::Global), "out",
        false);
    W = F->addArgument(Type::intTy(), "w", false);
    Entry = F->createBlock("entry");
    B.setInsertPoint(Entry);
  }

  /// Terminates, runs CSE + DCE, verifies, and returns (merged, final
  /// instruction count).
  std::pair<unsigned, size_t> finish() {
    B.createRet();
    unsigned Merged = eliminateCommonSubexpressions(*F);
    eliminateDeadCode(*F);
    Error E = verifyFunction(*F);
    EXPECT_FALSE(E) << E.message();
    return {Merged, instructionCount(*F)};
  }

  /// Keeps \p V alive by storing it to out[Slot].
  void keep(Value *V, int Slot) {
    B.createStore(V, B.createGep(Out, M.getInt(Slot)));
  }

  Module M;
  Function *F = nullptr;
  Argument *In = nullptr;
  Argument *Out = nullptr;
  Argument *W = nullptr;
  BasicBlock *Entry = nullptr;
  IRBuilder B;
};

TEST_F(CseTest, MergesIdenticalArithmetic) {
  Value *A = B.createMul(W, M.getInt(3), "a");
  Value *A2 = B.createMul(W, M.getInt(3), "a2");
  keep(B.createIntToFloat(A), 0);
  keep(B.createIntToFloat(A2), 1);
  auto [Merged, Count] = finish();
  // The mul merges, and the second cast becomes a duplicate once its
  // operand is redirected, so it merges too.
  EXPECT_EQ(Merged, 2u);
  // mul, cast, gep x2, store x2, ret.
  EXPECT_EQ(Count, 7u);
}

TEST_F(CseTest, CommutativeOperandsCanonicalize) {
  Value *X = B.createAdd(W, M.getInt(7), "x");
  Value *Y = B.createAdd(M.getInt(7), W, "y"); // Swapped operands.
  keep(B.createIntToFloat(X), 0);
  keep(B.createIntToFloat(Y), 1);
  auto [Merged, Count] = finish();
  (void)Count;
  EXPECT_EQ(Merged, 2u); // Both the add and the dependent cast.
}

TEST_F(CseTest, NonCommutativeOperandsDoNotCanonicalize) {
  Value *X = B.createSub(W, M.getInt(7), "x");
  Value *Y = B.createSub(M.getInt(7), W, "y");
  keep(B.createIntToFloat(X), 0);
  keep(B.createIntToFloat(Y), 1);
  auto [Merged, Count] = finish();
  (void)Count;
  EXPECT_EQ(Merged, 0u);
}

TEST_F(CseTest, MergesCommutativeMinMaxCalls) {
  Value *A = B.createCall(Builtin::Min, {W, M.getInt(5)}, "a");
  Value *C = B.createCall(Builtin::Min, {M.getInt(5), W}, "c");
  keep(B.createIntToFloat(A), 0);
  keep(B.createIntToFloat(C), 1);
  auto [Merged, Count] = finish();
  (void)Count;
  EXPECT_EQ(Merged, 2u);
}

TEST_F(CseTest, MergesWorkItemQueries) {
  Value *G0 = B.createCall(Builtin::GetGlobalId, {M.getInt(0)}, "g0");
  Value *G0b = B.createCall(Builtin::GetGlobalId, {M.getInt(0)}, "g0b");
  Value *G1 = B.createCall(Builtin::GetGlobalId, {M.getInt(1)}, "g1");
  keep(B.createIntToFloat(B.createAdd(G0, G0b)), 0);
  keep(B.createIntToFloat(G1), 1);
  auto [Merged, Count] = finish();
  (void)Count;
  EXPECT_EQ(Merged, 1u); // Same dimension merges, other dimension stays.
}

TEST_F(CseTest, BarriersNeverMerge) {
  B.createCall(Builtin::Barrier, {}, "");
  B.createCall(Builtin::Barrier, {}, "");
  B.createRet();
  EXPECT_EQ(eliminateCommonSubexpressions(*F), 0u);
  unsigned Barriers = 0;
  for (const auto &I : Entry->instructions())
    if (I->opcode() == Opcode::Call && I->callee() == Builtin::Barrier)
      ++Barriers;
  EXPECT_EQ(Barriers, 2u);
}

TEST_F(CseTest, MergesRepeatedLoads) {
  Value *P = B.createGep(In, M.getInt(4), "p");
  Value *L1 = B.createLoad(P, "l1");
  Value *L2 = B.createLoad(P, "l2");
  keep(B.createAdd(L1, L2), 0);
  auto [Merged, Count] = finish();
  EXPECT_EQ(Merged, 1u);
  // gep, load, add, gep, store, ret.
  EXPECT_EQ(Count, 6u);
}

TEST_F(CseTest, MergesLoadsThroughDuplicateGeps) {
  // Distinct gep instructions computing the same address: the geps merge
  // first, which then lets the loads merge.
  Value *L1 = B.createLoad(B.createGep(In, M.getInt(4), "p1"), "l1");
  Value *L2 = B.createLoad(B.createGep(In, M.getInt(4), "p2"), "l2");
  keep(B.createAdd(L1, L2), 0);
  auto [Merged, Count] = finish();
  (void)Count;
  EXPECT_EQ(Merged, 2u);
}

TEST_F(CseTest, StoreThroughArgumentKillsArgumentLoads) {
  Value *P = B.createGep(In, M.getInt(4), "p");
  Value *L1 = B.createLoad(P, "l1");
  keep(L1, 0); // Store through 'out' -- may alias 'in' on the host.
  Value *L2 = B.createLoad(P, "l2");
  keep(L2, 1);
  auto [Merged, Count] = finish();
  (void)Count;
  EXPECT_EQ(Merged, 0u);
}

TEST_F(CseTest, StoreToPrivateAllocaKeepsArgumentLoads) {
  Value *A =
      B.createAlloca(ScalarKind::Float, 1, AddressSpace::Private, "tmp");
  Value *P = B.createGep(In, M.getInt(4), "p");
  Value *L1 = B.createLoad(P, "l1");
  B.createStore(L1, B.createGep(A, M.getInt(0)));
  Value *L2 = B.createLoad(P, "l2"); // Still valid: allocas never alias
  keep(L2, 0);                       // arguments.
  auto [Merged, Count] = finish();
  (void)Count;
  EXPECT_EQ(Merged, 1u);
}

TEST_F(CseTest, StoreToOneAllocaKeepsOtherAllocaLoads) {
  Value *A =
      B.createAlloca(ScalarKind::Float, 1, AddressSpace::Private, "a");
  Value *C =
      B.createAlloca(ScalarKind::Float, 1, AddressSpace::Private, "c");
  Value *PA = B.createGep(A, M.getInt(0), "pa");
  Value *PC = B.createGep(C, M.getInt(0), "pc");
  B.createStore(M.getFloat(1.0f), PA);
  B.createStore(M.getFloat(2.0f), PC);
  Value *L1 = B.createLoad(PA, "l1");
  B.createStore(M.getFloat(3.0f), PC); // Unrelated alloca.
  Value *L2 = B.createLoad(PA, "l2");
  keep(B.createAdd(L1, L2), 0);
  auto [Merged, Count] = finish();
  (void)Count;
  EXPECT_EQ(Merged, 1u);
}

TEST_F(CseTest, StoreToSameAllocaKillsItsLoads) {
  Value *A =
      B.createAlloca(ScalarKind::Float, 1, AddressSpace::Private, "a");
  Value *PA = B.createGep(A, M.getInt(0), "pa");
  B.createStore(M.getFloat(1.0f), PA);
  Value *L1 = B.createLoad(PA, "l1");
  B.createStore(M.getFloat(2.0f), PA);
  Value *L2 = B.createLoad(PA, "l2");
  keep(B.createAdd(L1, L2), 0);
  auto [Merged, Count] = finish();
  (void)Count;
  EXPECT_EQ(Merged, 0u);
}

TEST_F(CseTest, BarrierKillsSharedLoadsButNotPrivate) {
  Value *Priv =
      B.createAlloca(ScalarKind::Float, 1, AddressSpace::Private, "priv");
  Value *Loc =
      B.createAlloca(ScalarKind::Float, 4, AddressSpace::Local, "loc");
  Value *PPriv = B.createGep(Priv, M.getInt(0), "pp");
  Value *PLoc = B.createGep(Loc, M.getInt(0), "pl");
  Value *PArg = B.createGep(In, M.getInt(0), "pa");
  B.createStore(M.getFloat(1.0f), PPriv);
  B.createStore(M.getFloat(2.0f), PLoc);
  Value *Priv1 = B.createLoad(PPriv, "priv1");
  Value *Loc1 = B.createLoad(PLoc, "loc1");
  Value *Arg1 = B.createLoad(PArg, "arg1");
  B.createCall(Builtin::Barrier, {}, "");
  Value *Priv2 = B.createLoad(PPriv, "priv2"); // Merges: private memory.
  Value *Loc2 = B.createLoad(PLoc, "loc2");    // Killed: other items write.
  Value *Arg2 = B.createLoad(PArg, "arg2");    // Killed likewise.
  keep(B.createAdd(B.createAdd(Priv1, Loc1), Arg1), 0);
  keep(B.createAdd(B.createAdd(Priv2, Loc2), Arg2), 1);
  auto [Merged, Count] = finish();
  (void)Count;
  EXPECT_EQ(Merged, 1u);
}

TEST_F(CseTest, ChainedDuplicatesCollapseInOnePass) {
  // ((w*3)+1)*5 twice: all three levels merge in a single invocation.
  auto Chain = [&](const char *Tag) {
    Value *V = B.createMul(W, M.getInt(3), std::string(Tag) + ".m");
    V = B.createAdd(V, M.getInt(1), std::string(Tag) + ".a");
    return B.createMul(V, M.getInt(5), std::string(Tag) + ".m2");
  };
  Value *C1 = Chain("x");
  Value *C2 = Chain("y");
  keep(B.createIntToFloat(C1), 0);
  keep(B.createIntToFloat(C2), 1);
  unsigned Merged = eliminateCommonSubexpressions(*F);
  EXPECT_EQ(Merged, 4u); // Three chain levels + the dependent cast.
}

TEST_F(CseTest, CrossBlockUsesAreRedirected) {
  Value *A = B.createMul(W, M.getInt(3), "a");
  Value *A2 = B.createMul(W, M.getInt(3), "a2");
  BasicBlock *Next = F->createBlock("next");
  B.createBr(Next);
  B.setInsertPoint(Next);
  keep(B.createIntToFloat(A), 0);
  keep(B.createIntToFloat(A2), 1); // Uses the duplicate from 'entry'.
  auto [Merged, Count] = finish();
  // The entry-block mul merges; the casts live in 'next' where the
  // redirected operands make the second cast a duplicate as well.
  EXPECT_EQ(Merged, 2u);
  (void)Count;
  // After DCE the duplicate mul is gone; verify() already checked
  // def-before-use of the redirected operand.
  unsigned Muls = 0;
  for (const auto &BB : F->blocks())
    for (const auto &I : BB->instructions())
      if (I->opcode() == Opcode::Mul)
        ++Muls;
  EXPECT_EQ(Muls, 1u);
}

TEST_F(CseTest, NoMergeAcrossBlocks) {
  // Value numbering is block-local by design: the same expression in two
  // blocks stays duplicated (merging would require dominance analysis).
  Value *A = B.createMul(W, M.getInt(3), "a");
  keep(B.createIntToFloat(A), 0);
  BasicBlock *Next = F->createBlock("next");
  B.createBr(Next);
  B.setInsertPoint(Next);
  Value *A2 = B.createMul(W, M.getInt(3), "a2");
  keep(B.createIntToFloat(A2), 1);
  auto [Merged, Count] = finish();
  (void)Count;
  EXPECT_EQ(Merged, 0u);
}

TEST_F(CseTest, SelectsAndGepsMerge) {
  Value *Cond = B.createCmp(Opcode::CmpLt, W, M.getInt(8), "c");
  Value *S1 = B.createSelect(Cond, M.getInt(1), M.getInt(2), "s1");
  Value *S2 = B.createSelect(Cond, M.getInt(1), M.getInt(2), "s2");
  keep(B.createIntToFloat(B.createAdd(S1, S2)), 0);
  auto [Merged, Count] = finish();
  (void)Count;
  EXPECT_GE(Merged, 1u);
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
  // Launch the optimized frontend kernel itself, not the session's own
  // launch copy, so the run below checks this pipeline run.
  BK.K = rt::Kernel{BK.K.F};
  size_t Before = instructionCount(*BK.K.F);
  PipelineStats S = runDefaultPipeline(*BK.K.F, Ctx.module());
  EXPECT_FALSE(verifyFunction(*BK.K.F));
  EXPECT_LE(instructionCount(*BK.K.F), Before);
  (void)S;

  apps::RunOutcome R = cantFail(TheApp->run(Ctx, BK, Wl));
  ASSERT_EQ(R.Output.size(), Ref.size());
  for (size_t I = 0; I < Ref.size(); ++I)
    ASSERT_NEAR(R.Output[I], Ref[I], 1e-4) << I;
}

TEST(PipelineTest, ShrinksPerforatedKernels) {
  // The perforation transform's generated loader/reconstruction code is
  // where CSE pays off: the pipeline (already run inside perforate())
  // must leave no further opportunity, i.e. running it again is a no-op.
  auto TheApp = apps::makeApp("sobel3");
  rt::Session Ctx;
  rt::Variant BK = cantFail(TheApp->buildPerforated(
      Ctx,
      perf::PerforationScheme::rows(2, perf::ReconstructionKind::Linear),
      {16, 16}));
  PipelineStats S = runDefaultPipeline(*BK.K.F, Ctx.module());
  EXPECT_EQ(S.total(), 0u);
}

} // namespace
