//===- tests/licm_test.cpp - Dominators and LICM tests ----------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "apps/App.h"
#include "img/Generators.h"
#include "ir/AnalysisManager.h"
#include "ir/Clone.h"
#include "ir/Dominators.h"
#include "ir/IRBuilder.h"
#include "ir/LICM.h"
#include "ir/Verifier.h"
#include "pcl/Compiler.h"
#include "runtime/Session.h"

#include <gtest/gtest.h>

using namespace kperf;
using namespace kperf::ir;

namespace {

/// Finds the block named \p Name; null if absent.
BasicBlock *blockNamed(Function &F, const std::string &Name) {
  for (const auto &BB : F.blocks())
    if (BB->name() == Name)
      return BB.get();
  return nullptr;
}

/// Compiles \p Source and returns the single kernel.
Function *compileKernel(rt::Session &Ctx, const char *Source) {
  Expected<std::vector<Function *>> Fns =
      pcl::compile(Ctx.module(), Source);
  EXPECT_TRUE(static_cast<bool>(Fns)) << Fns.error().message();
  return Fns->front();
}

//===----------------------------------------------------------------------===//
// Dominator tree
//===----------------------------------------------------------------------===//

/// Builds the diamond entry -> (then | else) -> join.
class DominatorTest : public ::testing::Test {
protected:
  DominatorTest() : B(M) {
    F = M.createFunction("f");
    Entry = F->createBlock("entry");
    Then = F->createBlock("then");
    Else = F->createBlock("else");
    Join = F->createBlock("join");
    Cond = F->addArgument(Type::intTy(), "c", false);
    B.setInsertPoint(Entry);
    Value *C = B.createCmp(Opcode::CmpGt, Cond, M.getInt(0), "c");
    B.createCondBr(C, Then, Else);
    B.setInsertPoint(Then);
    B.createBr(Join);
    B.setInsertPoint(Else);
    B.createBr(Join);
    B.setInsertPoint(Join);
    B.createRet();
  }

  Module M;
  Function *F = nullptr;
  BasicBlock *Entry = nullptr, *Then = nullptr, *Else = nullptr,
             *Join = nullptr;
  Argument *Cond = nullptr;
  IRBuilder B;
};

TEST_F(DominatorTest, DiamondIdoms) {
  DominatorTree DT = DominatorTree::compute(*F);
  EXPECT_EQ(DT.idom(Entry), nullptr);
  EXPECT_EQ(DT.idom(Then), Entry);
  EXPECT_EQ(DT.idom(Else), Entry);
  EXPECT_EQ(DT.idom(Join), Entry); // Neither branch dominates the join.
}

TEST_F(DominatorTest, DominatesIsReflexiveAndEntryDominatesAll) {
  DominatorTree DT = DominatorTree::compute(*F);
  for (BasicBlock *BB : {Entry, Then, Else, Join}) {
    EXPECT_TRUE(DT.dominates(BB, BB));
    EXPECT_TRUE(DT.dominates(Entry, BB));
  }
  EXPECT_FALSE(DT.dominates(Then, Join));
  EXPECT_FALSE(DT.dominates(Join, Then));
  EXPECT_FALSE(DT.dominates(Then, Else));
}

TEST_F(DominatorTest, UnreachableBlocksAreOutside) {
  BasicBlock *Dead = F->createBlock("dead");
  B.setInsertPoint(Dead);
  B.createBr(Join);
  DominatorTree DT = DominatorTree::compute(*F);
  EXPECT_FALSE(DT.isReachable(Dead));
  EXPECT_FALSE(DT.dominates(Entry, Dead));
  EXPECT_FALSE(DT.dominates(Dead, Join));
  // The reachable part is unaffected.
  EXPECT_EQ(DT.idom(Join), Entry);
}

TEST(DominatorCfgTest, SuccessorsAndPredecessors) {
  Module M;
  IRBuilder B(M);
  Function *F = M.createFunction("f");
  BasicBlock *A = F->createBlock("a");
  BasicBlock *C = F->createBlock("c");
  B.setInsertPoint(A);
  B.createBr(C);
  B.setInsertPoint(C);
  B.createRet();
  EXPECT_EQ(successors(A), std::vector<BasicBlock *>{C});
  EXPECT_TRUE(successors(C).empty());
  auto Preds = predecessors(*F);
  ASSERT_EQ(Preds[C].size(), 1u);
  EXPECT_EQ(Preds[C][0], A);
}

TEST(DominatorLoopTest, LoopHeaderDominatesLatch) {
  // entry -> header; header -> (body | exit); body -> header.
  Module M;
  IRBuilder B(M);
  Function *F = M.createFunction("f");
  Argument *N = F->addArgument(Type::intTy(), "n", false);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  B.setInsertPoint(Entry);
  B.createBr(Header);
  B.setInsertPoint(Header);
  Value *C = B.createCmp(Opcode::CmpGt, N, M.getInt(0), "c");
  B.createCondBr(C, Body, Exit);
  B.setInsertPoint(Body);
  B.createBr(Header);
  B.setInsertPoint(Exit);
  B.createRet();

  DominatorTree DT = DominatorTree::compute(*F);
  EXPECT_TRUE(DT.dominates(Header, Body));
  EXPECT_EQ(DT.idom(Body), Header);
  EXPECT_EQ(DT.idom(Exit), Header);
  EXPECT_EQ(DT.idom(Header), Entry);
}

//===----------------------------------------------------------------------===//
// LICM on compiled kernels
//===----------------------------------------------------------------------===//

/// Counts instructions of opcode \p Op in block \p BB.
unsigned countInBlock(const BasicBlock &BB, Opcode Op) {
  unsigned N = 0;
  for (const auto &I : BB.instructions())
    if (I->opcode() == Op)
      ++N;
  return N;
}

/// Runs LICM on \p F over a fresh analysis cache.
unsigned hoist(Function &F) {
  AnalysisManager AM;
  return hoistLoopInvariants(F, AM);
}

/// A copy of the session kernel \p F in \p Ctx's module, for a test to
/// transform and launch: the session's own kernels are read-only.
rt::Kernel copyOf(rt::Session &Ctx, const Function &F) {
  CloneMap Map;
  return rt::Kernel{cloneFunction(Ctx.module(), F, F.name() + ".copy", Map)};
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

TEST(LicmTest, HoistsInvariantLoadsOutOfLoop) {
  rt::Session Ctx;
  Function *F = compileKernel(Ctx, LoopKernel);
  // Before: the loop body loads y/h/w/x afresh each iteration.
  BasicBlock *Body = blockNamed(*F, "for.body0");
  ASSERT_NE(Body, nullptr);
  unsigned LoadsBefore = countInBlock(*Body, Opcode::Load);
  EXPECT_GE(LoadsBefore, 4u);

  unsigned Hoisted = hoist(*F);
  EXPECT_GT(Hoisted, 0u);
  Error E = verifyFunction(*F);
  EXPECT_FALSE(E) << E.message();

  // After: only the loads of loop-carried variables (k, acc) remain in
  // the loop.
  unsigned LoadsAfter = countInBlock(*Body, Opcode::Load);
  EXPECT_LT(LoadsAfter, LoadsBefore);
}

TEST(LicmTest, DoesNotHoistLoopCarriedLoads) {
  rt::Session Ctx;
  Function *F = compileKernel(Ctx, LoopKernel);
  hoist(*F);
  // The induction variable's load must stay inside the loop: its alloca
  // is stored to by the increment.
  bool FoundLoopLoadOfK = false;
  for (const char *Name : {"for.cond0", "for.body0", "for.inc0"}) {
    BasicBlock *BB = blockNamed(*F, Name);
    if (!BB)
      continue;
    for (const auto &I : BB->instructions()) {
      if (I->opcode() != Opcode::Load)
        continue;
      const auto *A = dyn_cast<Instruction>(I->operand(0));
      if (A && A->name() == "k")
        FoundLoopLoadOfK = true;
    }
  }
  EXPECT_TRUE(FoundLoopLoadOfK);
}

TEST(LicmTest, NeverHoistsGlobalLoads) {
  // The in[...] load depends on k, but even an invariant-address global
  // load must stay put (a zero-trip loop must not fault).
  const char *InvariantGlobalLoad = R"(
kernel void k(global const float* in, global float* out, int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  float acc = 0.0;
  for (int k = 0; k < 4; k++) {
    acc += in[y * w + x];
  }
  out[y * w + x] = acc;
}
)";
  rt::Session Ctx;
  Function *F = compileKernel(Ctx, InvariantGlobalLoad);
  hoist(*F);
  BasicBlock *Body = blockNamed(*F, "for.body0");
  ASSERT_NE(Body, nullptr);
  // The gep'd load from 'in' is still in the body.
  bool GlobalLoadInBody = false;
  for (const auto &I : Body->instructions()) {
    if (I->opcode() != Opcode::Load)
      continue;
    if (I->operand(0)->type().addressSpace() == AddressSpace::Global)
      GlobalLoadInBody = true;
  }
  EXPECT_TRUE(GlobalLoadInBody);
}

TEST(LicmTest, IntegerDivisionByVariableStays) {
  const char *DivKernel = R"(
kernel void k(global const float* in, global float* out, int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  int q = 0;
  for (int k = 0; k < 4; k++) {
    q += x / (h - 1);
  }
  out[y * w + x] = q;
}
)";
  rt::Session Ctx;
  Function *F = compileKernel(Ctx, DivKernel);
  hoist(*F);
  Error E = verifyFunction(*F);
  EXPECT_FALSE(E) << E.message();
  // x / (h-1) could fault for h == 1, so the div must stay in the loop
  // even though its operands are invariant.
  BasicBlock *Body = blockNamed(*F, "for.body0");
  ASSERT_NE(Body, nullptr);
  EXPECT_GE(countInBlock(*Body, Opcode::Div), 1u);
}

TEST(LicmTest, SemanticsPreservedOnAllApps) {
  // Hoisting must never change any application's accurate output.
  for (const char *Name :
       {"gaussian", "median", "sobel5", "mean", "convsep"}) {
    auto TheApp = apps::makeApp(Name);
    apps::Workload W = apps::makeImageWorkload(
        img::generateImage(img::ImageClass::Natural, 32, 32, 29));
    std::vector<float> Ref = TheApp->reference(W);
    rt::Session Ctx;
    rt::Variant BK = cantFail(TheApp->buildPlain(Ctx, {16, 16}));
    // Hoist and launch copies of the compiled kernels, not the session's
    // optimized launch copies, so the run below checks the hoist.
    BK.K = copyOf(Ctx, *BK.K.F);
    unsigned Hoisted = hoist(*BK.K.F);
    if (BK.isTwoPass()) {
      BK.K2 = copyOf(Ctx, *BK.K2.F);
      Hoisted += hoist(*BK.K2.F);
    }
    Error E = verifyFunction(*BK.K.F);
    ASSERT_FALSE(E) << E.message();
    apps::RunOutcome R = cantFail(TheApp->run(Ctx, BK, W));
    for (size_t I = 0; I < Ref.size(); ++I)
      ASSERT_NEAR(R.Output[I], Ref[I], 1e-4) << Name << " @" << I;
  }
}

TEST(LicmTest, ReducesDynamicAluWork) {
  // The point of the pass: fewer executed ALU ops per work item on a
  // loop-heavy kernel.
  auto TheApp = apps::makeApp("sobel5");
  apps::Workload W = apps::makeImageWorkload(
      img::generateImage(img::ImageClass::Natural, 64, 64, 31));
  auto AluPerItem = [&](bool Licm) {
    rt::Session Ctx;
    rt::Variant BK = cantFail(TheApp->buildPlain(Ctx, {16, 16}));
    // Launch a copy of the compiled kernel, not the session's optimized
    // launch copy, so the hoist below is what the counters measure.
    BK.K = copyOf(Ctx, *BK.K.F);
    if (Licm)
      hoist(*BK.K.F);
    sim::SimReport R = cantFail(TheApp->run(Ctx, BK, W)).Report;
    return static_cast<double>(R.Totals.AluOps) / R.Totals.WorkItems;
  };
  double Without = AluPerItem(false);
  double With = AluPerItem(true);
  EXPECT_LT(With, Without * 0.9) << Without << " -> " << With;
}

TEST(LicmTest, SkipsLoopsWithoutUniquePreheader) {
  // Two out-of-loop predecessors of the header: LICM must leave the
  // loop alone (and not crash) since there is no single safe insertion
  // point.
  Module M;
  IRBuilder B(M);
  Function *F = M.createFunction("f");
  Argument *N = F->addArgument(Type::intTy(), "n", false);
  Argument *Out = F->addArgument(
      Type::pointerTo(ScalarKind::Float, AddressSpace::Global), "out",
      false);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Side = F->createBlock("side");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  B.setInsertPoint(Entry);
  Value *C0 = B.createCmp(Opcode::CmpGt, N, M.getInt(4), "c0");
  B.createCondBr(C0, Header, Side);
  B.setInsertPoint(Side);
  B.createBr(Header); // Second out-of-loop entry into the header.
  B.setInsertPoint(Header);
  Value *C1 = B.createCmp(Opcode::CmpGt, N, M.getInt(0), "c1");
  B.createCondBr(C1, Body, Exit);
  B.setInsertPoint(Body);
  // Loop-invariant work that LICM would love to hoist.
  Value *Inv = B.createMul(N, M.getInt(3), "inv");
  B.createStore(B.createIntToFloat(Inv), B.createGep(Out, M.getInt(0)));
  B.createBr(Header);
  B.setInsertPoint(Exit);
  B.createRet();
  ASSERT_FALSE(verifyFunction(*F));

  EXPECT_EQ(hoist(*F), 0u);
  EXPECT_EQ(countInBlock(*Body, Opcode::Mul), 1u); // Still in the loop.
  EXPECT_FALSE(verifyFunction(*F));
}

TEST(LicmTest, SkipsConditionalPreheader) {
  // The only out-of-loop predecessor ends in a condbr: hoisting there
  // would execute loop code even when the branch bypasses the loop.
  Module M;
  IRBuilder B(M);
  Function *F = M.createFunction("f");
  Argument *N = F->addArgument(Type::intTy(), "n", false);
  Argument *Out = F->addArgument(
      Type::pointerTo(ScalarKind::Float, AddressSpace::Global), "out",
      false);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  B.setInsertPoint(Entry);
  Value *C0 = B.createCmp(Opcode::CmpGt, N, M.getInt(4), "c0");
  B.createCondBr(C0, Header, Exit); // Conditional edge into the loop.
  B.setInsertPoint(Header);
  Value *C1 = B.createCmp(Opcode::CmpGt, N, M.getInt(0), "c1");
  B.createCondBr(C1, Body, Exit);
  B.setInsertPoint(Body);
  Value *Inv = B.createMul(N, M.getInt(3), "inv");
  B.createStore(B.createIntToFloat(Inv), B.createGep(Out, M.getInt(0)));
  B.createBr(Header);
  B.setInsertPoint(Exit);
  B.createRet();
  ASSERT_FALSE(verifyFunction(*F));

  EXPECT_EQ(hoist(*F), 0u);
  EXPECT_EQ(countInBlock(*Body, Opcode::Mul), 1u);
}

TEST(LicmTest, IdempotentAfterFixpoint) {
  rt::Session Ctx;
  Function *F = compileKernel(Ctx, LoopKernel);
  unsigned First = hoist(*F);
  EXPECT_GT(First, 0u);
  EXPECT_EQ(hoist(*F), 0u);
}

} // namespace
