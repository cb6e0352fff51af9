//===- tests/loopinfo_test.cpp - Natural loops and induction tests ----------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Pins ir::LoopInfo -- the one loop discovery LICM, unroll and
// perforate-loop share -- on the shapes each pass's legality depends
// on: nest order, merged back edges, preheader and exit shapes, and
// unreachable back edges; plus the shared induction matcher and trip
// simulator.
//
//===----------------------------------------------------------------------===//

#include "ir/AnalysisManager.h"
#include "ir/IRBuilder.h"
#include "ir/LICM.h"
#include "ir/LoopInfo.h"
#include "ir/LoopPerforate.h"
#include "ir/LoopUnroll.h"
#include "ir/Verifier.h"
#include "pcl/Compiler.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

using namespace kperf;
using namespace kperf::ir;

namespace {

LoopInfo loopsOf(const Function &F) {
  return LoopInfo::compute(F, DominatorTree::compute(F));
}

BasicBlock *blockNamed(Function &F, const std::string &Name) {
  for (const auto &BB : F.blocks())
    if (BB->name() == Name)
      return BB.get();
  return nullptr;
}

/// The shape of one counted loop built by LoopInfoTest::buildLoop:
/// `for (i = Init; i CMP Bound; i = i STEPOP Step)`.
struct Shape {
  Opcode Cmp = Opcode::CmpLt;
  bool IvOnLhs = true;    ///< `i CMP Bound`, else `Bound CMP i`.
  bool BodyOnTrue = true; ///< The condbr's true edge enters the body.
  Opcode StepOp = Opcode::Add;
  int32_t Init = 0, Bound = 8, Step = 1;
  bool TwoLatches = false; ///< A second back edge from "latch2".
};

/// The blocks and values of a loop built by LoopInfoTest::buildLoop.
struct Built {
  Function *F = nullptr;
  BasicBlock *Header = nullptr, *Body = nullptr, *Latch = nullptr,
             *Exit = nullptr;
  Instruction *IV = nullptr, *Cond = nullptr, *Next = nullptr;
};

class LoopInfoTest : public ::testing::Test {
protected:
  LoopInfoTest() : B(M) {}

  /// Builds, in a fresh function, entry -> header; header: i = phi,
  /// condbr on the compare; body: loop-invariant n * 3, then the
  /// latch(es) advance i and branch back; exit stores (float)i.
  Built buildLoop(const Shape &S) {
    Built L;
    L.F = M.createFunction("f" + std::to_string(M.numFunctions()));
    Argument *N = L.F->addArgument(Type::intTy(), "n", false);
    Argument *Out = L.F->addArgument(
        Type::pointerTo(ScalarKind::Float, AddressSpace::Global), "out",
        false);
    BasicBlock *Entry = L.F->createBlock("entry");
    L.Header = L.F->createBlock("header");
    L.Body = L.F->createBlock("body");
    L.Latch = L.F->createBlock("latch");
    BasicBlock *Latch2 = S.TwoLatches ? L.F->createBlock("latch2") : nullptr;
    L.Exit = L.F->createBlock("exit");
    B.setInsertPoint(Entry);
    B.createBr(L.Header);
    B.setInsertPoint(L.Header);
    L.IV = B.createPhi(Type::intTy(), "i");
    Value *Bound = M.getInt(S.Bound);
    L.Cond = S.IvOnLhs ? B.createCmp(S.Cmp, L.IV, Bound, "c")
                       : B.createCmp(S.Cmp, Bound, L.IV, "c");
    if (S.BodyOnTrue)
      B.createCondBr(L.Cond, L.Body, L.Exit);
    else
      B.createCondBr(L.Cond, L.Exit, L.Body);
    B.setInsertPoint(L.Body);
    B.createMul(N, M.getInt(3), "inv");
    if (Latch2)
      B.createCondBr(B.createCmp(Opcode::CmpGt, N, M.getInt(0), "pick"),
                     L.Latch, Latch2);
    else
      B.createBr(L.Latch);
    B.setInsertPoint(L.Latch);
    L.Next = B.createBinary(S.StepOp, L.IV, M.getInt(S.Step), "i.next");
    B.createBr(L.Header);
    L.IV->addIncoming(M.getInt(S.Init), Entry);
    L.IV->addIncoming(L.Next, L.Latch);
    if (Latch2) {
      B.setInsertPoint(Latch2);
      Value *Next2 =
          B.createBinary(S.StepOp, L.IV, M.getInt(S.Step), "i.next2");
      B.createBr(L.Header);
      L.IV->addIncoming(Next2, Latch2);
    }
    B.setInsertPoint(L.Exit);
    B.createStore(B.createIntToFloat(L.IV), B.createGep(Out, M.getInt(0)));
    B.createRet();
    Error E = verifyFunction(*L.F);
    EXPECT_FALSE(E) << E.message();
    return L;
  }

  /// Runs the three loop passes on fresh analyses; returns their change
  /// counts {licm, unroll, perforate-loop(2)}.
  std::array<unsigned, 3> runLoopPasses(const Shape &S) {
    std::array<unsigned, 3> Changes{};
    {
      Built L = buildLoop(S);
      AnalysisManager AM;
      Changes[0] = hoistLoopInvariants(*L.F, AM);
    }
    Changes[1] = unrollConstantLoops(*buildLoop(S).F, M);
    {
      Built L = buildLoop(S);
      AnalysisManager AM;
      Changes[2] = perforateLoops(*L.F, M, AM, 2);
    }
    return Changes;
  }

  Module M;
  IRBuilder B;
};

//===----------------------------------------------------------------------===//
// Loop discovery
//===----------------------------------------------------------------------===//

TEST(LoopInfoNestTest, InnermostFirstBySizeThenLayout) {
  // Outer i loop around an inner j loop, then a sibling k loop the same
  // size as j: j and k come first (j's header is laid out first), the
  // enclosing i loop last.
  Module M;
  pcl::CompileOptions Opts;
  Opts.PipelineSpec = "mem2reg";
  Expected<Function *> F = pcl::compileKernel(M, R"(
kernel void k(global const float* in, global float* out, int w) {
  int x = get_global_id(0);
  float acc = 0.0;
  for (int i = 0; i < 3; i++) {
    for (int j = 0; j < 3; j++) {
      acc += in[clamp(x + i * 3 + j, 0, w - 1)];
    }
  }
  for (int k = 0; k < 2; k++) {
    acc += 1.0;
  }
  out[x] = acc;
}
)",
                                              "k", Opts);
  ASSERT_TRUE(static_cast<bool>(F)) << F.error().message();
  LoopInfo LI = loopsOf(**F);
  ASSERT_EQ(LI.loops().size(), 3u);
  const Loop &J = LI.loops()[0], &K = LI.loops()[1], &I = LI.loops()[2];
  EXPECT_EQ(J.Header, blockNamed(**F, "for.cond1"));
  EXPECT_EQ(K.Header, blockNamed(**F, "for.cond2"));
  EXPECT_EQ(I.Header, blockNamed(**F, "for.cond0"));
  EXPECT_EQ(J.Blocks.size(), K.Blocks.size());
  EXPECT_GT(I.Blocks.size(), J.Blocks.size());
  for (const BasicBlock *BB : J.Blocks)
    EXPECT_TRUE(I.contains(BB)) << BB->name();
  for (const BasicBlock *BB : K.Blocks)
    EXPECT_FALSE(I.contains(BB)) << BB->name();

  // Blocks are in layout order and mirror the membership set; the
  // outer loop skips for.end0, which sits between its blocks.
  std::vector<std::string> Names;
  for (const BasicBlock *BB : I.Blocks)
    Names.push_back(BB->name());
  EXPECT_EQ(Names, (std::vector<std::string>{"for.cond0", "for.body0",
                                             "for.cond1", "for.body1",
                                             "for.end1"}));
  EXPECT_EQ(I.Members.size(), I.Blocks.size());

  // Every loop of the nest is a counted loop the passes can work with.
  for (const Loop &L : LI.loops()) {
    EXPECT_NE(L.Preheader, nullptr) << L.Header->name();
    EXPECT_NE(L.latch(), nullptr) << L.Header->name();
    EXPECT_NE(L.Exit, nullptr) << L.Header->name();
    std::optional<Induction> IV = findInduction(L);
    ASSERT_TRUE(IV) << L.Header->name();
    EXPECT_EQ(IV->Step, 1);
  }
}

TEST_F(LoopInfoTest, CountedLoopRecordsEveryEdge) {
  Built L = buildLoop(Shape());
  LoopInfo LI = loopsOf(*L.F);
  ASSERT_EQ(LI.loops().size(), 1u);
  const Loop &Lp = LI.loops()[0];
  EXPECT_EQ(Lp.Header, L.Header);
  EXPECT_EQ(Lp.Latches, std::vector<BasicBlock *>{L.Latch});
  EXPECT_EQ(Lp.Blocks,
            (std::vector<BasicBlock *>{L.Header, L.Body, L.Latch}));
  EXPECT_EQ(Lp.Preheader, L.F->entry());
  EXPECT_EQ(Lp.Exit, L.Exit);
  EXPECT_EQ(Lp.BodyEntry, L.Body);
  EXPECT_TRUE(Lp.bodyOnTrueEdge());
  EXPECT_FALSE(Lp.contains(L.Exit));
}

TEST_F(LoopInfoTest, BackEdgesSharingAHeaderMergeIntoOneLoop) {
  Shape S;
  S.TwoLatches = true;
  Built L = buildLoop(S);
  LoopInfo LI = loopsOf(*L.F);
  ASSERT_EQ(LI.loops().size(), 1u);
  const Loop &Lp = LI.loops()[0];
  EXPECT_EQ(Lp.Latches.size(), 2u);
  EXPECT_EQ(Lp.latch(), nullptr);
  EXPECT_EQ(Lp.Blocks.size(), 4u); // header, body, latch, latch2.
  EXPECT_NE(Lp.Preheader, nullptr);
  EXPECT_EQ(Lp.Exit, L.Exit);
  EXPECT_FALSE(findInduction(Lp)); // No single latch to advance on.
}

TEST_F(LoopInfoTest, MergedLoopIsHoistedFromButNeitherUnrolledNorPerforated) {
  // LICM only needs a preheader; unroll and perforate-loop need one
  // latch. The single-latch control shows the same loop otherwise
  // qualifies for all three passes.
  std::array<unsigned, 3> Single = runLoopPasses(Shape());
  EXPECT_GT(Single[0], 0u);
  EXPECT_GT(Single[1], 0u);
  EXPECT_EQ(Single[2], 1u);

  Shape S;
  S.TwoLatches = true;
  std::array<unsigned, 3> Merged = runLoopPasses(S);
  EXPECT_GT(Merged[0], 0u);
  EXPECT_EQ(Merged[1], 0u);
  EXPECT_EQ(Merged[2], 0u);
}

TEST_F(LoopInfoTest, MissingPreheader) {
  // Two out-of-loop predecessors enter the header.
  Function *F = M.createFunction("f");
  Argument *N = F->addArgument(Type::intTy(), "n", false);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Side = F->createBlock("side");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  B.setInsertPoint(Entry);
  B.createCondBr(B.createCmp(Opcode::CmpGt, N, M.getInt(4)), Header, Side);
  B.setInsertPoint(Side);
  B.createBr(Header);
  B.setInsertPoint(Header);
  B.createCondBr(B.createCmp(Opcode::CmpGt, N, M.getInt(0)), Body, Exit);
  B.setInsertPoint(Body);
  B.createBr(Header);
  B.setInsertPoint(Exit);
  B.createRet();
  ASSERT_FALSE(verifyFunction(*F));

  LoopInfo LI = loopsOf(*F);
  ASSERT_EQ(LI.loops().size(), 1u);
  EXPECT_EQ(LI.loops()[0].Preheader, nullptr);
  EXPECT_EQ(LI.loops()[0].Exit, Exit); // The exit shape is independent.
}

TEST_F(LoopInfoTest, ConditionalPreheader) {
  // The only out-of-loop predecessor ends in a condbr: code placed there
  // would run even when the branch bypasses the loop.
  Function *F = M.createFunction("f");
  Argument *N = F->addArgument(Type::intTy(), "n", false);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  B.setInsertPoint(Entry);
  B.createCondBr(B.createCmp(Opcode::CmpGt, N, M.getInt(4)), Header, Exit);
  B.setInsertPoint(Header);
  B.createCondBr(B.createCmp(Opcode::CmpGt, N, M.getInt(0)), Body, Exit);
  B.setInsertPoint(Body);
  B.createBr(Header);
  B.setInsertPoint(Exit);
  B.createRet();
  ASSERT_FALSE(verifyFunction(*F));

  LoopInfo LI = loopsOf(*F);
  ASSERT_EQ(LI.loops().size(), 1u);
  EXPECT_EQ(LI.loops()[0].Preheader, nullptr);
}

TEST_F(LoopInfoTest, SideExitLeavesExitUnset) {
  // The body can leave the loop without passing the header test.
  Built L = buildLoop(Shape());
  L.Body->mutableInstructions().pop_back(); // br latch
  B.setInsertPoint(L.Body);
  B.createCondBr(
      B.createCmp(Opcode::CmpEq, L.F->argument(0), M.getInt(5), "side"), L.Exit,
      L.Latch);
  ASSERT_FALSE(verifyFunction(*L.F));

  LoopInfo LI = loopsOf(*L.F);
  ASSERT_EQ(LI.loops().size(), 1u);
  const Loop &Lp = LI.loops()[0];
  EXPECT_NE(Lp.Preheader, nullptr);
  EXPECT_EQ(Lp.latch(), L.Latch);
  EXPECT_EQ(Lp.Exit, nullptr);
  EXPECT_EQ(Lp.BodyEntry, nullptr);
  EXPECT_FALSE(findInduction(Lp));
}

TEST_F(LoopInfoTest, BackEdgeFromUnreachableBlockIsIgnored) {
  // header <-> body is a loop; "dead" also branches to the header and to
  // "mid", but nothing reaches it: it forms no loop and is no latch.
  Function *F = M.createFunction("f");
  Argument *N = F->addArgument(Type::intTy(), "n", false);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Mid = F->createBlock("mid");
  BasicBlock *Exit = F->createBlock("exit");
  BasicBlock *Dead = F->createBlock("dead");
  B.setInsertPoint(Entry);
  B.createBr(Header);
  B.setInsertPoint(Header);
  B.createCondBr(B.createCmp(Opcode::CmpGt, N, M.getInt(0)), Body, Mid);
  B.setInsertPoint(Body);
  B.createBr(Header);
  B.setInsertPoint(Mid);
  B.createBr(Exit);
  B.setInsertPoint(Exit);
  B.createRet();
  B.setInsertPoint(Dead);
  B.createCondBr(B.createCmp(Opcode::CmpGt, N, M.getInt(1)), Header, Mid);

  LoopInfo LI = loopsOf(*F);
  ASSERT_EQ(LI.loops().size(), 1u);
  const Loop &Lp = LI.loops()[0];
  EXPECT_EQ(Lp.Header, Header);
  EXPECT_EQ(Lp.Latches, std::vector<BasicBlock *>{Body});
  EXPECT_EQ(Lp.Blocks, (std::vector<BasicBlock *>{Header, Body}));
  EXPECT_FALSE(Lp.contains(Dead));
}

//===----------------------------------------------------------------------===//
// Induction variables and trip counts
//===----------------------------------------------------------------------===//

TEST_F(LoopInfoTest, InductionWithAddStep) {
  Built L = buildLoop(Shape());
  LoopInfo LI = loopsOf(*L.F);
  std::optional<Induction> IV = findInduction(LI.loops()[0]);
  ASSERT_TRUE(IV);
  EXPECT_EQ(IV->Phi, L.IV);
  EXPECT_EQ(IV->Next, L.Next);
  EXPECT_EQ(IV->Cond, L.Cond);
  EXPECT_EQ(asConstInt(IV->Init), 0);
  EXPECT_EQ(asConstInt(IV->Bound), 8);
  EXPECT_EQ(IV->Step, 1);
  EXPECT_TRUE(IV->IvOnLhs);
  EXPECT_EQ(simulateTrips(0, IV->Step, IV->Cond->opcode(), IV->IvOnLhs, 8,
                          LI.loops()[0].bodyOnTrueEdge(), 100),
            8u);
}

TEST_F(LoopInfoTest, InductionWithSubStep) {
  Shape S;
  S.Cmp = Opcode::CmpGt;
  S.StepOp = Opcode::Sub;
  S.Init = 8;
  S.Bound = 0;
  S.Step = 2;
  Built L = buildLoop(S);
  LoopInfo LI = loopsOf(*L.F);
  std::optional<Induction> IV = findInduction(LI.loops()[0]);
  ASSERT_TRUE(IV);
  EXPECT_EQ(IV->Step, -2);
  // i = 8, 6, 4, 2 run; 0 exits.
  EXPECT_EQ(simulateTrips(8, IV->Step, Opcode::CmpGt, true, 0, true, 100),
            4u);
}

TEST_F(LoopInfoTest, InductionWithSwappedCompareOperands) {
  Shape S;
  S.Cmp = Opcode::CmpGt; // 8 > i
  S.IvOnLhs = false;
  Built L = buildLoop(S);
  LoopInfo LI = loopsOf(*L.F);
  std::optional<Induction> IV = findInduction(LI.loops()[0]);
  ASSERT_TRUE(IV);
  EXPECT_EQ(IV->Phi, L.IV);
  EXPECT_FALSE(IV->IvOnLhs);
  EXPECT_EQ(asConstInt(IV->Bound), 8);
  EXPECT_EQ(simulateTrips(0, 1, Opcode::CmpGt, false, 8, true, 100), 8u);
}

TEST_F(LoopInfoTest, InductionWithBodyOnFalseEdge) {
  Shape S;
  S.Cmp = Opcode::CmpGe; // Exit once i >= 8.
  S.BodyOnTrue = false;
  Built L = buildLoop(S);
  LoopInfo LI = loopsOf(*L.F);
  const Loop &Lp = LI.loops()[0];
  EXPECT_FALSE(Lp.bodyOnTrueEdge());
  EXPECT_EQ(Lp.BodyEntry, L.Body);
  EXPECT_EQ(Lp.Exit, L.Exit);
  std::optional<Induction> IV = findInduction(Lp);
  ASSERT_TRUE(IV);
  EXPECT_EQ(simulateTrips(0, IV->Step, IV->Cond->opcode(), IV->IvOnLhs, 8,
                          Lp.bodyOnTrueEdge(), 100),
            8u);
}

TEST_F(LoopInfoTest, InductionRequiresConstantStep) {
  Built L = buildLoop(Shape());
  L.Next->setOperand(1, L.F->argument(0)); // i.next = i + n
  LoopInfo LI = loopsOf(*L.F);
  EXPECT_FALSE(findInduction(LI.loops()[0]));
}

TEST(SimulateTripsTest, StopsAtTheInt32Edge) {
  // Counting up to INT32_MAX ends exactly at the edge...
  EXPECT_EQ(simulateTrips(INT32_MAX - 2, 1, Opcode::CmpLt, true, INT32_MAX,
                          true, 100),
            2u);
  // ...but a loop whose induction would step past it has no int32 trip
  // count: the simulator wraps, the simulation refuses.
  EXPECT_FALSE(simulateTrips(INT32_MAX - 2, 1, Opcode::CmpGt, true, 0,
                             true, 100));
  EXPECT_FALSE(simulateTrips(INT32_MIN + 3, -2, Opcode::CmpLt, true, 0,
                             true, 100));
  // And the trip cap is honoured.
  EXPECT_EQ(simulateTrips(0, 1, Opcode::CmpLt, true, 10, true, 10), 10u);
  EXPECT_FALSE(simulateTrips(0, 1, Opcode::CmpLt, true, 11, true, 10));
}

} // namespace
