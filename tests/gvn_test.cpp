//===- tests/gvn_test.cpp - Global value numbering unit tests ---------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "ir/Dominators.h"
#include "ir/GVN.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace kperf;
using namespace kperf::ir;

namespace {

/// Builds `entry -> (then | else) -> join` with a data-dependent branch,
/// returning the four blocks. Arguments: out (mutable int buffer), in
/// (const int buffer), a, b (ints).
struct Diamond {
  Module M;
  Function *F = nullptr;
  Argument *Out = nullptr;
  Argument *In = nullptr;
  Argument *A = nullptr;
  Argument *B = nullptr;
  BasicBlock *Entry = nullptr;
  BasicBlock *Then = nullptr;
  BasicBlock *Else = nullptr;
  BasicBlock *Join = nullptr;

  Diamond() {
    F = M.createFunction("f");
    Out = F->addArgument(
        Type::pointerTo(ScalarKind::Int, AddressSpace::Global), "out",
        false);
    In = F->addArgument(
        Type::pointerTo(ScalarKind::Int, AddressSpace::Global), "in",
        true);
    A = F->addArgument(Type::intTy(), "a", false);
    B = F->addArgument(Type::intTy(), "b", false);
    Entry = F->createBlock("entry");
    Then = F->createBlock("then");
    Else = F->createBlock("else");
    Join = F->createBlock("join");
  }
};

/// Runs GVN on \p F and checks the result still verifies.
unsigned runGvn(Function &F) {
  DominatorTree DT = DominatorTree::compute(F);
  unsigned Changes = numberValuesGlobally(F, DT);
  Error E = verifyFunction(F);
  EXPECT_FALSE(E) << E.message();
  return Changes;
}

/// Stores \p V through a fresh gep of \p D.Out at \p Index (keeps values
/// alive without further sharing).
void storeOut(IRBuilder &B, Diamond &D, Value *V, int32_t Index) {
  B.createStore(V, B.createGep(D.Out, B.getInt(Index)));
}

TEST(GvnTest, LeaderReusedAcrossDominatedBlocks) {
  Diamond D;
  IRBuilder B(D.M);
  B.setInsertPoint(D.Entry);
  Instruction *S1 = B.createAdd(D.A, D.B, "s");
  B.createCondBr(B.createCmp(Opcode::CmpLt, D.A, D.B), D.Then, D.Else);
  B.setInsertPoint(D.Then);
  Instruction *S2 = B.createAdd(D.A, D.B, "s");
  storeOut(B, D, S2, 0);
  B.createBr(D.Join);
  B.setInsertPoint(D.Else);
  Instruction *S3 = B.createAdd(D.A, D.B, "s");
  storeOut(B, D, S3, 1);
  B.createBr(D.Join);
  B.setInsertPoint(D.Join);
  Instruction *S4 = B.createAdd(D.A, D.B, "s");
  storeOut(B, D, S4, 2);
  B.createRet();

  // The entry copy dominates every block: all three duplicates fold.
  EXPECT_EQ(runGvn(*D.F), 3u);
  // Every store now stores the leader (the duplicates are left dead for
  // DCE).
  for (BasicBlock *BB : {D.Then, D.Else, D.Join})
    for (const auto &I : BB->instructions())
      if (I->opcode() == Opcode::Store) {
        EXPECT_EQ(I->operand(0), S1) << BB->name();
      }
  // Idempotent: a second run finds nothing.
  EXPECT_EQ(runGvn(*D.F), 0u);
}

TEST(GvnTest, SiblingBlocksDoNotShareLeaders) {
  Diamond D;
  IRBuilder B(D.M);
  B.setInsertPoint(D.Entry);
  B.createCondBr(B.createCmp(Opcode::CmpLt, D.A, D.B), D.Then, D.Else);
  B.setInsertPoint(D.Then);
  storeOut(B, D, B.createAdd(D.A, D.B, "s"), 0);
  B.createBr(D.Join);
  B.setInsertPoint(D.Else);
  // Identical expression, but neither branch dominates the other: the
  // then-leader must be out of scope here.
  storeOut(B, D, B.createAdd(D.A, D.B, "s"), 1);
  B.createBr(D.Join);
  B.setInsertPoint(D.Join);
  B.createRet();

  EXPECT_EQ(runGvn(*D.F), 0u);
}

TEST(GvnTest, CommutativeOperandsCanonicalize) {
  Diamond D;
  IRBuilder B(D.M);
  B.setInsertPoint(D.Entry);
  Instruction *S1 = B.createAdd(D.A, D.B, "s");
  B.createCondBr(B.createCmp(Opcode::CmpLt, D.A, D.B), D.Then, D.Else);
  B.setInsertPoint(D.Then);
  storeOut(B, D, B.createAdd(D.B, D.A, "swapped"), 0); // b+a == a+b.
  storeOut(B, D, B.createSub(D.B, D.A, "noncomm"), 1); // b-a != a-b.
  B.createBr(D.Join);
  B.setInsertPoint(D.Else);
  storeOut(B, D, B.createSub(D.A, D.B, "sub"), 2);
  B.createBr(D.Join);
  B.setInsertPoint(D.Join);
  B.createRet();

  EXPECT_EQ(runGvn(*D.F), 1u);
  for (const auto &I : D.Then->instructions())
    if (I->opcode() == Opcode::Store && I->operand(0) == S1)
      return; // The swapped add was folded onto the leader.
  FAIL() << "commutative duplicate not merged";
}

TEST(GvnTest, IdenticalPhisInOneBlockMerge) {
  Diamond D;
  IRBuilder B(D.M);
  B.setInsertPoint(D.Entry);
  B.createCondBr(B.createCmp(Opcode::CmpLt, D.A, D.B), D.Then, D.Else);
  B.setInsertPoint(D.Then);
  Instruction *V1 = B.createAdd(D.A, B.getInt(1), "v1");
  B.createBr(D.Join);
  B.setInsertPoint(D.Else);
  Instruction *V2 = B.createAdd(D.B, B.getInt(2), "v2");
  B.createBr(D.Join);
  B.setInsertPoint(D.Join);
  Instruction *P1 = B.createPhi(Type::intTy(), "p1");
  P1->addIncoming(V1, D.Then);
  P1->addIncoming(V2, D.Else);
  Instruction *P2 = B.createPhi(Type::intTy(), "p2");
  // Same per-edge values, inserted in the opposite order: still equal.
  P2->addIncoming(V2, D.Else);
  P2->addIncoming(V1, D.Then);
  Instruction *P3 = B.createPhi(Type::intTy(), "p3");
  // Crossed values: a genuinely different merge, must survive.
  P3->addIncoming(V2, D.Then);
  P3->addIncoming(V1, D.Else);
  storeOut(B, D, P1, 0);
  storeOut(B, D, P2, 1);
  storeOut(B, D, P3, 2);
  B.createRet();

  EXPECT_EQ(runGvn(*D.F), 1u); // P2 -> P1; P3 untouched.
  std::vector<Instruction *> Stores;
  for (const auto &I : D.Join->instructions())
    if (I->opcode() == Opcode::Store)
      Stores.push_back(I.get());
  ASSERT_EQ(Stores.size(), 3u);
  EXPECT_EQ(Stores[0]->operand(0), P1);
  EXPECT_EQ(Stores[1]->operand(0), P1);
  EXPECT_EQ(Stores[2]->operand(0), P3);
}

TEST(GvnTest, SingleIncomingPhisInDifferentBlocksStayPut) {
  // J1 and J2 each hold a phi with the same one incoming (value, block)
  // pair; merging them would let one block's phi be used where it does
  // not dominate. The per-block scope in the phi key forbids it.
  Module M;
  Function *F = M.createFunction("f");
  Argument *Out = F->addArgument(
      Type::pointerTo(ScalarKind::Int, AddressSpace::Global), "out",
      false);
  Argument *A = F->addArgument(Type::intTy(), "a", false);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *J1 = F->createBlock("j1");
  BasicBlock *J2 = F->createBlock("j2");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  B.createCondBr(B.createCmp(Opcode::CmpLt, A, B.getInt(0)), J1, J2);
  B.setInsertPoint(J1);
  Instruction *P1 = B.createPhi(Type::intTy(), "p");
  P1->addIncoming(A, Entry);
  B.createStore(P1, B.createGep(Out, B.getInt(0)));
  B.createRet();
  B.setInsertPoint(J2);
  Instruction *P2 = B.createPhi(Type::intTy(), "p");
  P2->addIncoming(A, Entry);
  B.createStore(P2, B.createGep(Out, B.getInt(1)));
  B.createRet();

  EXPECT_EQ(runGvn(*F), 0u);
}

TEST(GvnTest, ConstArgumentLoadsNumberAcrossBlocksAndBarriers) {
  Diamond D;
  IRBuilder B(D.M);
  B.setInsertPoint(D.Entry);
  Instruction *G1 = B.createGep(D.In, D.A, "g");
  Instruction *L1 = B.createLoad(G1, "l");
  B.createCondBr(B.createCmp(Opcode::CmpLt, D.A, D.B), D.Then, D.Else);
  B.setInsertPoint(D.Then);
  // A barrier makes other work items' global writes visible -- but a
  // const buffer has no writers, so the load is still the same value.
  B.createCall(Builtin::Barrier, {});
  Instruction *G2 = B.createGep(D.In, D.A, "g");
  Instruction *L2 = B.createLoad(G2, "l");
  storeOut(B, D, L2, 0);
  B.createBr(D.Join);
  B.setInsertPoint(D.Else);
  B.createBr(D.Join);
  B.setInsertPoint(D.Join);
  B.createRet();

  // The gep pair and the load pair both fold.
  EXPECT_EQ(runGvn(*D.F), 2u);
  for (const auto &I : D.Then->instructions())
    if (I->opcode() == Opcode::Store) {
      EXPECT_EQ(I->operand(0), L1);
    }
}

TEST(GvnTest, MutableBufferLoadsAreNotNumbered) {
  Diamond D;
  IRBuilder B(D.M);
  B.setInsertPoint(D.Entry);
  Instruction *G1 = B.createGep(D.Out, D.A, "g");
  Instruction *L1 = B.createLoad(G1, "l");
  storeOut(B, D, L1, 0); // out is written: its loads must not merge.
  B.createCondBr(B.createCmp(Opcode::CmpLt, D.A, D.B), D.Then, D.Else);
  B.setInsertPoint(D.Then);
  Instruction *G2 = B.createGep(D.Out, D.A, "g");
  Instruction *L2 = B.createLoad(G2, "l2");
  storeOut(B, D, L2, 1);
  B.createBr(D.Join);
  B.setInsertPoint(D.Else);
  B.createBr(D.Join);
  B.setInsertPoint(D.Join);
  B.createRet();

  // Only the gep (pure address arithmetic) folds; the loads stay.
  EXPECT_EQ(runGvn(*D.F), 1u);
  bool L2Survives = false;
  for (const auto &I : D.Then->instructions())
    L2Survives |= I.get() == L2;
  EXPECT_TRUE(L2Survives);
  for (const auto &I : D.Then->instructions())
    if (I->opcode() == Opcode::Store) {
      EXPECT_EQ(I->operand(0), L2);
    }
}

TEST(GvnTest, PrivateAllocaLoads) {
  // Loads are numbered by {pointer, memory-SSA clobbering access}: the
  // never-stored alloca's duplicate load merges (zero-filled arena,
  // live-on-entry clobber), and so does the stored alloca's -- its store
  // hits element 2 while the loads read element 0, and constant GEP
  // indices on the same alloca disambiguate, so the walk skips the store
  // and both loads share the live-on-entry clobber.
  Module M;
  Function *F = M.createFunction("f");
  Argument *Out = F->addArgument(
      Type::pointerTo(ScalarKind::Int, AddressSpace::Global), "out",
      false);
  Argument *A = F->addArgument(Type::intTy(), "a", false);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Next = F->createBlock("next");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  Instruction *Stored =
      B.createAlloca(ScalarKind::Int, 4, AddressSpace::Private, "st");
  Instruction *Clean =
      B.createAlloca(ScalarKind::Int, 4, AddressSpace::Private, "cl");
  B.createStore(A, B.createGep(Stored, B.getInt(2)));
  Instruction *G1 = B.createGep(Stored, B.getInt(0), "gs");
  Instruction *LS1 = B.createLoad(G1, "ls");
  Instruction *GC1 = B.createGep(Clean, B.getInt(1), "gc");
  Instruction *LC1 = B.createLoad(GC1, "lc");
  B.createBr(Next);
  B.setInsertPoint(Next);
  Instruction *LS2 = B.createLoad(G1, "ls2");
  Instruction *LC2 = B.createLoad(GC1, "lc2");
  B.createStore(LS1, B.createGep(Out, B.getInt(0)));
  B.createStore(LS2, B.createGep(Out, B.getInt(1)));
  B.createStore(LC1, B.createGep(Out, B.getInt(2)));
  B.createStore(LC2, B.createGep(Out, B.getInt(3)));
  B.createRet();

  // Two merges: LC2 onto LC1 and LS2 onto LS1.
  EXPECT_EQ(runGvn(*F), 2u);
  std::vector<Instruction *> Stores;
  for (const auto &I : Next->instructions())
    if (I->opcode() == Opcode::Store)
      Stores.push_back(I.get());
  ASSERT_EQ(Stores.size(), 4u);
  EXPECT_EQ(Stores[0]->operand(0), LS1);
  EXPECT_EQ(Stores[1]->operand(0), LS1); // LS2 merged onto LS1.
  EXPECT_EQ(Stores[2]->operand(0), LC1);
  EXPECT_EQ(Stores[3]->operand(0), LC1); // LC2 merged onto LC1.
  (void)LS2;
  (void)LC2;
}

TEST(GvnTest, OpaqueStoreDisqualifiesAllAllocaLoads) {
  // A store through a pointer select could target either alloca; no
  // alloca may be treated as immutable then. (The frontend never emits
  // pointer selects, but the verifier allows them.)
  Module M;
  Function *F = M.createFunction("f");
  Argument *Out = F->addArgument(
      Type::pointerTo(ScalarKind::Int, AddressSpace::Global), "out",
      false);
  Argument *A = F->addArgument(Type::intTy(), "a", false);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Next = F->createBlock("next");
  IRBuilder B(M);
  B.setInsertPoint(Entry);
  Instruction *PA =
      B.createAlloca(ScalarKind::Int, 1, AddressSpace::Private, "pa");
  Instruction *PB =
      B.createAlloca(ScalarKind::Int, 1, AddressSpace::Private, "pb");
  Instruction *Cond = B.createCmp(Opcode::CmpLt, A, B.getInt(0));
  Instruction *L1 = B.createLoad(PA, "l1");
  B.createStore(A, B.createSelect(Cond, PA, PB)); // May write pa.
  Instruction *L2 = B.createLoad(PA, "l2");
  B.createBr(Next);
  B.setInsertPoint(Next);
  B.createStore(L1, B.createGep(Out, B.getInt(0)));
  B.createStore(L2, B.createGep(Out, B.getInt(1)));
  B.createRet();

  EXPECT_EQ(runGvn(*F), 0u); // L2 must not merge onto L1.
}

} // namespace
