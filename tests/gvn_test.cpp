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

//===----------------------------------------------------------------------===//
// Block-local soundness: what merges inside one block, and what must not
//===----------------------------------------------------------------------===//

/// One open block over in (const float buffer), io and out (writable
/// float buffers, which the host may bind to one buffer) and w (int).
struct Straight {
  Module M;
  IRBuilder B{M};
  Function *F = nullptr;
  Argument *In = nullptr;
  Argument *Io = nullptr;
  Argument *Out = nullptr;
  Argument *W = nullptr;

  Straight() {
    F = M.createFunction("f");
    auto FloatBuffer = Type::pointerTo(ScalarKind::Float,
                                       AddressSpace::Global);
    In = F->addArgument(FloatBuffer, "in", true);
    Io = F->addArgument(FloatBuffer, "io", false);
    Out = F->addArgument(FloatBuffer, "out", false);
    W = F->addArgument(Type::intTy(), "w", false);
    B.setInsertPoint(F->createBlock("entry"));
  }

  /// Stores \p V (an int is converted first) to out[Slot]; returns the
  /// store, whose operand 0 shows what \p V became.
  Instruction *keep(Value *V, int32_t Slot) {
    if (V->type().isInt())
      V = B.createIntToFloat(V);
    return B.createStore(V, B.createGep(Out, B.getInt(Slot)));
  }

  /// Closes the block and runs GVN.
  unsigned finish() {
    B.createRet();
    return runGvn(*F);
  }

  Instruction *privateFloat(const char *Name) {
    return B.createAlloca(ScalarKind::Float, 1, AddressSpace::Private,
                          Name);
  }
};

TEST(GvnTest, ChainedDuplicatesCollapseInOnePass) {
  // ((w*3)+1)*5 twice: every chain level and the dependent cast merge in
  // one invocation, because operands route through earlier merges.
  Straight S;
  auto Chain = [&] {
    Value *V = S.B.createMul(S.W, S.B.getInt(3));
    V = S.B.createAdd(V, S.B.getInt(1));
    return S.B.createMul(V, S.B.getInt(5));
  };
  Value *C1 = Chain();
  Value *C2 = Chain();
  Instruction *K1 = S.keep(C1, 0);
  Instruction *K2 = S.keep(C2, 1);
  EXPECT_EQ(S.finish(), 4u); // Three chain levels + the cast's use.
  EXPECT_EQ(K1->operand(0), K2->operand(0));
}

TEST(GvnTest, NonCommutativeOperandsStayApart) {
  Straight S;
  S.keep(S.B.createSub(S.W, S.B.getInt(7)), 0);
  S.keep(S.B.createSub(S.B.getInt(7), S.W), 1); // 7-w != w-7.
  EXPECT_EQ(S.finish(), 0u);
}

TEST(GvnTest, PureCallsAndSelectsMerge) {
  Straight S;
  Value *Five = S.B.getInt(5);
  Instruction *MinA = S.keep(S.B.createCall(Builtin::Min, {S.W, Five}), 0);
  Instruction *MinB = S.keep(S.B.createCall(Builtin::Min, {Five, S.W}), 1);
  Instruction *MaxA = S.keep(S.B.createCall(Builtin::Max, {S.W, Five}), 2);
  Instruction *MaxB = S.keep(S.B.createCall(Builtin::Max, {Five, S.W}), 3);
  Value *Dim0 = S.B.getInt(0);
  Instruction *G0 =
      S.keep(S.B.createCall(Builtin::GetGlobalId, {Dim0}), 4);
  Instruction *G0b =
      S.keep(S.B.createCall(Builtin::GetGlobalId, {Dim0}), 5);
  Instruction *G1 =
      S.keep(S.B.createCall(Builtin::GetGlobalId, {S.B.getInt(1)}), 6);
  Value *Cond = S.B.createCmp(Opcode::CmpLt, S.W, S.B.getInt(8));
  Instruction *SelA = S.keep(
      S.B.createSelect(Cond, S.B.getInt(1), S.B.getInt(2)), 7);
  Instruction *SelB = S.keep(
      S.B.createSelect(Cond, S.B.getInt(1), S.B.getInt(2)), 8);
  S.finish();
  EXPECT_EQ(MinA->operand(0), MinB->operand(0)); // min is commutative.
  EXPECT_EQ(MaxA->operand(0), MaxB->operand(0));
  EXPECT_NE(MinA->operand(0), MaxA->operand(0));
  EXPECT_EQ(G0->operand(0), G0b->operand(0)); // Same dimension merges,
  EXPECT_NE(G0->operand(0), G1->operand(0));  // the other one stays.
  EXPECT_EQ(SelA->operand(0), SelB->operand(0));
}

TEST(GvnTest, BarriersNeverMerge) {
  // Each barrier is its own memory state: a stored local tile read after
  // the second barrier is not the value read between the two.
  Straight S;
  Instruction *Tile =
      S.B.createAlloca(ScalarKind::Float, 4, AddressSpace::Local, "tile");
  Value *P = S.B.createGep(Tile, S.B.getInt(0));
  S.B.createStore(S.B.getFloat(1.0f), P);
  S.B.createCall(Builtin::Barrier, {});
  Instruction *L1 = S.B.createLoad(P, "l1");
  S.B.createCall(Builtin::Barrier, {});
  Instruction *L2 = S.B.createLoad(P, "l2");
  Instruction *K1 = S.keep(L1, 0);
  Instruction *K2 = S.keep(L2, 1);
  EXPECT_EQ(S.finish(), 0u);
  unsigned Barriers = 0;
  for (const auto &I : S.F->entry()->instructions())
    if (I->opcode() == Opcode::Call && I->callee() == Builtin::Barrier)
      ++Barriers;
  EXPECT_EQ(Barriers, 2u);
  EXPECT_EQ(K1->operand(0), L1);
  EXPECT_EQ(K2->operand(0), L2);
}

TEST(GvnTest, StoreKillsLoadsOfItsOwnAllocaOnly) {
  Straight S;
  Instruction *A = S.privateFloat("a");
  Instruction *C = S.privateFloat("c");
  Value *PA = S.B.createGep(A, S.B.getInt(0));
  Value *PC = S.B.createGep(C, S.B.getInt(0));
  S.B.createStore(S.B.getFloat(1.0f), PA);
  S.B.createStore(S.B.getFloat(2.0f), PC);
  Instruction *A1 = S.B.createLoad(PA, "a1");
  Instruction *C1 = S.B.createLoad(PC, "c1");
  S.B.createStore(S.B.getFloat(3.0f), PC); // Kills c's loads only.
  Instruction *A2 = S.B.createLoad(PA, "a2");
  Instruction *C2 = S.B.createLoad(PC, "c2");
  Instruction *KA1 = S.keep(A1, 0);
  Instruction *KA2 = S.keep(A2, 1);
  Instruction *KC1 = S.keep(C1, 2);
  Instruction *KC2 = S.keep(C2, 3);
  EXPECT_EQ(S.finish(), 1u);
  EXPECT_EQ(KA1->operand(0), A1);
  EXPECT_EQ(KA2->operand(0), A1); // a2 merged onto a1.
  EXPECT_EQ(KC1->operand(0), C1);
  EXPECT_EQ(KC2->operand(0), C2);
}

TEST(GvnTest, BarrierKillsLocalAndWritableLoadsButNotPrivate) {
  Straight S;
  Instruction *Priv = S.privateFloat("priv");
  Instruction *Tile =
      S.B.createAlloca(ScalarKind::Float, 4, AddressSpace::Local, "tile");
  Value *PPriv = S.B.createGep(Priv, S.B.getInt(0));
  Value *PTile = S.B.createGep(Tile, S.B.getInt(0));
  Value *PIo = S.B.createGep(S.Io, S.B.getInt(0));
  S.B.createStore(S.B.getFloat(1.0f), PPriv);
  S.B.createStore(S.B.getFloat(2.0f), PTile);
  Instruction *Priv1 = S.B.createLoad(PPriv, "priv1");
  Instruction *Tile1 = S.B.createLoad(PTile, "tile1");
  Instruction *Io1 = S.B.createLoad(PIo, "io1");
  S.B.createCall(Builtin::Barrier, {});
  Instruction *Priv2 = S.B.createLoad(PPriv, "priv2"); // Private memory.
  Instruction *Tile2 = S.B.createLoad(PTile, "tile2"); // Others write it.
  Instruction *Io2 = S.B.createLoad(PIo, "io2");       // Likewise.
  Instruction *K[] = {S.keep(Priv1, 0), S.keep(Tile1, 1), S.keep(Io1, 2),
                      S.keep(Priv2, 3), S.keep(Tile2, 4), S.keep(Io2, 5)};
  EXPECT_EQ(S.finish(), 1u);
  EXPECT_EQ(K[3]->operand(0), Priv1);
  EXPECT_EQ(K[4]->operand(0), Tile2);
  EXPECT_EQ(K[5]->operand(0), Io2);
}

TEST(GvnTest, StoreThroughArgumentKillsWritableArgumentLoads) {
  // A store through out may hit io (the host may bind one buffer to
  // both), but never an alloca; the const buffer in has no writer.
  Straight S;
  Instruction *Priv = S.privateFloat("priv");
  Value *PIo = S.B.createGep(S.Io, S.B.getInt(4));
  Value *PIn = S.B.createGep(S.In, S.B.getInt(4));
  Instruction *Io1 = S.B.createLoad(PIo, "io1");
  Instruction *In1 = S.B.createLoad(PIn, "in1");
  S.B.createStore(Io1, S.B.createGep(Priv, S.B.getInt(0)));
  Instruction *Io2 = S.B.createLoad(PIo, "io2"); // Merges onto io1.
  S.B.createStore(In1, S.B.createGep(S.Out, S.B.getInt(9)));
  Instruction *Io3 = S.B.createLoad(PIo, "io3"); // Killed.
  Instruction *In2 = S.B.createLoad(PIn, "in2"); // Merges onto in1.
  Instruction *KIo2 = S.keep(Io2, 0);
  Instruction *KIo3 = S.keep(Io3, 1);
  Instruction *KIn2 = S.keep(In2, 2);
  EXPECT_EQ(S.finish(), 2u);
  EXPECT_EQ(KIo2->operand(0), Io1);
  EXPECT_EQ(KIo3->operand(0), Io3);
  EXPECT_EQ(KIn2->operand(0), In1);
}

} // namespace
