//===- tests/simplify_test.cpp - IR simplification pass tests ---------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "ir/DCE.h"
#include "ir/IRBuilder.h"
#include "ir/Simplify.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

using namespace kperf;
using namespace kperf::ir;

namespace {

/// Fixture providing a function with one global float* argument "buf" and
/// an entry block ready for instructions; finish() appends the ret and
/// verifies.
class SimplifyTest : public ::testing::Test {
protected:
  SimplifyTest() : B(M) {
    F = M.createFunction("f");
    Buf = F->addArgument(
        Type::pointerTo(ScalarKind::Float, AddressSpace::Global), "buf",
        false);
    IBuf = F->addArgument(
        Type::pointerTo(ScalarKind::Int, AddressSpace::Global), "ibuf",
        false);
    W = F->addArgument(Type::intTy(), "w", false);
    Entry = F->createBlock("entry");
    B.setInsertPoint(Entry);
  }

  /// Stores \p V to buf[0] / ibuf[0] so it stays alive, rets, simplifies.
  unsigned finishWith(Value *V) {
    Value *Ptr = V->type().isFloat() ? static_cast<Value *>(Buf) : IBuf;
    B.createStore(V, B.createGep(Ptr, M.getInt(0)));
    B.createRet();
    unsigned N = simplifyFunction(*F, M);
    EXPECT_FALSE(verifyFunction(*F));
    return N;
  }

  /// Returns the value stored by the (single) store instruction.
  Value *storedValue() {
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        if (I->opcode() == Opcode::Store)
          return I->operand(0);
    return nullptr;
  }

  Module M;
  Function *F = nullptr;
  Argument *Buf = nullptr;
  Argument *IBuf = nullptr;
  Argument *W = nullptr;
  BasicBlock *Entry = nullptr;
  IRBuilder B;
};

TEST_F(SimplifyTest, FoldsIntArithmetic) {
  Value *V = B.createMul(B.createAdd(M.getInt(2), M.getInt(3)),
                         M.getInt(4));
  EXPECT_GE(finishWith(V), 2u);
  auto *C = dyn_cast<ConstantInt>(storedValue());
  ASSERT_TRUE(C);
  EXPECT_EQ(C->value(), 20);
}

TEST_F(SimplifyTest, FoldsFloatArithmetic) {
  Value *V = B.createDiv(B.createSub(M.getFloat(3.0f), M.getFloat(1.0f)),
                         M.getFloat(4.0f));
  finishWith(V);
  auto *C = dyn_cast<ConstantFloat>(storedValue());
  ASSERT_TRUE(C);
  EXPECT_FLOAT_EQ(C->value(), 0.5f);
}

TEST_F(SimplifyTest, AddZeroIdentity) {
  Value *V = B.createAdd(W, M.getInt(0));
  finishWith(V);
  EXPECT_EQ(storedValue(), W);
}

TEST_F(SimplifyTest, MulOneAndZero) {
  Value *One = B.createMul(W, M.getInt(1));
  Value *Zero = B.createMul(W, M.getInt(0));
  Value *Sum = B.createAdd(One, Zero); // w*1 + w*0 -> w + 0 -> w.
  finishWith(Sum);
  EXPECT_EQ(storedValue(), W);
}

TEST_F(SimplifyTest, SubSelfIsZero) {
  Value *V = B.createSub(W, W);
  finishWith(V);
  auto *C = dyn_cast<ConstantInt>(storedValue());
  ASSERT_TRUE(C);
  EXPECT_EQ(C->value(), 0);
}

TEST_F(SimplifyTest, DivRemByOne) {
  Value *V = B.createAdd(B.createDiv(W, M.getInt(1)),
                         B.createRem(W, M.getInt(1)));
  finishWith(V); // w/1 + w%1 -> w + 0 -> w.
  EXPECT_EQ(storedValue(), W);
}

TEST_F(SimplifyTest, DivByZeroNotFolded) {
  Value *V = B.createDiv(M.getInt(5), M.getInt(0));
  finishWith(V);
  EXPECT_TRUE(isa<Instruction>(storedValue())); // Left for runtime fault.
}

TEST_F(SimplifyTest, IntMinDivMinusOneWraps) {
  // INT32_MIN / -1 overflows int32; the fold wraps like the simulator
  // instead of trapping the compiler.
  finishWith(B.createDiv(M.getInt(INT32_MIN), M.getInt(-1)));
  auto *C = dyn_cast<ConstantInt>(storedValue());
  ASSERT_TRUE(C);
  EXPECT_EQ(C->value(), INT32_MIN);
}

TEST_F(SimplifyTest, IntMinRemMinusOneIsZero) {
  finishWith(B.createRem(M.getInt(INT32_MIN), M.getInt(-1)));
  auto *C = dyn_cast<ConstantInt>(storedValue());
  ASSERT_TRUE(C);
  EXPECT_EQ(C->value(), 0);
}

TEST_F(SimplifyTest, NegOfIntMinWraps) {
  finishWith(B.createNeg(M.getInt(INT32_MIN)));
  auto *C = dyn_cast<ConstantInt>(storedValue());
  ASSERT_TRUE(C);
  EXPECT_EQ(C->value(), INT32_MIN);
}

TEST_F(SimplifyTest, AbsOfIntMinWraps) {
  finishWith(B.createCall(Builtin::Abs, {M.getInt(INT32_MIN)}));
  auto *C = dyn_cast<ConstantInt>(storedValue());
  ASSERT_TRUE(C);
  EXPECT_EQ(C->value(), INT32_MIN);
}

TEST_F(SimplifyTest, FloatToIntOfNaNOrOutOfRangeIsIntMin) {
  // The fold converts as both simulator tiers do. Each value gets a
  // module of its own: Module::getFloat keys constants by value, and NaN
  // cannot be ordered against another key.
  for (float V : {std::nanf(""), 1e10f, -1e10f}) {
    Module Mod;
    Function *Fn = Mod.createFunction("f");
    Argument *Out = Fn->addArgument(
        Type::pointerTo(ScalarKind::Int, AddressSpace::Global), "out", false);
    IRBuilder Bld(Mod);
    Bld.setInsertPoint(Fn->createBlock("entry"));
    Instruction *Conv = Bld.createFloatToInt(Mod.getFloat(V));
    Instruction *St = Bld.createStore(Conv, Bld.createGep(Out, Mod.getInt(0)));
    Bld.createRet();
    simplifyFunction(*Fn, Mod);
    EXPECT_FALSE(verifyFunction(*Fn));
    auto *C = dyn_cast<ConstantInt>(St->operand(0));
    ASSERT_TRUE(C) << V;
    EXPECT_EQ(C->value(), INT32_MIN) << V;
  }
}

TEST_F(SimplifyTest, FoldsComparisons) {
  Value *V = B.createSelect(
      B.createCmp(Opcode::CmpLt, M.getInt(2), M.getInt(5)),
      M.getFloat(1.0f), M.getFloat(2.0f));
  finishWith(V);
  auto *C = dyn_cast<ConstantFloat>(storedValue());
  ASSERT_TRUE(C);
  EXPECT_FLOAT_EQ(C->value(), 1.0f);
}

TEST_F(SimplifyTest, LogicalShortcuts) {
  Value *Dyn = B.createCmp(Opcode::CmpGt, W, M.getInt(0));
  // (dyn && true) || false -> dyn.
  Value *V = B.createLogical(
      Opcode::LogicalOr,
      B.createLogical(Opcode::LogicalAnd, Dyn, M.getBool(true)),
      M.getBool(false));
  Value *Sel = B.createSelect(V, M.getInt(1), M.getInt(0));
  finishWith(Sel);
  const auto *SelI = dyn_cast<Instruction>(storedValue());
  ASSERT_TRUE(SelI);
  EXPECT_EQ(SelI->operand(0), Dyn);
}

TEST_F(SimplifyTest, DoubleNotAndNeg) {
  Value *Dyn = B.createCmp(Opcode::CmpGt, W, M.getInt(0));
  Value *NotNot = B.createNot(B.createNot(Dyn));
  Value *Sel = B.createSelect(NotNot, M.getInt(1), M.getInt(0));
  finishWith(Sel);
  EXPECT_EQ(dyn_cast<Instruction>(storedValue())->operand(0), Dyn);
}

TEST_F(SimplifyTest, SelectSameArms) {
  Value *Dyn = B.createCmp(Opcode::CmpGt, W, M.getInt(0));
  Value *V = B.createSelect(Dyn, W, W);
  finishWith(V);
  EXPECT_EQ(storedValue(), W);
}

TEST_F(SimplifyTest, FoldsMathBuiltins) {
  Value *V = B.createAdd(
      B.createCall(Builtin::Min, {M.getFloat(2.0f), M.getFloat(7.0f)}),
      B.createCall(Builtin::Sqrt, {M.getFloat(9.0f)}));
  finishWith(V);
  auto *C = dyn_cast<ConstantFloat>(storedValue());
  ASSERT_TRUE(C);
  EXPECT_FLOAT_EQ(C->value(), 5.0f);
}

TEST_F(SimplifyTest, FoldsClampInt) {
  Value *V = B.createClampInt(M.getInt(12), M.getInt(0), M.getInt(9));
  finishWith(V);
  auto *C = dyn_cast<ConstantInt>(storedValue());
  ASSERT_TRUE(C);
  EXPECT_EQ(C->value(), 9);
}

TEST_F(SimplifyTest, FoldsCasts) {
  Value *V = B.createIntToFloat(M.getInt(3));
  finishWith(V);
  auto *C = dyn_cast<ConstantFloat>(storedValue());
  ASSERT_TRUE(C);
  EXPECT_FLOAT_EQ(C->value(), 3.0f);
}

TEST_F(SimplifyTest, CondBrOnConstantBecomesBr) {
  BasicBlock *Then = F->createBlock("then");
  BasicBlock *Else = F->createBlock("else");
  B.createCondBr(M.getBool(true), Then, Else);
  B.setInsertPoint(Then);
  B.createRet();
  B.setInsertPoint(Else);
  B.createRet();
  EXPECT_GE(simplifyFunction(*F, M), 0u);
  Instruction *T = Entry->terminator();
  ASSERT_TRUE(T);
  EXPECT_EQ(T->opcode(), Opcode::Br);
  EXPECT_EQ(T->branchTarget(0), Then);
  EXPECT_FALSE(verifyFunction(*F));
}

TEST_F(SimplifyTest, PairsWithDCEToShrinkFunction) {
  Value *V = B.createMul(B.createAdd(M.getInt(1), M.getInt(2)),
                         B.createSub(M.getInt(9), M.getInt(3)));
  finishWith(V); // (1+2)*(9-3) = 18: three instructions fold away.
  unsigned Deleted = eliminateDeadCode(*F);
  EXPECT_EQ(Deleted, 3u);
  EXPECT_EQ(Entry->size(), 3u); // gep + store + ret.
}

TEST_F(SimplifyTest, FloatIdentitiesNotApplied) {
  // x + 0.0f must NOT fold (x could be -0.0 or NaN).
  Value *X = B.createLoad(B.createGep(Buf, M.getInt(1)));
  Value *V = B.createAdd(X, M.getFloat(0.0f));
  finishWith(V);
  EXPECT_EQ(storedValue(), V);
}

TEST_F(SimplifyTest, IdempotentAtFixpoint) {
  Value *V = B.createMul(B.createAdd(W, M.getInt(0)), M.getInt(1));
  finishWith(V);
  EXPECT_EQ(simplifyFunction(*F, M), 0u); // Second run: nothing to do.
}

} // namespace
