//===- tests/sroa_test.cpp - Scalar replacement of aggregates tests ---------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Pins ir/SROA.h: constant-indexed private array allocas split into
// per-element scalars (which mem2reg then promotes); every refusal case
// -- variable index, out-of-bounds constant index, escaping GEP, local
// arrays -- leaves the IR untouched; and the default pipeline drives
// window arrays all the way to zero private allocas.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/Mem2Reg.h"
#include "ir/Passes.h"
#include "ir/SROA.h"
#include "ir/Verifier.h"
#include "pcl/Compiler.h"
#include "runtime/Session.h"

#include <gtest/gtest.h>

using namespace kperf;
using namespace kperf::ir;

namespace {

unsigned countAllocas(const Function &F, AddressSpace Space,
                      unsigned MinCount = 1) {
  unsigned N = 0;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (I->opcode() == Opcode::Alloca &&
          I->type().addressSpace() == Space &&
          I->allocaCount() >= MinCount)
        ++N;
  return N;
}

unsigned countOpcode(const Function &F, Opcode Op) {
  unsigned N = 0;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (I->opcode() == Op)
        ++N;
  return N;
}

/// Fixture with in/out float buffers, an int argument, and an open entry
/// block.
class SroaTest : public ::testing::Test {
protected:
  SroaTest() : B(M) {
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

  void finishAndVerify() {
    B.createRet();
    Error E = verifyFunction(*F);
    ASSERT_FALSE(E) << E.message();
  }

  Module M;
  Function *F = nullptr;
  Argument *In = nullptr;
  Argument *Out = nullptr;
  Argument *W = nullptr;
  BasicBlock *Entry = nullptr;
  IRBuilder B;
};

TEST_F(SroaTest, SplitsConstIndexedPrivateArray) {
  Instruction *A =
      B.createAlloca(ScalarKind::Float, 3, AddressSpace::Private, "win");
  for (int I = 0; I < 3; ++I)
    B.createStore(B.createLoad(B.createGep(In, M.getInt(I)), "li"),
                  B.createGep(A, M.getInt(I)));
  Value *Sum = B.createAdd(
      B.createLoad(B.createGep(A, M.getInt(0)), "l0"),
      B.createAdd(B.createLoad(B.createGep(A, M.getInt(1)), "l1"),
                  B.createLoad(B.createGep(A, M.getInt(2)), "l2")));
  B.createStore(Sum, B.createGep(Out, M.getInt(0)));
  finishAndVerify();

  EXPECT_GT(scalarizeAggregates(*F), 0u);
  Error E = verifyFunction(*F);
  EXPECT_FALSE(E) << E.message();
  // The array is gone, replaced by three scalar allocas; no GEP on
  // private memory survives (loads/stores hit the scalars directly).
  EXPECT_EQ(countAllocas(*F, AddressSpace::Private, 2), 0u);
  EXPECT_EQ(countAllocas(*F, AddressSpace::Private), 3u);
  for (const auto &BB : F->blocks())
    for (const auto &I : BB->instructions())
      if (I->opcode() == Opcode::Gep) {
        EXPECT_NE(I->operand(0)->type().addressSpace(),
                  AddressSpace::Private);
      }

  // mem2reg then finishes the job: zero private allocas.
  AnalysisManager AM;
  EXPECT_GT(promoteMemoryToRegisters(*F, M, AM), 0u);
  EXPECT_EQ(countAllocas(*F, AddressSpace::Private), 0u);
}

TEST_F(SroaTest, DirectArrayPointerUseMapsToElementZero) {
  Instruction *A =
      B.createAlloca(ScalarKind::Float, 2, AddressSpace::Private, "a");
  // A load/store of the raw array pointer addresses element 0.
  B.createStore(M.getFloat(1.0f), A);
  Instruction *L0 = B.createLoad(A, "l0");
  Instruction *L1 = B.createLoad(B.createGep(A, M.getInt(1)), "l1");
  B.createStore(B.createAdd(L0, L1), B.createGep(Out, M.getInt(0)));
  finishAndVerify();

  EXPECT_GT(scalarizeAggregates(*F), 0u);
  Error E = verifyFunction(*F);
  EXPECT_FALSE(E) << E.message();
  EXPECT_EQ(countAllocas(*F, AddressSpace::Private, 2), 0u);
  EXPECT_EQ(countAllocas(*F, AddressSpace::Private), 2u);
}

TEST_F(SroaTest, RefusesVariableIndex) {
  Instruction *A =
      B.createAlloca(ScalarKind::Float, 4, AddressSpace::Private, "a");
  B.createStore(M.getFloat(1.0f), B.createGep(A, M.getInt(0)));
  Instruction *LV = B.createLoad(B.createGep(A, W, "gv"), "lv");
  B.createStore(LV, B.createGep(Out, M.getInt(0)));
  finishAndVerify();

  // One runtime index anywhere disqualifies the whole array.
  EXPECT_EQ(scalarizeAggregates(*F), 0u);
  EXPECT_EQ(countAllocas(*F, AddressSpace::Private, 4), 1u);
}

TEST_F(SroaTest, RefusesOutOfBoundsConstIndex) {
  Instruction *A =
      B.createAlloca(ScalarKind::Float, 3, AddressSpace::Private, "a");
  B.createStore(M.getFloat(1.0f), B.createGep(A, M.getInt(0)));
  // A store past the end must keep its fault: splitting would drop it.
  B.createStore(M.getFloat(2.0f), B.createGep(A, M.getInt(5)));
  finishAndVerify();

  EXPECT_EQ(scalarizeAggregates(*F), 0u);
  EXPECT_EQ(countAllocas(*F, AddressSpace::Private, 3), 1u);
}

TEST_F(SroaTest, RefusesEscapingGep) {
  Instruction *A =
      B.createAlloca(ScalarKind::Float, 4, AddressSpace::Private, "a");
  // The GEP result feeds another GEP, not a direct load/store: the
  // element address escapes the pattern sroa can rewrite.
  Instruction *G1 = B.createGep(A, M.getInt(1), "g1");
  Instruction *G2 = B.createGep(G1, M.getInt(1), "g2");
  B.createStore(M.getFloat(1.0f), G2);
  finishAndVerify();

  EXPECT_EQ(scalarizeAggregates(*F), 0u);
  EXPECT_EQ(countAllocas(*F, AddressSpace::Private, 4), 1u);
}

TEST_F(SroaTest, LeavesLocalArraysAndScalarsAlone) {
  Instruction *T =
      B.createAlloca(ScalarKind::Float, 4, AddressSpace::Local, "tile");
  B.createStore(M.getFloat(1.0f), B.createGep(T, M.getInt(0)));
  Instruction *S =
      B.createAlloca(ScalarKind::Float, 1, AddressSpace::Private, "s");
  B.createStore(M.getFloat(2.0f), S);
  finishAndVerify();

  // Local tiles are shared across work items; single-element allocas
  // are already mem2reg's job.
  EXPECT_EQ(scalarizeAggregates(*F), 0u);
  EXPECT_EQ(countAllocas(*F, AddressSpace::Local), 1u);
  EXPECT_EQ(countAllocas(*F, AddressSpace::Private), 1u);
}

TEST(SroaPipelineTest, WindowArrayPromotesToZeroPrivateAllocas) {
  // The motivating shape: a filter window filled by a constant-trip loop
  // with runtime index arithmetic. unroll flattens the loop, simplify
  // folds the indices to constants, sroa splits, the in-fixpoint mem2reg
  // promotes -- no private traffic survives.
  rt::Session Ctx;
  Expected<Function *> F = pcl::compileKernel(Ctx.module(), R"(
kernel void k(global const float* in, global float* out, int w) {
  int x = get_global_id(0);
  float win[3];
  for (int i = 0; i < 3; i++) {
    win[i] = in[clamp(x + i, 0, w - 1)];
  }
  float acc = 0.0;
  for (int i = 0; i < 3; i++) {
    acc += win[i];
  }
  out[x] = acc;
}
)",
                                              "k");
  ASSERT_TRUE(static_cast<bool>(F)) << F.error().message();

  PipelineStats Stats = runDefaultPipeline(**F, Ctx.module());
  EXPECT_GT(Stats.changes("sroa"), 0u);
  EXPECT_EQ(countAllocas(**F, AddressSpace::Private), 0u);
  EXPECT_EQ(countOpcode(**F, Opcode::Load), 3u); // The three in[] reads.
  Error E = verifyFunction(**F);
  EXPECT_FALSE(E) << E.message();
}

} // namespace
