//===- tests/interp_test.cpp - Simulator/interpreter tests ------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Executes small PCL kernels on the simulator and checks results, OpenCL
// semantics (barriers, local memory, work-item queries), fault detection,
// and the performance counters (coalescing, bank conflicts, cost model).
// The counter cases run on both execution tiers: the tiers share one
// memory-accounting engine, so these hand-computed counts, not a
// comparison between the tiers, are what specifies it.
//
//===----------------------------------------------------------------------===//

#include "CompilePromoted.h"
#include "gpusim/Bytecode.h"
#include "gpusim/CostModel.h"
#include "gpusim/ExecCommon.h"
#include "gpusim/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "pcl/Compiler.h"

#include <cmath>
#include <gtest/gtest.h>
#include <string>
#include <utility>

using namespace kperf;
using namespace kperf::sim;

namespace {

/// Fixture that compiles a kernel and runs it over buffers.
class InterpTest : public ::testing::Test {
protected:
  ir::Function *compile(const std::string &Source,
                        const std::string &Name) {
    Expected<ir::Function *> F = pcl::compileKernel(M, Source, Name);
    EXPECT_TRUE(static_cast<bool>(F)) << (F ? "" : F.error().message());
    return F ? *F : nullptr;
  }

  Expected<SimReport> run(ir::Function *F, Range2 Global, Range2 Local,
                          const std::vector<KernelArg> &Args) {
    return launchKernel(*F, Global, Local, Args, Buffers, Device);
  }

  unsigned makeBuffer(size_t N) {
    Buffers.emplace_back(N);
    return static_cast<unsigned>(Buffers.size() - 1);
  }

  unsigned makeBuffer(const std::vector<float> &V) {
    Buffers.emplace_back();
    Buffers.back().uploadFloats(V);
    return static_cast<unsigned>(Buffers.size() - 1);
  }

  ir::Module M;
  std::vector<BufferData> Buffers;
  DeviceConfig Device;
};

/// InterpTest whose run() executes on the tier the test is instantiated
/// with.
class InterpCounterTest : public InterpTest,
                          public ::testing::WithParamInterface<ExecTier> {
protected:
  Expected<SimReport> run(ir::Function *F, Range2 Global, Range2 Local,
                          const std::vector<KernelArg> &Args) {
    std::vector<BufferData *> Bank;
    for (BufferData &B : Buffers)
      Bank.push_back(&B);
    LaunchOptions Opts;
    Opts.Tier = GetParam();
    return launchKernel(*F, Global, Local, Args, Bank, Device, Opts);
  }
};

std::string tierName(const ::testing::TestParamInfo<ExecTier> &Info) {
  return execTierName(Info.param);
}

INSTANTIATE_TEST_SUITE_P(Tiers, InterpCounterTest,
                         ::testing::Values(ExecTier::Tree, ExecTier::Batched),
                         tierName);

/// InterpCounterTest for kernels in promoted (mem2reg) IR, whose outputs
/// the cases compute themselves: these pin values, not counters.
class InterpValueTest : public InterpCounterTest {
protected:
  ir::Function *compilePromoted(const std::string &Source) {
    Expected<ir::Function *> F = kperf::compilePromoted(M, Source, "f");
    EXPECT_TRUE(static_cast<bool>(F)) << (F ? "" : F.error().message());
    return F ? *F : nullptr;
  }

  static unsigned countPhis(const ir::Function &F) {
    unsigned N = 0;
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions())
        N += I->opcode() == ir::Opcode::Phi;
    return N;
  }
};

INSTANTIATE_TEST_SUITE_P(Tiers, InterpValueTest,
                         ::testing::Values(ExecTier::Tree, ExecTier::Batched),
                         tierName);

//===----------------------------------------------------------------------===//
// Basic execution and arithmetic
//===----------------------------------------------------------------------===//

TEST_F(InterpTest, GlobalIdWrite) {
  ir::Function *F = compile(
      "kernel void f(global float* out, int w, int h) {"
      "  out[get_global_id(1) * w + get_global_id(0)] ="
      "      (float)(get_global_id(0) + 10 * get_global_id(1));"
      "}",
      "f");
  unsigned Out = makeBuffer(16);
  cantFail(run(F, {4, 4}, {2, 2},
               {KernelArg::makeBuffer(Out), KernelArg::makeInt(4),
                KernelArg::makeInt(4)}));
  for (unsigned Y = 0; Y < 4; ++Y)
    for (unsigned X = 0; X < 4; ++X)
      EXPECT_FLOAT_EQ(Buffers[Out].floatAt(Y * 4 + X),
                      static_cast<float>(X + 10 * Y));
}

TEST_F(InterpTest, IntegerArithmetic) {
  ir::Function *F = compile(
      "kernel void f(global int* out) {"
      "  out[0] = 7 + 3; out[1] = 7 - 3; out[2] = 7 * 3;"
      "  out[3] = 7 / 3; out[4] = 7 % 3; out[5] = -7;"
      "}",
      "f");
  unsigned Out = makeBuffer(6);
  cantFail(run(F, {1, 1}, {1, 1}, {KernelArg::makeBuffer(Out)}));
  int32_t Expected[] = {10, 4, 21, 2, 1, -7};
  for (int I = 0; I < 6; ++I)
    EXPECT_EQ(Buffers[Out].intAt(I), Expected[I]) << I;
}

TEST_F(InterpTest, FloatArithmetic) {
  ir::Function *F = compile(
      "kernel void f(global float* out) {"
      "  out[0] = 1.5 + 2.25; out[1] = 1.5 * 4.0; out[2] = 1.0 / 8.0;"
      "  out[3] = 5.5 - 10.0;"
      "}",
      "f");
  unsigned Out = makeBuffer(4);
  cantFail(run(F, {1, 1}, {1, 1}, {KernelArg::makeBuffer(Out)}));
  EXPECT_FLOAT_EQ(Buffers[Out].floatAt(0), 3.75f);
  EXPECT_FLOAT_EQ(Buffers[Out].floatAt(1), 6.0f);
  EXPECT_FLOAT_EQ(Buffers[Out].floatAt(2), 0.125f);
  EXPECT_FLOAT_EQ(Buffers[Out].floatAt(3), -4.5f);
}

TEST_F(InterpTest, MathBuiltins) {
  ir::Function *F = compile(
      "kernel void f(global float* out) {"
      "  out[0] = sqrt(16.0); out[1] = exp(0.0); out[2] = log(1.0);"
      "  out[3] = pow(2.0, 10.0); out[4] = floor(2.9);"
      "  out[5] = fabs(-3.5); out[6] = min(2.0, 7.0);"
      "  out[7] = max(2.0, 7.0); out[8] = clamp(9.0, 0.0, 5.0);"
      "}",
      "f");
  unsigned Out = makeBuffer(9);
  cantFail(run(F, {1, 1}, {1, 1}, {KernelArg::makeBuffer(Out)}));
  float Expected[] = {4, 1, 0, 1024, 2, 3.5f, 2, 7, 5};
  for (int I = 0; I < 9; ++I)
    EXPECT_FLOAT_EQ(Buffers[Out].floatAt(I), Expected[I]) << I;
}

TEST_F(InterpTest, IntBuiltins) {
  ir::Function *F = compile(
      "kernel void f(global int* out) {"
      "  out[0] = min(3, -2); out[1] = max(3, -2);"
      "  out[2] = clamp(-5, 0, 9); out[3] = clamp(12, 0, 9);"
      "  out[4] = abs(-6);"
      "}",
      "f");
  unsigned Out = makeBuffer(5);
  cantFail(run(F, {1, 1}, {1, 1}, {KernelArg::makeBuffer(Out)}));
  int32_t Expected[] = {-2, 3, 0, 9, 6};
  for (int I = 0; I < 5; ++I)
    EXPECT_EQ(Buffers[Out].intAt(I), Expected[I]) << I;
}

TEST_F(InterpTest, ControlFlowSelectAndBranch) {
  ir::Function *F = compile(
      "kernel void f(global int* out) {"
      "  int x = get_global_id(0);"
      "  if (x % 2 == 0) out[x] = 100 + x; else out[x] = 200 + x;"
      "  out[8 + x] = x < 2 ? 1 : 0;"
      "}",
      "f");
  unsigned Out = makeBuffer(16);
  cantFail(run(F, {8, 1}, {4, 1}, {KernelArg::makeBuffer(Out)}));
  for (int X = 0; X < 8; ++X) {
    EXPECT_EQ(Buffers[Out].intAt(X), (X % 2 == 0 ? 100 : 200) + X);
    EXPECT_EQ(Buffers[Out].intAt(8 + X), X < 2 ? 1 : 0);
  }
}

TEST_F(InterpTest, LoopsAndPrivateArrays) {
  ir::Function *F = compile(
      "kernel void f(global int* out) {"
      "  int a[8];"
      "  for (int i = 0; i < 8; i++) a[i] = i * i;"
      "  int sum = 0;"
      "  for (int i = 0; i < 8; i++) sum += a[i];"
      "  out[0] = sum;"
      "  int j = 0; int steps = 0;"
      "  while (j < 100) { j += 7; steps++; }"
      "  out[1] = steps;"
      "}",
      "f");
  unsigned Out = makeBuffer(2);
  cantFail(run(F, {1, 1}, {1, 1}, {KernelArg::makeBuffer(Out)}));
  EXPECT_EQ(Buffers[Out].intAt(0), 140); // sum of squares 0..7
  EXPECT_EQ(Buffers[Out].intAt(1), 15);  // ceil(100/7)
}

TEST_F(InterpTest, WorkItemQueries) {
  ir::Function *F = compile(
      "kernel void f(global int* out) {"
      "  if (get_global_id(0) == 0 && get_global_id(1) == 0) {"
      "    out[0] = get_global_size(0); out[1] = get_global_size(1);"
      "    out[2] = get_local_size(0);  out[3] = get_local_size(1);"
      "    out[4] = get_num_groups(0);  out[5] = get_num_groups(1);"
      "  }"
      "  if (get_global_id(0) == 5 && get_global_id(1) == 3) {"
      "    out[6] = get_local_id(0); out[7] = get_local_id(1);"
      "    out[8] = get_group_id(0); out[9] = get_group_id(1);"
      "  }"
      "}",
      "f");
  unsigned Out = makeBuffer(10);
  cantFail(run(F, {8, 4}, {4, 2}, {KernelArg::makeBuffer(Out)}));
  int32_t Expected[] = {8, 4, 4, 2, 2, 2, /*lx=*/1, /*ly=*/1,
                        /*gx=*/1, /*gy=*/1};
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(Buffers[Out].intAt(I), Expected[I]) << I;
}

TEST_F(InterpTest, ScalarArgsPassed) {
  ir::Function *F = compile(
      "kernel void f(global float* out, int k, float s) {"
      "  out[0] = (float)k * s;"
      "}",
      "f");
  unsigned Out = makeBuffer(1);
  cantFail(run(F, {1, 1}, {1, 1},
               {KernelArg::makeBuffer(Out), KernelArg::makeInt(6),
                KernelArg::makeFloat(2.5f)}));
  EXPECT_FLOAT_EQ(Buffers[Out].floatAt(0), 15.0f);
}

//===----------------------------------------------------------------------===//
// Local memory and barriers
//===----------------------------------------------------------------------===//

TEST_F(InterpTest, LocalMemoryReverseViaBarrier) {
  // Each item writes its lid, barrier, then reads the mirrored slot.
  ir::Function *F = compile(
      "kernel void f(global int* out) {"
      "  local int t[8];"
      "  int l = get_local_id(0);"
      "  t[l] = l * 10;"
      "  barrier();"
      "  out[get_global_id(0)] = t[7 - l];"
      "}",
      "f");
  unsigned Out = makeBuffer(16);
  cantFail(run(F, {16, 1}, {8, 1}, {KernelArg::makeBuffer(Out)}));
  for (int G = 0; G < 16; ++G)
    EXPECT_EQ(Buffers[Out].intAt(G), (7 - (G % 8)) * 10) << G;
}

TEST_F(InterpTest, LocalMemoryIsPerGroup) {
  // Group 1 must not observe group 0's writes.
  ir::Function *F = compile(
      "kernel void f(global int* out) {"
      "  local int t[4];"
      "  int l = get_local_id(0);"
      "  if (get_group_id(0) == 0) t[l] = 99;"
      "  barrier();"
      "  out[get_global_id(0)] = t[l];"
      "}",
      "f");
  unsigned Out = makeBuffer(8);
  cantFail(run(F, {8, 1}, {4, 1}, {KernelArg::makeBuffer(Out)}));
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(Buffers[Out].intAt(I), 99);
  for (int I = 4; I < 8; ++I)
    EXPECT_EQ(Buffers[Out].intAt(I), 0); // Zero-initialized fresh arena.
}

TEST_F(InterpTest, MultipleBarrierPhases) {
  ir::Function *F = compile(
      "kernel void f(global int* out) {"
      "  local int t[4];"
      "  int l = get_local_id(0);"
      "  t[l] = l;"
      "  barrier();"
      "  int v1 = t[(l + 1) % 4];"
      "  barrier();"
      "  t[l] = v1 * 2;"
      "  barrier();"
      "  out[l] = t[(l + 1) % 4];"
      "}",
      "f");
  unsigned Out = makeBuffer(4);
  cantFail(run(F, {4, 1}, {4, 1}, {KernelArg::makeBuffer(Out)}));
  // t after phase 3: t[l] = ((l+1)%4)*2; out[l] = t[(l+1)%4].
  for (int L = 0; L < 4; ++L)
    EXPECT_EQ(Buffers[Out].intAt(L), ((L + 2) % 4) * 2) << L;
}

TEST_F(InterpTest, BarrierCountsInReport) {
  ir::Function *F = compile(
      "kernel void f(global int* out) {"
      "  local int t[2]; t[0] = 0;"
      "  barrier(); barrier();"
      "  out[0] = t[0];"
      "}",
      "f");
  unsigned Out = makeBuffer(1);
  SimReport R =
      cantFail(run(F, {8, 1}, {4, 1}, {KernelArg::makeBuffer(Out)}));
  EXPECT_EQ(R.Totals.Barriers, 16u); // 8 items x 2 barriers.
}

TEST_F(InterpTest, DivergentBarrierDetected) {
  ir::Function *F = compile(
      "kernel void f(global int* out) {"
      "  if (get_local_id(0) == 0) barrier();"
      "  out[0] = 0;"
      "}",
      "f");
  unsigned Out = makeBuffer(1);
  Expected<SimReport> R =
      run(F, {4, 1}, {4, 1}, {KernelArg::makeBuffer(Out)});
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.error().message().find("barrier"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Fault detection
//===----------------------------------------------------------------------===//

TEST_F(InterpTest, GlobalReadOutOfBounds) {
  ir::Function *F = compile(
      "kernel void f(global const float* in, global float* out) {"
      "  out[0] = in[100];"
      "}",
      "f");
  unsigned In = makeBuffer(4);
  unsigned Out = makeBuffer(4);
  Expected<SimReport> R =
      run(F, {1, 1}, {1, 1},
          {KernelArg::makeBuffer(In), KernelArg::makeBuffer(Out)});
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.error().message().find("out of bounds"), std::string::npos);
}

TEST_F(InterpTest, GlobalWriteOutOfBounds) {
  ir::Function *F = compile(
      "kernel void f(global float* out) { out[-1] = 0.0; }", "f");
  unsigned Out = makeBuffer(4);
  Expected<SimReport> R =
      run(F, {1, 1}, {1, 1}, {KernelArg::makeBuffer(Out)});
  ASSERT_FALSE(static_cast<bool>(R));
}

TEST_F(InterpTest, LocalOutOfBounds) {
  ir::Function *F = compile(
      "kernel void f(global int* out) {"
      "  local int t[4]; t[9] = 1; out[0] = t[0];"
      "}",
      "f");
  unsigned Out = makeBuffer(1);
  Expected<SimReport> R =
      run(F, {1, 1}, {1, 1}, {KernelArg::makeBuffer(Out)});
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.error().message().find("local write"), std::string::npos);
}

TEST_F(InterpTest, DivisionByZeroReported) {
  ir::Function *F = compile(
      "kernel void f(global int* out, int d) { out[0] = 5 / d; }", "f");
  unsigned Out = makeBuffer(1);
  Expected<SimReport> R =
      run(F, {1, 1}, {1, 1},
          {KernelArg::makeBuffer(Out), KernelArg::makeInt(0)});
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.error().message().find("division by zero"),
            std::string::npos);
}

TEST_F(InterpTest, PhiWithoutValueForTheTakenEdgeFaults) {
  // Unverified IR: a phi runs as a copy on the edge into its block, so
  // an edge it has no value for faults when taken, and so does a phi
  // reached without an edge (in the entry block, or below a non-phi).
  // Items 0-3 take the then-edge, items 4-7 the else-edge.
  enum class Bad { MissingEdge, InEntry, BelowNonPhi };
  for (Bad Case : {Bad::MissingEdge, Bad::InEntry, Bad::BelowNonPhi}) {
    ir::Function *F = M.createFunction("bad" + std::to_string(int(Case)));
    ir::Argument *Out = F->addArgument(
        ir::Type::pointerTo(ir::ScalarKind::Int, ir::AddressSpace::Global),
        "out", false);
    ir::BasicBlock *Entry = F->createBlock("entry");
    ir::BasicBlock *Then = F->createBlock("then");
    ir::BasicBlock *Else = F->createBlock("else");
    ir::BasicBlock *Join = F->createBlock("join");
    ir::IRBuilder B(M);
    B.setInsertPoint(Entry);
    ir::Value *X = B.createCall(ir::Builtin::GetGlobalId, {M.getInt(0)});
    B.createCondBr(B.createCmp(ir::Opcode::CmpLt, X, M.getInt(4)), Then,
                   Else);
    B.setInsertPoint(Then);
    B.createBr(Join);
    B.setInsertPoint(Else);
    B.createBr(Join);
    B.setInsertPoint(Case == Bad::InEntry ? Entry : Join);
    ir::Instruction *Phi = B.createPhi(ir::Type::intTy(), "p");
    Phi->addIncoming(M.getInt(7), Then);
    if (Case != Bad::MissingEdge)
      Phi->addIncoming(M.getInt(9), Else);
    if (Case == Bad::BelowNonPhi) {
      B.setInsertPoint(Join, 0);
      B.createAdd(X, M.getInt(1));
    }
    B.setInsertPoint(Join);
    B.createStore(Phi, B.createGep(Out, X));
    B.createRet();
    EXPECT_TRUE(static_cast<bool>(ir::verifyFunction(*F)));

    Buffers.clear();
    unsigned OutB = makeBuffer(8);
    Expected<SimReport> R =
        run(F, {8, 1}, {8, 1}, {KernelArg::makeBuffer(OutB)});
    ASSERT_FALSE(static_cast<bool>(R)) << int(Case);
    EXPECT_NE(R.error().message().find(
                  "phi has no incoming value for the executed edge"),
              std::string::npos)
        << R.error().message();
  }
}

//===----------------------------------------------------------------------===//
// Phis on CFG edges and pointer selects, against hand-computed values
//===----------------------------------------------------------------------===//

TEST_P(InterpValueTest, SwapCycleOnLoopBackEdge) {
  // a and b are loop-header phis whose back-edge values are each other:
  // a parallel copy with a cycle. Five iterations swap an odd number of
  // times, so a copy that overwrites a before b reads it shows.
  ir::Function *F = compilePromoted("kernel void f(global const float* in, "
                                    "global float* out) {"
                                    "  int x = get_global_id(0);"
                                    "  float a = in[x];"
                                    "  float b = a * 3.0 + 1.0;"
                                    "  for (int i = 0; i < 5; i++) {"
                                    "    float t = a;"
                                    "    a = b;"
                                    "    b = t;"
                                    "  }"
                                    "  out[x] = a * 2.0 - b;"
                                    "}");
  ASSERT_NE(F, nullptr);
  EXPECT_GE(countPhis(*F), 3u); // a, b and i.
  std::vector<float> In(32);
  for (size_t X = 0; X < In.size(); ++X)
    In[X] = 0.25f * static_cast<float>(X) - 3.0f;
  unsigned InB = makeBuffer(In);
  unsigned Out = makeBuffer(In.size());
  cantFail(run(F, {32, 1}, {16, 1},
               {KernelArg::makeBuffer(InB), KernelArg::makeBuffer(Out)}));
  for (size_t X = 0; X < In.size(); ++X) {
    float A = In[X], B = A * 3.0f + 1.0f;
    for (int I = 0; I < 5; ++I)
      std::swap(A, B);
    EXPECT_EQ(Buffers[Out].floatAt(X), A * 2.0f - B) << X;
  }
}

TEST_P(InterpValueTest, LoopPhisLiveAcrossBarriers) {
  // The header phis (acc, k) and the ids stay live across both barriers
  // and the back edge, and every iteration reads another item's slot: an
  // item that lost a value while suspended, or ran ahead of its group,
  // changes the output.
  ir::Function *F = compilePromoted("kernel void f(global const float* in, "
                                    "global float* out) {"
                                    "  local float t[16];"
                                    "  int l = get_local_id(0);"
                                    "  int g = get_global_id(0);"
                                    "  float acc = in[g];"
                                    "  for (int k = 0; k < 3; k++) {"
                                    "    t[l] = acc + (float)k;"
                                    "    barrier();"
                                    "    acc += t[15 - l] * 0.5;"
                                    "    barrier();"
                                    "  }"
                                    "  out[g] = acc;"
                                    "}");
  ASSERT_NE(F, nullptr);
  EXPECT_GE(countPhis(*F), 2u); // acc and k.
  std::vector<float> In(32);
  for (size_t X = 0; X < In.size(); ++X)
    In[X] = 1.0f + static_cast<float>(X);
  unsigned InB = makeBuffer(In);
  unsigned Out = makeBuffer(In.size());
  cantFail(run(F, {32, 1}, {16, 1},
               {KernelArg::makeBuffer(InB), KernelArg::makeBuffer(Out)}));
  std::vector<float> Acc = In;
  for (size_t G0 = 0; G0 < Acc.size(); G0 += 16)
    for (int K = 0; K < 3; ++K) {
      float T[16];
      for (size_t L = 0; L < 16; ++L)
        T[L] = Acc[G0 + L] + static_cast<float>(K);
      for (size_t L = 0; L < 16; ++L)
        Acc[G0 + L] += T[15 - L] * 0.5f;
    }
  for (size_t X = 0; X < Acc.size(); ++X)
    EXPECT_FLOAT_EQ(Buffers[Out].floatAt(X), Acc[X]) << X;
}

TEST_P(InterpValueTest, SelectOfGlobalPointersKeepsItsBuffer) {
  // A select between two buffer arguments yields a pointer whose buffer
  // index rides in the value's scalar payload; a gep and a load off it
  // must read the chosen buffer. A leading unused buffer keeps both
  // indices nonzero.
  ir::Function *F = M.createFunction("f");
  ir::Type FloatPtr =
      ir::Type::pointerTo(ir::ScalarKind::Float, ir::AddressSpace::Global);
  ir::Argument *A = F->addArgument(FloatPtr, "a", true);
  ir::Argument *Bp = F->addArgument(FloatPtr, "b", true);
  ir::Argument *Out = F->addArgument(FloatPtr, "out", false);
  ir::IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  ir::Value *X = B.createCall(ir::Builtin::GetGlobalId, {M.getInt(0)}, "x");
  ir::Value *Even = B.createCmp(
      ir::Opcode::CmpEq, B.createRem(X, M.getInt(2)), M.getInt(0), "even");
  ir::Value *P = B.createSelect(Even, A, Bp, "p");
  ir::Value *V = B.createLoad(B.createGep(P, B.createAdd(X, M.getInt(1))));
  B.createStore(V, B.createGep(Out, X));
  B.createRet();
  ASSERT_FALSE(ir::verifyFunction(*F));

  makeBuffer(1);
  std::vector<float> AV(17), BV(17);
  for (size_t I = 0; I < AV.size(); ++I) {
    AV[I] = 100.0f + static_cast<float>(I);
    BV[I] = 200.0f + static_cast<float>(I);
  }
  unsigned AB = makeBuffer(AV);
  unsigned BB = makeBuffer(BV);
  unsigned OutB = makeBuffer(16);
  cantFail(run(F, {16, 1}, {8, 1},
               {KernelArg::makeBuffer(AB), KernelArg::makeBuffer(BB),
                KernelArg::makeBuffer(OutB)}));
  for (size_t X = 0; X < 16; ++X)
    EXPECT_EQ(Buffers[OutB].floatAt(X), (X % 2 == 0 ? AV : BV)[X + 1]) << X;
}

//===----------------------------------------------------------------------===//
// Fused pairs, against hand-computed values and counters
//===----------------------------------------------------------------------===//

/// How many pairs of kind \p Kind sim::planFusedPairs plans in \p F: the
/// cases below check that the pair they target is (or is not) fused.
unsigned plannedPairs(const ir::Function &F, FusedPair Kind) {
  unsigned N = 0;
  for (FusedPair P : planFusedPairs(F))
    N += P == Kind;
  return N;
}

TEST_P(InterpValueTest, FusedAccessOutOfBoundsFaultsWithTheUnfusedText) {
  // A gep folded into its load or store faults at the offset after the
  // gep's add, with the unfused op's text. Items 0 and 1 stay in bounds;
  // item 2 is the first out of bounds. The global case reads through a
  // gep of a gep, so the offset in the text is the sum of both indices.
  enum class Case { LocalWrite, LocalRead, GlobalRead };
  const std::pair<Case, const char *> Cases[] = {
      {Case::LocalWrite,
       "kernel 'f': local write out of bounds (offset 4, size 4 words)"},
      {Case::LocalRead,
       "kernel 'f': local read out of bounds (offset 4, size 4 words)"},
      {Case::GlobalRead, "kernel 'f': global read out of bounds (buffer 0, "
                         "offset 5, size 5)"},
  };
  for (const auto &[Kind, Text] : Cases) {
    ir::Module Mod;
    ir::Function *F = Mod.createFunction("f");
    ir::Type IntPtr =
        ir::Type::pointerTo(ir::ScalarKind::Int, ir::AddressSpace::Global);
    ir::Argument *In = F->addArgument(IntPtr, "in", true);
    ir::Argument *Out = F->addArgument(IntPtr, "out", false);
    ir::Argument *K = F->addArgument(ir::Type::intTy(), "k", false);
    ir::IRBuilder B(Mod);
    B.setInsertPoint(F->createBlock("entry"));
    ir::Value *Tile = B.createAlloca(ir::ScalarKind::Int, 4,
                                     ir::AddressSpace::Local, "tile");
    ir::Value *X = B.createCall(ir::Builtin::GetGlobalId, {Mod.getInt(0)});
    ir::Value *Idx = B.createAdd(X, K);
    if (Kind == Case::LocalWrite) {
      B.createStore(X, B.createGep(Tile, Idx));
    } else {
      ir::Value *Base =
          Kind == Case::LocalRead ? Tile : B.createGep(In, Mod.getInt(1));
      ir::Value *V = B.createLoad(B.createGep(Base, Idx));
      B.createStore(V, B.createGep(Out, X));
    }
    B.createRet();
    ASSERT_FALSE(ir::verifyFunction(*F));
    EXPECT_EQ(plannedPairs(*F, FusedPair::GepLoad),
              Kind == Case::LocalWrite ? 0u : 1u);
    EXPECT_EQ(plannedPairs(*F, FusedPair::GepStore), 1u);

    Buffers.clear();
    unsigned InB = makeBuffer(5);
    unsigned OutB = makeBuffer(4);
    Expected<SimReport> R =
        run(F, {4, 1}, {4, 1},
            {KernelArg::makeBuffer(InB), KernelArg::makeBuffer(OutB),
             KernelArg::makeInt(2)});
    ASSERT_FALSE(static_cast<bool>(R)) << Text;
    EXPECT_EQ(R.error().message(), Text);
  }
}

TEST_P(InterpValueTest, GepWithASecondUseInAPhiIsNotFused) {
  // %g feeds the load right after it and the join's phi, on the edge from
  // entry. A fused gep+load would leave %g's slot unwritten, and items
  // 2-7 (which take that edge) would load through a stale pointer.
  ir::Function *F = M.createFunction("f");
  ir::Type FloatPtr =
      ir::Type::pointerTo(ir::ScalarKind::Float, ir::AddressSpace::Global);
  ir::Argument *In = F->addArgument(FloatPtr, "in", true);
  ir::Argument *Out = F->addArgument(FloatPtr, "out", false);
  ir::BasicBlock *Entry = F->createBlock("entry");
  ir::BasicBlock *Then = F->createBlock("then");
  ir::BasicBlock *Join = F->createBlock("join");
  ir::IRBuilder B(M);
  B.setInsertPoint(Entry);
  ir::Value *X = B.createCall(ir::Builtin::GetGlobalId, {M.getInt(0)}, "x");
  ir::Value *G = B.createGep(In, X, "g");
  ir::Value *V = B.createLoad(G, "v");
  B.createCondBr(B.createCmp(ir::Opcode::CmpLt, X, M.getInt(2)), Then, Join);
  B.setInsertPoint(Then);
  ir::Value *G2 = B.createGep(In, B.createAdd(X, M.getInt(2)), "g2");
  B.createBr(Join);
  B.setInsertPoint(Join);
  ir::Instruction *P = B.createPhi(FloatPtr, "p");
  P->addIncoming(G, Entry);
  P->addIncoming(G2, Then);
  ir::Value *W = B.createLoad(P, "w");
  ir::Value *Sum = B.createAdd(B.createMul(V, M.getFloat(10.0f)), W);
  B.createStore(Sum, B.createGep(Out, X));
  B.createRet();
  ASSERT_FALSE(ir::verifyFunction(*F));
  EXPECT_EQ(plannedPairs(*F, FusedPair::GepLoad), 0u);
  EXPECT_EQ(plannedPairs(*F, FusedPair::CmpBr), 1u);
  EXPECT_EQ(plannedPairs(*F, FusedPair::MulAdd), 1u);
  EXPECT_EQ(plannedPairs(*F, FusedPair::GepStore), 1u);

  std::vector<float> In8(8);
  for (size_t I = 0; I < In8.size(); ++I)
    In8[I] = 1.0f + static_cast<float>(I);
  unsigned InB = makeBuffer(In8);
  unsigned OutB = makeBuffer(8);
  SimReport R = cantFail(run(
      F, {8, 1}, {8, 1},
      {KernelArg::makeBuffer(InB), KernelArg::makeBuffer(OutB)}));
  for (size_t X8 = 0; X8 < 8; ++X8)
    EXPECT_EQ(Buffers[OutB].floatAt(X8),
              In8[X8] * 10.0f + In8[X8 < 2 ? X8 + 2 : X8])
        << X8;
  // Per item: entry 4 (id, gep, cmp+condbr), join 3 (mul+add, gep+store);
  // items 0-1 also run then's add, gep and br.
  EXPECT_EQ(R.Totals.AluOps, 8u * 7u + 2u * 3u);
  EXPECT_EQ(R.Totals.GlobalReads, 16u);
  EXPECT_EQ(R.Totals.GlobalWrites, 8u);
}

TEST_P(InterpValueTest, MulWithASecondUseIsNotFused) {
  // %m feeds the add right after it and a later sub, so it stays a MulI;
  // %u's only use is the next add, whose other addend comes first, so it
  // fuses into a MulAddI.
  ir::Function *F = M.createFunction("f");
  ir::Type IntPtr =
      ir::Type::pointerTo(ir::ScalarKind::Int, ir::AddressSpace::Global);
  ir::Argument *In = F->addArgument(IntPtr, "in", true);
  ir::Argument *Out = F->addArgument(IntPtr, "out", false);
  ir::IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  ir::Value *X = B.createCall(ir::Builtin::GetGlobalId, {M.getInt(0)}, "x");
  ir::Value *A = B.createLoad(B.createGep(In, X), "a");
  ir::Value *Mul = B.createMul(A, M.getInt(3), "m");
  ir::Value *S = B.createAdd(Mul, X, "s");
  ir::Value *T = B.createSub(Mul, M.getInt(1), "t");
  ir::Value *U = B.createMul(S, T, "u");
  ir::Value *Res = B.createAdd(X, U, "r");
  B.createStore(Res, B.createGep(Out, X));
  B.createRet();
  ASSERT_FALSE(ir::verifyFunction(*F));
  EXPECT_EQ(plannedPairs(*F, FusedPair::MulAdd), 1u);

  const int32_t InV[8] = {5, -7, 0, 11, 2, -3, 8, 1};
  unsigned InB = makeBuffer(8);
  for (size_t K = 0; K < 8; ++K)
    Buffers[InB].setInt(K, InV[K]);
  unsigned OutB = makeBuffer(8);
  SimReport R = cantFail(run(
      F, {8, 1}, {4, 1},
      {KernelArg::makeBuffer(InB), KernelArg::makeBuffer(OutB)}));
  for (int32_t X8 = 0; X8 < 8; ++X8) {
    int32_t M3 = InV[X8] * 3;
    EXPECT_EQ(Buffers[OutB].intAt(X8), X8 + (M3 + X8) * (M3 - 1)) << X8;
  }
  // Per item: id, gep+load, mul, add, sub, mul+add (2), gep+store.
  EXPECT_EQ(R.Totals.AluOps, 8u * 8u);
  EXPECT_EQ(R.Totals.GlobalReads, 8u);
  EXPECT_EQ(R.Totals.GlobalWrites, 8u);
}

TEST_P(InterpValueTest, CmpBrLoopsFuseAndRun) {
  // Two loops whose header compare feeds only the branch after it: an
  // int one summing n inputs, then a float one doubling the sum until it
  // reaches 100. Both compares fuse with their branches; the loop-carried
  // values move on the back edges the fused branches take.
  ir::Function *F = M.createFunction("f");
  ir::Type FloatPtr =
      ir::Type::pointerTo(ir::ScalarKind::Float, ir::AddressSpace::Global);
  ir::Argument *In = F->addArgument(FloatPtr, "in", true);
  ir::Argument *Out = F->addArgument(FloatPtr, "out", false);
  ir::Argument *N = F->addArgument(ir::Type::intTy(), "n", false);
  ir::BasicBlock *Entry = F->createBlock("entry");
  ir::BasicBlock *Head = F->createBlock("head");
  ir::BasicBlock *Body = F->createBlock("body");
  ir::BasicBlock *FHead = F->createBlock("fhead");
  ir::BasicBlock *FBody = F->createBlock("fbody");
  ir::BasicBlock *Exit = F->createBlock("exit");
  ir::IRBuilder B(M);
  B.setInsertPoint(Entry);
  ir::Value *X = B.createCall(ir::Builtin::GetGlobalId, {M.getInt(0)}, "x");
  ir::Value *Base = B.createMul(X, N, "base");
  B.createBr(Head);
  B.setInsertPoint(Head);
  ir::Instruction *I = B.createPhi(ir::Type::intTy(), "i");
  ir::Instruction *Acc = B.createPhi(ir::Type::floatTy(), "acc");
  B.createCondBr(B.createCmp(ir::Opcode::CmpLt, I, N), Body, FHead);
  B.setInsertPoint(Body);
  ir::Value *V = B.createLoad(B.createGep(In, B.createAdd(Base, I)));
  ir::Value *Acc1 = B.createAdd(Acc, V, "acc1");
  ir::Value *I1 = B.createAdd(I, M.getInt(1), "i1");
  B.createBr(Head);
  I->addIncoming(M.getInt(0), Entry);
  I->addIncoming(I1, Body);
  Acc->addIncoming(M.getFloat(0.0f), Entry);
  Acc->addIncoming(Acc1, Body);
  B.setInsertPoint(FHead);
  ir::Instruction *Fv = B.createPhi(ir::Type::floatTy(), "f");
  B.createCondBr(B.createCmp(ir::Opcode::CmpLt, Fv, M.getFloat(100.0f)),
                 FBody, Exit);
  B.setInsertPoint(FBody);
  ir::Value *F1 =
      B.createAdd(B.createMul(Fv, M.getFloat(2.0f)), M.getFloat(1.0f), "f1");
  B.createBr(FHead);
  Fv->addIncoming(Acc, Head);
  Fv->addIncoming(F1, FBody);
  B.setInsertPoint(Exit);
  B.createStore(Fv, B.createGep(Out, X));
  B.createRet();
  ASSERT_FALSE(ir::verifyFunction(*F));
  EXPECT_EQ(plannedPairs(*F, FusedPair::CmpBr), 2u);
  EXPECT_EQ(plannedPairs(*F, FusedPair::GepLoad), 1u);
  EXPECT_EQ(plannedPairs(*F, FusedPair::MulAdd), 1u);

  const int32_t Steps = 3;
  std::vector<float> InV(8 * Steps);
  for (size_t K = 0; K < InV.size(); ++K)
    InV[K] = static_cast<float>(K % 7) + 1.0f;
  unsigned InB = makeBuffer(InV);
  unsigned OutB = makeBuffer(8);
  SimReport R = cantFail(
      run(F, {8, 1}, {8, 1},
          {KernelArg::makeBuffer(InB), KernelArg::makeBuffer(OutB),
           KernelArg::makeInt(Steps)}));
  uint64_t Alu = 0;
  for (int32_t X8 = 0; X8 < 8; ++X8) {
    float Sum = 0.0f;
    for (int32_t K = 0; K < Steps; ++K)
      Sum += InV[X8 * Steps + K];
    unsigned Doublings = 0;
    for (; Sum < 100.0f; ++Doublings)
      Sum = Sum * 2.0f + 1.0f; // Exact either way: Sum * 2 is exact.
    EXPECT_EQ(Buffers[OutB].floatAt(X8), Sum) << X8;
    // entry 3 (id, mul, br); head 2 per visit (cmp+condbr), body 5 per
    // iteration (add, gep+load, add, add, br); fhead 2 per visit; fbody
    // 3 per doubling (mul+add, br); exit 1 (gep+store).
    Alu += 3 + 2 * (Steps + 1) + 5 * Steps + 2 * (Doublings + 1) +
           3 * Doublings + 1;
  }
  EXPECT_EQ(R.Totals.AluOps, Alu);
  EXPECT_EQ(R.Totals.GlobalReads, 8u * Steps);
  EXPECT_EQ(R.Totals.GlobalWrites, 8u);
}

//===----------------------------------------------------------------------===//
// int32 wraparound and float-to-int conversion
//===----------------------------------------------------------------------===//

/// \p V reduced modulo 2^32 into int32, computed without the simulator.
int32_t wrap32(int64_t V) {
  return static_cast<int32_t>(static_cast<uint32_t>(V));
}

TEST_P(InterpValueTest, IntArithmeticWrapsAround) {
  // int32 arithmetic wraps, as ir::foldIntBinary folds it: every output
  // overflows for some item (65536 * 65536 is 2^32; c and d are the int32
  // extremes).
  ir::Function *F =
      compilePromoted("kernel void f(global int* out, int a, int b, int c,"
                      "              int d) {"
                      "  int x = get_global_id(0);"
                      "  out[6 * x] = a * b + x;"
                      "  out[6 * x + 1] = a * (b + x);"
                      "  out[6 * x + 2] = c + (x + 1);"
                      "  out[6 * x + 3] = d - (x + 1);"
                      "  out[6 * x + 4] = -(d + x);"
                      "  out[6 * x + 5] = abs(d + x);"
                      "}");
  ASSERT_NE(F, nullptr);
  const int64_t A = 65536, Bv = 65536, C = INT32_MAX, D = INT32_MIN;
  unsigned Out = makeBuffer(6 * 8);
  cantFail(run(F, {8, 1}, {4, 1},
               {KernelArg::makeBuffer(Out), KernelArg::makeInt(A),
                KernelArg::makeInt(Bv), KernelArg::makeInt(C),
                KernelArg::makeInt(D)}));
  for (int64_t X = 0; X < 8; ++X) {
    const int32_t Want[6] = {wrap32(A * Bv + X), wrap32(A * (Bv + X)),
                             wrap32(C + X + 1),  wrap32(D - X - 1),
                             wrap32(-(D + X)),   wrap32(D + X < 0 ? -(D + X)
                                                                  : D + X)};
    for (int64_t K = 0; K < 6; ++K)
      EXPECT_EQ(Buffers[Out].intAt(6 * X + K), Want[K])
          << "item " << X << ", output " << K;
  }
}

TEST_P(InterpValueTest, GepOffsetWrapsAround) {
  // Pointer offsets add in int32 with the same wraparound:
  // out + m + (m + x) with m = INT32_MIN is out + x. The second sum runs
  // once in a plain gep and once in a gep folded into its store.
  ir::Function *F = M.createFunction("f");
  ir::Argument *Out = F->addArgument(
      ir::Type::pointerTo(ir::ScalarKind::Int, ir::AddressSpace::Global),
      "out", false);
  ir::Argument *Mv = F->addArgument(ir::Type::intTy(), "m", false);
  ir::IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  ir::Value *X = B.createCall(ir::Builtin::GetGlobalId, {M.getInt(0)}, "x");
  ir::Value *G = B.createGep(Out, Mv);
  ir::Value *I = B.createAdd(Mv, X);
  ir::Value *H = B.createGep(G, I);
  ir::Value *V = B.createAdd(X, M.getInt(1));
  B.createStore(V, H);
  ir::Value *J = B.createAdd(I, M.getInt(8));
  B.createStore(X, B.createGep(G, J));
  B.createRet();
  ASSERT_FALSE(ir::verifyFunction(*F));
  EXPECT_EQ(plannedPairs(*F, FusedPair::GepStore), 1u);

  unsigned OutB = makeBuffer(16);
  cantFail(run(F, {8, 1}, {8, 1},
               {KernelArg::makeBuffer(OutB), KernelArg::makeInt(INT32_MIN)}));
  for (int32_t X8 = 0; X8 < 8; ++X8) {
    EXPECT_EQ(Buffers[OutB].intAt(X8), X8 + 1) << X8;
    EXPECT_EQ(Buffers[OutB].intAt(X8 + 8), X8) << X8;
  }
}

TEST_P(InterpValueTest, FloatToIntOfNaNOrOutOfRangeIsIntMin) {
  // (int) truncates toward zero; NaN and values outside int32 give
  // INT32_MIN. -2^31 itself is in range.
  ir::Function *F = compilePromoted("kernel void f(global const float* in, "
                                    "global int* out) {"
                                    "  int x = get_global_id(0);"
                                    "  out[x] = (int)in[x];"
                                    "}");
  ASSERT_NE(F, nullptr);
  const std::vector<float> In = {std::nanf(""),   1e10f,         -1e10f,
                                 2147483648.0f,   -2147483648.0f,
                                 -2147483904.0f,  2.75f,         -2.75f};
  const int32_t Want[8] = {INT32_MIN, INT32_MIN, INT32_MIN, INT32_MIN,
                           INT32_MIN, INT32_MIN, 2,         -2};
  unsigned InB = makeBuffer(In);
  unsigned Out = makeBuffer(In.size());
  cantFail(run(F, {8, 1}, {8, 1},
               {KernelArg::makeBuffer(InB), KernelArg::makeBuffer(Out)}));
  for (size_t X = 0; X < In.size(); ++X)
    EXPECT_EQ(Buffers[Out].intAt(X), Want[X]) << In[X];
}

//===----------------------------------------------------------------------===//
// Memory accesses in their plain and gep-folded forms
//===----------------------------------------------------------------------===//

/// How many \p Op instructions bc::compile emits for \p F: the cases below
/// check which form of each access the batched tier runs.
unsigned emittedOps(const ir::Function &F, bc::Op Op) {
  bc::Program P = cantFail(bc::compile(F));
  unsigned N = 0;
  for (const bc::Instr &I : P.Code)
    N += I.Opc == Op;
  return N;
}

TEST_P(InterpCounterTest, EachAccessRunsInItsPlainAndFoldedForm) {
  // One wavefront moves in[] through local, private and global memory.
  // Each space is accessed once through a pointer computed before
  // another instruction (the plain op) and once through a gep right
  // before the access (folded into it). Item x computes
  //   tile[x] = in[x], tile[64 + x] = in[x + 1], barrier,
  //   c = tile[63 - x], d = tile[127 - x],
  //   priv[1] = c + d, priv[0] = c,
  //   out[x] = priv[1] + priv[0], out[64 + x] = d.
  ir::Function *F = M.createFunction("f");
  ir::Type IntPtr =
      ir::Type::pointerTo(ir::ScalarKind::Int, ir::AddressSpace::Global);
  ir::Argument *In = F->addArgument(IntPtr, "in", true);
  ir::Argument *Out = F->addArgument(IntPtr, "out", false);
  ir::IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  ir::Value *X = B.createCall(ir::Builtin::GetGlobalId, {M.getInt(0)}, "x");
  ir::Value *Tile =
      B.createAlloca(ir::ScalarKind::Int, 128, ir::AddressSpace::Local, "t");
  ir::Value *Priv =
      B.createAlloca(ir::ScalarKind::Int, 2, ir::AddressSpace::Private, "p");
  ir::Value *G = B.createGep(In, X);
  ir::Value *X1 = B.createAdd(X, M.getInt(1));
  ir::Value *A = B.createLoad(G);
  ir::Value *Bv = B.createLoad(B.createGep(In, X1));
  ir::Value *T0 = B.createGep(Tile, X);
  ir::Value *X64 = B.createAdd(X, M.getInt(64));
  B.createStore(A, T0);
  B.createStore(Bv, B.createGep(Tile, X64));
  B.createCall(ir::Builtin::Barrier, {});
  ir::Value *R = B.createSub(M.getInt(63), X);
  ir::Value *T1 = B.createGep(Tile, R);
  ir::Value *R64 = B.createAdd(R, M.getInt(64));
  ir::Value *C = B.createLoad(T1);
  ir::Value *D = B.createLoad(B.createGep(Tile, R64));
  ir::Value *P1 = B.createGep(Priv, M.getInt(1));
  B.createStore(B.createAdd(C, D), P1);
  B.createStore(C, B.createGep(Priv, M.getInt(0)));
  ir::Value *Fv = B.createLoad(P1); // P1's second use.
  ir::Value *E = B.createLoad(B.createGep(Priv, M.getInt(0)));
  ir::Value *O = B.createGep(Out, X);
  B.createStore(B.createAdd(Fv, E), O);
  B.createStore(D, B.createGep(Out, X64));
  B.createRet();
  ASSERT_FALSE(ir::verifyFunction(*F));
  EXPECT_EQ(plannedPairs(*F, FusedPair::GepLoad), 3u);
  EXPECT_EQ(plannedPairs(*F, FusedPair::GepStore), 3u);
  for (bc::Op Op : {bc::Op::LdG, bc::Op::LdL, bc::Op::LdP, bc::Op::StG,
                    bc::Op::StL, bc::Op::StP, bc::Op::LdGX, bc::Op::LdLX,
                    bc::Op::LdPX, bc::Op::StGX, bc::Op::StLX, bc::Op::StPX})
    EXPECT_EQ(emittedOps(*F, Op), 1u) << static_cast<int>(Op);

  unsigned InB = makeBuffer(65);
  for (int32_t K = 0; K < 65; ++K)
    Buffers[InB].setInt(K, 7 * K + 3);
  unsigned OutB = makeBuffer(128);
  SimReport Rep = cantFail(run(
      F, {64, 1}, {64, 1},
      {KernelArg::makeBuffer(InB), KernelArg::makeBuffer(OutB)}));
  for (int32_t X64v = 0; X64v < 64; ++X64v) {
    int32_t Cv = 7 * (63 - X64v) + 3, Dv = 7 * (64 - X64v) + 3;
    EXPECT_EQ(Buffers[OutB].intAt(X64v), 2 * Cv + Dv) << X64v;
    EXPECT_EQ(Buffers[OutB].intAt(64 + X64v), Dv) << X64v;
  }
  // Per item: id, 5 plain geps, 5 adds and a sub, 6 folded geps.
  EXPECT_EQ(Rep.Totals.AluOps, 64u * 18u);
  EXPECT_EQ(Rep.Totals.GlobalReads, 128u);
  EXPECT_EQ(Rep.Totals.GlobalWrites, 128u);
  // in[0..63] spans segments 0-3, in[1..64] adds segment 4; each store
  // covers 4 segments of its own.
  EXPECT_EQ(Rep.Totals.GlobalReadTransactions, 5u);
  EXPECT_EQ(Rep.Totals.GlobalWriteTransactions, 8u);
  // Four access groups, each 64 consecutive words (ascending for the
  // stores, descending for the loads): 2 lanes per bank, extra 1.
  EXPECT_EQ(Rep.Totals.LocalAccesses, 256u);
  EXPECT_EQ(Rep.Totals.LocalWavefrontOps, 4u);
  EXPECT_EQ(Rep.Totals.BankConflictExtra, 4u);
  EXPECT_EQ(Rep.Totals.PrivateAccesses, 256u);
  EXPECT_EQ(Rep.Totals.Barriers, 64u);
}

TEST_P(InterpCounterTest, FullWavefrontLocalAccessesCountTheirBanks) {
  // One wavefront stores to and loads from tile[k * x] (plain ops) and
  // tile[k * x + 256] (folded ops); both regions fall on the same banks.
  // Stride 1 is consecutive, larger strides pile lanes onto fewer banks,
  // and 128 banks is more than the batched tier's on-stack bank
  // histogram holds. Each access group adds its busiest bank's lanes
  // minus one.
  struct Case {
    unsigned Banks;
    int32_t Stride;
    uint64_t ExtraPerGroup;
  };
  const Case Cases[] = {
      {32, 1, 1},  // 2 lanes on each bank.
      {32, 2, 3},  // 4 lanes on each even bank.
      {32, 4, 7},  // 8 lanes on banks 0, 4, ..., 28.
      {128, 1, 0}, // 1 lane on banks 0-63.
      {128, 4, 1}, // Lanes x and x + 32 share bank 4x mod 128.
  };
  ir::Function *F = M.createFunction("f");
  ir::Argument *Out = F->addArgument(
      ir::Type::pointerTo(ir::ScalarKind::Int, ir::AddressSpace::Global),
      "out", false);
  ir::Argument *K = F->addArgument(ir::Type::intTy(), "k", false);
  ir::IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  ir::Value *X = B.createCall(ir::Builtin::GetGlobalId, {M.getInt(0)}, "x");
  ir::Value *Tile =
      B.createAlloca(ir::ScalarKind::Int, 512, ir::AddressSpace::Local, "t");
  ir::Value *I = B.createMul(X, K);
  ir::Value *T = B.createGep(Tile, I);
  ir::Value *I256 = B.createAdd(I, M.getInt(256));
  B.createStore(X, T);
  B.createStore(I, B.createGep(Tile, I256));
  B.createCall(ir::Builtin::Barrier, {});
  ir::Value *U = B.createLoad(T); // T's second use.
  ir::Value *W = B.createLoad(B.createGep(Tile, I256));
  ir::Value *O = B.createGep(Out, X);
  B.createStore(B.createAdd(U, W), O);
  B.createRet();
  ASSERT_FALSE(ir::verifyFunction(*F));
  for (bc::Op Op :
       {bc::Op::StL, bc::Op::StLX, bc::Op::LdL, bc::Op::LdLX, bc::Op::StG})
    EXPECT_EQ(emittedOps(*F, Op), 1u) << static_cast<int>(Op);

  for (const Case &C : Cases) {
    Device.NumLocalBanks = C.Banks;
    Buffers.clear();
    unsigned OutB = makeBuffer(64);
    SimReport R = cantFail(
        run(F, {64, 1}, {64, 1},
            {KernelArg::makeBuffer(OutB), KernelArg::makeInt(C.Stride)}));
    for (int32_t X64v = 0; X64v < 64; ++X64v)
      EXPECT_EQ(Buffers[OutB].intAt(X64v), X64v + C.Stride * X64v)
          << C.Banks << " banks, stride " << C.Stride << ", item " << X64v;
    // Per item: id, mul, gep, add, 2 folded geps, gep, add.
    EXPECT_EQ(R.Totals.AluOps, 64u * 8u);
    EXPECT_EQ(R.Totals.LocalAccesses, 4u * 64u);
    EXPECT_EQ(R.Totals.LocalWavefrontOps, 4u);
    EXPECT_EQ(R.Totals.BankConflictExtra, 4u * C.ExtraPerGroup)
        << C.Banks << " banks, stride " << C.Stride;
  }
}

TEST_P(InterpCounterTest, PartialWavefrontLocalAccessesCountTheirBanks) {
  // Items 0-95 of a 128-item group (two wavefronts) branch into a block
  // that stores, loads and stores again at tile[x]: wavefront 0 takes
  // it whole, wavefront 1 only with lanes 64-95. Every item then loads
  // tile[x] (0 where nothing was stored) into out[x].
  ir::Function *F = M.createFunction("f");
  ir::Argument *Out = F->addArgument(
      ir::Type::pointerTo(ir::ScalarKind::Int, ir::AddressSpace::Global),
      "out", false);
  ir::BasicBlock *Entry = F->createBlock("entry");
  ir::BasicBlock *Then = F->createBlock("then");
  ir::BasicBlock *Join = F->createBlock("join");
  ir::IRBuilder B(M);
  B.setInsertPoint(Entry);
  ir::Value *X = B.createCall(ir::Builtin::GetGlobalId, {M.getInt(0)}, "x");
  ir::Value *Tile =
      B.createAlloca(ir::ScalarKind::Int, 128, ir::AddressSpace::Local, "t");
  B.createCondBr(B.createCmp(ir::Opcode::CmpLt, X, M.getInt(96)), Then, Join);
  B.setInsertPoint(Then);
  ir::Value *T = B.createGep(Tile, X);
  B.createStore(B.createAdd(X, M.getInt(1000)), T);
  ir::Value *U = B.createLoad(T); // T's second use.
  ir::Value *V = B.createAdd(U, M.getInt(1));
  B.createStore(V, B.createGep(Tile, X));
  B.createBr(Join);
  B.setInsertPoint(Join);
  ir::Value *R = B.createLoad(B.createGep(Tile, X));
  B.createStore(R, B.createGep(Out, X));
  B.createRet();
  ASSERT_FALSE(ir::verifyFunction(*F));
  for (bc::Op Op : {bc::Op::StL, bc::Op::LdL, bc::Op::StLX, bc::Op::LdLX})
    EXPECT_EQ(emittedOps(*F, Op), 1u) << static_cast<int>(Op);

  unsigned OutB = makeBuffer(128);
  SimReport Rep =
      cantFail(run(F, {128, 1}, {128, 1}, {KernelArg::makeBuffer(OutB)}));
  for (int32_t X128 = 0; X128 < 128; ++X128)
    EXPECT_EQ(Buffers[OutB].intAt(X128), X128 < 96 ? X128 + 1001 : 0)
        << X128;
  // Every item: id, cmp+condbr, 2 folded geps; items 0-95 also: gep,
  // 2 adds, a folded gep and the br.
  EXPECT_EQ(Rep.Totals.AluOps, 128u * 5u + 96u * 5u);
  EXPECT_EQ(Rep.Totals.LocalAccesses, 3u * 96u + 128u);
  // The branch's three accesses form two groups each: 64 consecutive
  // lanes (2 per bank, extra 1) and 32 (1 per bank). The join's load
  // forms two groups of 64 consecutive lanes.
  EXPECT_EQ(Rep.Totals.LocalWavefrontOps, 3u * 2u + 2u);
  EXPECT_EQ(Rep.Totals.BankConflictExtra, 3u * 1u + 2u);
}

TEST_P(InterpCounterTest, PlainAccessOutOfBoundsFaultsWithItsText) {
  // Each access goes through a gep that another instruction separates
  // from it, so nothing is folded. Items 0 and 1 stay in bounds; item 2
  // is the first past the end of the 4-word buffer, tile or array.
  const std::pair<bc::Op, const char *> Cases[] = {
      {bc::Op::StL,
       "kernel 'f': local write out of bounds (offset 4, size 4 words)"},
      {bc::Op::LdL,
       "kernel 'f': local read out of bounds (offset 4, size 4 words)"},
      {bc::Op::StG,
       "kernel 'f': global write out of bounds (buffer 1, offset 4, size 4)"},
      {bc::Op::LdG,
       "kernel 'f': global read out of bounds (buffer 0, offset 4, size 4)"},
      {bc::Op::StP, "kernel 'f': private write out of bounds"},
      {bc::Op::LdP, "kernel 'f': private read out of bounds"},
  };
  for (const auto &[Op, Text] : Cases) {
    ir::Module Mod;
    ir::Function *F = Mod.createFunction("f");
    ir::Type IntPtr =
        ir::Type::pointerTo(ir::ScalarKind::Int, ir::AddressSpace::Global);
    ir::Argument *In = F->addArgument(IntPtr, "in", true);
    ir::Argument *Out = F->addArgument(IntPtr, "out", false);
    ir::Argument *K = F->addArgument(ir::Type::intTy(), "k", false);
    ir::IRBuilder B(Mod);
    B.setInsertPoint(F->createBlock("entry"));
    ir::Value *Tile = B.createAlloca(ir::ScalarKind::Int, 4,
                                     ir::AddressSpace::Local, "tile");
    ir::Value *Priv = B.createAlloca(ir::ScalarKind::Int, 4,
                                     ir::AddressSpace::Private, "priv");
    ir::Value *X = B.createCall(ir::Builtin::GetGlobalId, {Mod.getInt(0)});
    bool Write = Op == bc::Op::StL || Op == bc::Op::StG || Op == bc::Op::StP;
    ir::Value *Base = Write ? static_cast<ir::Value *>(Out) : In;
    if (Op == bc::Op::StL || Op == bc::Op::LdL)
      Base = Tile;
    else if (Op == bc::Op::StP || Op == bc::Op::LdP)
      Base = Priv;
    ir::Value *P = B.createGep(Base, B.createAdd(X, K));
    ir::Value *V = B.createAdd(X, Mod.getInt(7));
    if (Write) {
      B.createStore(V, P);
    } else {
      ir::Value *L = B.createLoad(P);
      B.createStore(L, B.createGep(Out, X));
    }
    B.createRet();
    ASSERT_FALSE(ir::verifyFunction(*F));
    EXPECT_EQ(plannedPairs(*F, FusedPair::GepLoad), 0u);
    EXPECT_EQ(plannedPairs(*F, FusedPair::GepStore), Write ? 0u : 1u);
    EXPECT_EQ(emittedOps(*F, Op), 1u) << Text;

    Buffers.clear();
    unsigned InB = makeBuffer(4);
    unsigned OutB = makeBuffer(4);
    Expected<SimReport> R =
        run(F, {4, 1}, {4, 1},
            {KernelArg::makeBuffer(InB), KernelArg::makeBuffer(OutB),
             KernelArg::makeInt(2)});
    ASSERT_FALSE(static_cast<bool>(R)) << Text;
    EXPECT_EQ(R.error().message(), Text);
  }
}

//===----------------------------------------------------------------------===//
// Launch validation
//===----------------------------------------------------------------------===//

TEST_F(InterpTest, IndivisibleNDRangeRejected) {
  ir::Function *F =
      compile("kernel void f(global int* out) { out[0] = 1; }", "f");
  unsigned Out = makeBuffer(1);
  Expected<SimReport> R =
      run(F, {10, 1}, {4, 1}, {KernelArg::makeBuffer(Out)});
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.error().message().find("divisible"), std::string::npos);
}

TEST_F(InterpTest, ArgumentCountChecked) {
  ir::Function *F =
      compile("kernel void f(global int* out, int k) { out[0] = k; }", "f");
  unsigned Out = makeBuffer(1);
  Expected<SimReport> R =
      run(F, {1, 1}, {1, 1}, {KernelArg::makeBuffer(Out)});
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.error().message().find("arguments"), std::string::npos);
}

TEST_F(InterpTest, ArgumentKindChecked) {
  ir::Function *F =
      compile("kernel void f(global int* out, int k) { out[0] = k; }", "f");
  unsigned Out = makeBuffer(1);
  Expected<SimReport> R =
      run(F, {1, 1}, {1, 1},
          {KernelArg::makeBuffer(Out), KernelArg::makeFloat(1)});
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.error().message().find("expects an int"), std::string::npos);
}

TEST_F(InterpTest, BufferIndexValidated) {
  ir::Function *F =
      compile("kernel void f(global int* out) { out[0] = 1; }", "f");
  Expected<SimReport> R =
      run(F, {1, 1}, {1, 1}, {KernelArg::makeBuffer(42)});
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.error().message().find("buffer index"), std::string::npos);
}

TEST_F(InterpTest, OversizedWorkGroupRejected) {
  ir::Function *F =
      compile("kernel void f(global int* out) { out[0] = 1; }", "f");
  unsigned Out = makeBuffer(1);
  Expected<SimReport> R =
      run(F, {2048, 1}, {2048, 1}, {KernelArg::makeBuffer(Out)});
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.error().message().find("1024"), std::string::npos);
}

TEST_F(InterpTest, LocalMemoryOversubscriptionRejected) {
  ir::Function *F = compile(
      "kernel void f(global int* out) {"
      "  local float t[10000];" // 40000 bytes > 32768.
      "  t[0] = 0.0; out[0] = (int)t[0];"
      "}",
      "f");
  unsigned Out = makeBuffer(1);
  Expected<SimReport> R =
      run(F, {1, 1}, {1, 1}, {KernelArg::makeBuffer(Out)});
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.error().message().find("local memory"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Performance counters: coalescing
//===----------------------------------------------------------------------===//

TEST_P(InterpCounterTest, CoalescedReadCountsOneSegmentPer16Lanes) {
  // 64 items reading 64 consecutive floats = 256 B = 4 segments of 64 B.
  ir::Function *F = compile(
      "kernel void f(global const float* in, global float* out) {"
      "  int x = get_global_id(0);"
      "  out[x] = in[x];"
      "}",
      "f");
  unsigned In = makeBuffer(64);
  unsigned Out = makeBuffer(64);
  SimReport R = cantFail(
      run(F, {64, 1}, {64, 1},
          {KernelArg::makeBuffer(In), KernelArg::makeBuffer(Out)}));
  EXPECT_EQ(R.Totals.GlobalReadTransactions, 4u);
  EXPECT_EQ(R.Totals.GlobalWriteTransactions, 4u);
  EXPECT_EQ(R.Totals.GlobalReads, 64u);
  EXPECT_EQ(R.Totals.GlobalWrites, 64u);
}

TEST_P(InterpCounterTest, StridedReadTouchesMoreSegments) {
  // Stride-16 reads: each lane hits its own segment.
  ir::Function *F = compile(
      "kernel void f(global const float* in, global float* out) {"
      "  int x = get_global_id(0);"
      "  out[x] = in[x * 16];"
      "}",
      "f");
  unsigned In = makeBuffer(64 * 16);
  unsigned Out = makeBuffer(64);
  SimReport R = cantFail(
      run(F, {64, 1}, {64, 1},
          {KernelArg::makeBuffer(In), KernelArg::makeBuffer(Out)}));
  EXPECT_EQ(R.Totals.GlobalReadTransactions, 64u);
}

TEST_P(InterpCounterTest, RepeatedReadHitsWavefrontL1) {
  // The same segment read twice by one wavefront costs one transaction.
  ir::Function *F = compile(
      "kernel void f(global const float* in, global float* out) {"
      "  int x = get_global_id(0);"
      "  out[x] = in[x] + in[x];"
      "}",
      "f");
  unsigned In = makeBuffer(64);
  unsigned Out = makeBuffer(64);
  SimReport R = cantFail(
      run(F, {64, 1}, {64, 1},
          {KernelArg::makeBuffer(In), KernelArg::makeBuffer(Out)}));
  EXPECT_EQ(R.Totals.GlobalReadTransactions, 4u);
  EXPECT_EQ(R.Totals.GlobalReads, 128u);
}

TEST_P(InterpCounterTest, RepeatedWriteIsNotMerged) {
  // Writes flow through per-instruction write combining: two stores to
  // the same segment are two transactions.
  ir::Function *F = compile(
      "kernel void f(global float* out) {"
      "  int x = get_global_id(0);"
      "  out[x] = 1.0;"
      "  out[x] = 2.0;"
      "}",
      "f");
  unsigned Out = makeBuffer(64);
  SimReport R =
      cantFail(run(F, {64, 1}, {64, 1}, {KernelArg::makeBuffer(Out)}));
  EXPECT_EQ(R.Totals.GlobalWriteTransactions, 8u);
}

TEST_P(InterpCounterTest, NarrowWorkGroupCoalescesWorse) {
  // Same NDRange, two shapes: (16,16) rows coalesce; (2,128) do not.
  ir::Function *F = compile(
      "kernel void f(global const float* in, global float* out, int w) {"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  out[y * w + x] = in[y * w + x];"
      "}",
      "f");
  unsigned In = makeBuffer(256 * 256);
  unsigned Out = makeBuffer(256 * 256);
  std::vector<KernelArg> Args = {KernelArg::makeBuffer(In),
                                 KernelArg::makeBuffer(Out),
                                 KernelArg::makeInt(256)};
  SimReport Wide = cantFail(run(F, {256, 256}, {16, 16}, Args));
  SimReport Tall = cantFail(run(F, {256, 256}, {2, 128}, Args));
  EXPECT_GT(Tall.Totals.GlobalReadTransactions,
            2 * Wide.Totals.GlobalReadTransactions);
  EXPECT_GT(Tall.Cycles, Wide.Cycles);
}

//===----------------------------------------------------------------------===//
// Performance counters: local memory and cost model
//===----------------------------------------------------------------------===//

TEST_P(InterpCounterTest, LocalAccessesCounted) {
  ir::Function *F = compile(
      "kernel void f(global int* out) {"
      "  local int t[64];"
      "  int l = get_local_id(0);"
      "  t[l] = l;"
      "  barrier();"
      "  out[l] = t[l];"
      "}",
      "f");
  unsigned Out = makeBuffer(64);
  SimReport R =
      cantFail(run(F, {64, 1}, {64, 1}, {KernelArg::makeBuffer(Out)}));
  EXPECT_EQ(R.Totals.LocalAccesses, 128u); // 64 stores + 64 loads.
  // Two access groups (one store point, one load point), conflict-free:
  // 64 lanes over 32 banks = factor 2 => extra = 1 per group.
  EXPECT_EQ(R.Totals.LocalWavefrontOps, 2u);
  EXPECT_EQ(R.Totals.BankConflictExtra, 2u);
}

TEST_P(InterpCounterTest, BankConflictFactorCounted) {
  // Stride-32 local access: all 64 lanes hit bank 0 -> factor 64.
  ir::Function *F = compile(
      "kernel void f(global int* out) {"
      "  local int t[2048];"
      "  int l = get_local_id(0);"
      "  t[l * 32] = l;"
      "  barrier();"
      "  out[l] = t[l * 32];"
      "}",
      "f");
  unsigned Out = makeBuffer(64);
  SimReport R =
      cantFail(run(F, {64, 1}, {64, 1}, {KernelArg::makeBuffer(Out)}));
  // Two groups, each fully serialized: extra = 63 each.
  EXPECT_EQ(R.Totals.LocalWavefrontOps, 2u);
  EXPECT_EQ(R.Totals.BankConflictExtra, 126u);
}

TEST_P(InterpCounterTest, SegmentSizeNotAPowerOfTwo) {
  // 48-byte segments hold 12 words: 64 consecutive floats span segments
  // 0..5 (word 63 is in segment 5).
  Device.SegmentBytes = 48;
  ir::Function *F = compile(
      "kernel void f(global const float* in, global float* out) {"
      "  int x = get_global_id(0);"
      "  out[x] = in[x];"
      "}",
      "f");
  unsigned In = makeBuffer(64);
  unsigned Out = makeBuffer(64);
  SimReport R = cantFail(
      run(F, {64, 1}, {64, 1},
          {KernelArg::makeBuffer(In), KernelArg::makeBuffer(Out)}));
  EXPECT_EQ(R.Totals.GlobalReadTransactions, 6u);
  EXPECT_EQ(R.Totals.GlobalWriteTransactions, 6u);
}

TEST_P(InterpCounterTest, BankCountNotAPowerOfTwo) {
  // 24 banks: 64 lanes at stride 1 put 3 lanes on banks 0..15 and 2 on
  // banks 16..23, so each access group serializes by 3 (extra 2).
  Device.NumLocalBanks = 24;
  ir::Function *F = compile(
      "kernel void f(global int* out) {"
      "  local int t[64];"
      "  int l = get_local_id(0);"
      "  t[l] = l;"
      "  barrier();"
      "  out[l] = t[l];"
      "}",
      "f");
  unsigned Out = makeBuffer(64);
  SimReport R =
      cantFail(run(F, {64, 1}, {64, 1}, {KernelArg::makeBuffer(Out)}));
  EXPECT_EQ(R.Totals.LocalWavefrontOps, 2u);
  EXPECT_EQ(R.Totals.BankConflictExtra, 4u);
}

TEST_P(InterpCounterTest, CountsDoNotLeakAcrossWorkGroups) {
  // Both groups read in[0..63] and write out[0..63]: the second group
  // must pay for the same segments and access groups again.
  ir::Function *F = compile(
      "kernel void f(global const float* in, global float* out) {"
      "  local float t[64];"
      "  int l = get_local_id(0);"
      "  t[l] = in[l];"
      "  barrier();"
      "  out[l] = t[63 - l];"
      "}",
      "f");
  unsigned In = makeBuffer(64);
  unsigned Out = makeBuffer(64);
  SimReport R = cantFail(
      run(F, {128, 1}, {64, 1},
          {KernelArg::makeBuffer(In), KernelArg::makeBuffer(Out)}));
  EXPECT_EQ(R.Totals.WorkGroups, 2u);
  EXPECT_EQ(R.Totals.GlobalReadTransactions, 2 * 4u);
  EXPECT_EQ(R.Totals.GlobalWriteTransactions, 2 * 4u);
  // Per group: one store and one load access group, each 64 lanes over
  // 32 banks (factor 2, extra 1).
  EXPECT_EQ(R.Totals.LocalWavefrontOps, 2 * 2u);
  EXPECT_EQ(R.Totals.BankConflictExtra, 2 * 2u);
}

TEST_P(InterpCounterTest, LocalAccessRepeatedPastInitialExecCapacity) {
  // The even lanes run the loop, so its accesses are a partial wavefront
  // at exec instances 0..9 of each op: every (op, exec) is its own
  // access group, with lanes l and l+32 sharing a bank (factor 2).
  ir::Function *F = compile(
      "kernel void f(global float* out) {"
      "  local float t[64];"
      "  int l = get_local_id(0);"
      "  t[l] = 0.0;"
      "  if (l % 2 == 0) {"
      "    for (int i = 0; i < 10; i++) { t[l] = t[l] + 1.0; }"
      "  }"
      "  out[l] = t[l];"
      "}",
      "f");
  unsigned Out = makeBuffer(64);
  SimReport R =
      cantFail(run(F, {64, 1}, {64, 1}, {KernelArg::makeBuffer(Out)}));
  std::vector<float> Result = Buffers[Out].downloadFloats();
  EXPECT_FLOAT_EQ(Result[0], 10.0f);
  EXPECT_FLOAT_EQ(Result[1], 0.0f);
  EXPECT_EQ(R.Totals.LocalAccesses, 64u + 10 * 2 * 32u + 64u);
  EXPECT_EQ(R.Totals.LocalWavefrontOps, 1u + 10 * 2u + 1u);
  EXPECT_EQ(R.Totals.BankConflictExtra, 1u + 10 * 2u + 1u);
}

TEST_P(InterpCounterTest, WriteCoalescingExactPastBufferIndex127) {
  // All 256 items store to out[0]: one transaction per wavefront of 64,
  // whatever the buffer's index in the bank.
  ir::Function *F = compile("kernel void f(global float* out) {"
                            "  out[0] = 1.0;"
                            "}",
                            "f");
  for (int I = 0; I < 130; ++I)
    makeBuffer(1);
  unsigned Out = makeBuffer(1);
  ASSERT_EQ(Out, 130u);
  SimReport R =
      cantFail(run(F, {256, 1}, {256, 1}, {KernelArg::makeBuffer(Out)}));
  EXPECT_EQ(R.Totals.GlobalWriteTransactions, 4u);
}

TEST_P(InterpCounterTest, ReadCoalescingExactPastBufferIndex255) {
  // All 256 items read in[0]: one transaction per wavefront of 64.
  ir::Function *F = compile(
      "kernel void f(global const float* in, global float* out) {"
      "  out[get_global_id(0)] = in[0];"
      "}",
      "f");
  unsigned Out = makeBuffer(256);
  for (int I = 0; I < 255; ++I)
    makeBuffer(1);
  unsigned In = makeBuffer(1);
  ASSERT_EQ(In, 256u);
  SimReport R = cantFail(
      run(F, {256, 1}, {256, 1},
          {KernelArg::makeBuffer(In), KernelArg::makeBuffer(Out)}));
  EXPECT_EQ(R.Totals.GlobalReadTransactions, 4u);
  EXPECT_EQ(R.Totals.GlobalWriteTransactions, 16u);
}

TEST_F(InterpTest, CostModelMemoryBoundMax) {
  Counters C;
  C.GlobalReadTransactions = 100;
  C.AluOps = 64; // Tiny compute.
  GroupCost Cost = costOfGroup(C, Device);
  EXPECT_DOUBLE_EQ(Cost.MemoryCycles, 100 * Device.ReadCostCycles);
  EXPECT_DOUBLE_EQ(Cost.TotalCycles, Device.WorkGroupOverheadCycles +
                                         Cost.MemoryCycles);
}

TEST_F(InterpTest, CostModelComputeBoundMax) {
  Counters C;
  C.AluOps = 1000000;
  C.GlobalReadTransactions = 1;
  GroupCost Cost = costOfGroup(C, Device);
  EXPECT_GT(Cost.ComputeCycles, Cost.MemoryCycles);
  EXPECT_DOUBLE_EQ(Cost.TotalCycles, Device.WorkGroupOverheadCycles +
                                         Cost.ComputeCycles);
}

TEST_F(InterpTest, ReportTimeScalesWithClock) {
  Counters C;
  C.GlobalReadTransactions = 10;
  DeviceConfig Fast = Device;
  Fast.ClockGHz = Device.ClockGHz * 2;
  SimReport Slow = finalizeReport(C, 1000.0, 0, 0, Device);
  SimReport Quick = finalizeReport(C, 1000.0, 0, 0, Fast);
  EXPECT_NEAR(Slow.TimeMs, 2 * Quick.TimeMs, 1e-12);
}

TEST_F(InterpTest, CyclesDivideAcrossComputeUnits) {
  Counters C;
  DeviceConfig OneCU = Device;
  OneCU.NumComputeUnits = 1;
  DeviceConfig FourCU = Device;
  FourCU.NumComputeUnits = 4;
  SimReport R1 = finalizeReport(C, 4000.0, 0, 0, OneCU);
  SimReport R4 = finalizeReport(C, 4000.0, 0, 0, FourCU);
  EXPECT_DOUBLE_EQ(R1.Cycles, 4 * R4.Cycles);
}

TEST_F(InterpTest, DeterministicAcrossRuns) {
  ir::Function *F = compile(
      "kernel void f(global const float* in, global float* out, int w) {"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  out[y * w + x] = in[y * w + x] * 0.5;"
      "}",
      "f");
  std::vector<float> Data(64 * 64);
  for (size_t I = 0; I < Data.size(); ++I)
    Data[I] = static_cast<float>(I % 97) / 97.0f;
  unsigned In = makeBuffer(Data);
  unsigned Out = makeBuffer(64 * 64);
  std::vector<KernelArg> Args = {KernelArg::makeBuffer(In),
                                 KernelArg::makeBuffer(Out),
                                 KernelArg::makeInt(64)};
  SimReport A = cantFail(run(F, {64, 64}, {16, 16}, Args));
  SimReport B = cantFail(run(F, {64, 64}, {16, 16}, Args));
  EXPECT_EQ(A.Totals.GlobalReadTransactions,
            B.Totals.GlobalReadTransactions);
  EXPECT_DOUBLE_EQ(A.Cycles, B.Cycles);
}

TEST_F(InterpTest, EnergyModelTracksTrafficAndTime) {
  Counters C;
  C.GlobalReadTransactions = 1000;
  SimReport R = finalizeReport(C, 1000.0, 0, 0, Device);
  // Dynamic DRAM part: 1000 tx * 20 nJ = 20000 nJ = 0.02 mJ, plus static.
  EXPECT_GT(R.EnergyMJ, 0.02);
  Counters C2 = C;
  C2.GlobalReadTransactions = 2000;
  SimReport R2 = finalizeReport(C2, 1000.0, 0, 0, Device);
  EXPECT_NEAR(R2.EnergyMJ - R.EnergyMJ,
              1000 * Device.DramEnergyPerTransactionNJ * 1e-6, 1e-9);
}

TEST_F(InterpTest, EnergyScalesWithLaunchSize) {
  ir::Function *F = compile(
      "kernel void f(global const float* in, global float* out, int w, "
      "int h) {"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  out[y * w + x] = in[y * w + x];"
      "}",
      "f");
  unsigned In = makeBuffer(128 * 128);
  unsigned Out = makeBuffer(128 * 128);
  SimReport Full = cantFail(run(
      F, {128, 128}, {16, 16},
      {KernelArg::makeBuffer(In), KernelArg::makeBuffer(Out),
       KernelArg::makeInt(128), KernelArg::makeInt(128)}));
  SimReport Half = cantFail(run(
      F, {128, 64}, {16, 16},
      {KernelArg::makeBuffer(In), KernelArg::makeBuffer(Out),
       KernelArg::makeInt(128), KernelArg::makeInt(64)}));
  EXPECT_GT(Full.EnergyMJ, 1.8 * Half.EnergyMJ);
}

TEST_F(InterpTest, WorkGroupAndItemCounts) {
  ir::Function *F =
      compile("kernel void f(global int* out) {"
              "  out[get_global_id(1) * 8 + get_global_id(0)] = 1;"
              "}",
              "f");
  unsigned Out = makeBuffer(64);
  SimReport R =
      cantFail(run(F, {8, 8}, {4, 4}, {KernelArg::makeBuffer(Out)}));
  EXPECT_EQ(R.Totals.WorkGroups, 4u);
  EXPECT_EQ(R.Totals.WorkItems, 64u);
}

} // namespace
