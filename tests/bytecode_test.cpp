//===- tests/bytecode_test.cpp - Bytecode compiler and executor tests -------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Pins the IR-to-bytecode compiler (register allocation, phi edge
// copies, fusion) and the batched execution tier against the
// tree-walking interpreter: every kernel here runs under both tiers, and
// the batched tier must reproduce the tree walker's output bytes,
// SimReport counters, and faults exactly. The structural tests
// (register reuse, fused opcodes) check the compiled bc::Program
// directly.
//
//===----------------------------------------------------------------------===//

#include "gpusim/Bytecode.h"
#include "gpusim/Interpreter.h"
#include "pcl/Compiler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>

using namespace kperf;
using namespace kperf::sim;

namespace {

const ExecTier AllTiers[] = {ExecTier::Tree, ExecTier::Batched};

/// One tier's run: the report (or error) plus the raw output bytes.
struct TierRun {
  Expected<SimReport> Report = makeError("not run");
  std::vector<float> Output;
};

/// Compiles kernels and runs them under every execution tier over fresh
/// buffers, so tier N never observes tier N-1's writes.
class BytecodeTest : public ::testing::Test {
protected:
  ir::Function *compile(const std::string &Source,
                        const std::string &Name = "f") {
    Expected<ir::Function *> F = pcl::compileKernel(M, Source, Name);
    EXPECT_TRUE(static_cast<bool>(F)) << (F ? "" : F.error().message());
    return F ? *F : nullptr;
  }

  /// Runs \p F once per tier. \p Input seeds buffer 0 of every run;
  /// \p OutSize elements of buffer 1 are captured as the output.
  std::vector<TierRun> runAllTiers(ir::Function *F, Range2 Global,
                                   Range2 Local,
                                   const std::vector<float> &Input,
                                   size_t OutSize,
                                   const std::vector<KernelArg> &Extra = {}) {
    std::vector<TierRun> Runs;
    for (ExecTier Tier : AllTiers) {
      std::vector<BufferData> Buffers;
      Buffers.emplace_back();
      Buffers.back().uploadFloats(Input);
      Buffers.emplace_back(OutSize);
      std::vector<BufferData *> Bank;
      for (BufferData &B : Buffers)
        Bank.push_back(&B);
      std::vector<KernelArg> Args = {KernelArg::makeBuffer(0),
                                     KernelArg::makeBuffer(1)};
      Args.insert(Args.end(), Extra.begin(), Extra.end());
      LaunchOptions Opts;
      Opts.Tier = Tier;
      TierRun R;
      R.Report = launchKernel(*F, Global, Local, Args, Bank, Device, Opts);
      R.Output = Buffers[1].downloadFloats();
      Runs.push_back(std::move(R));
    }
    return Runs;
  }

  /// Expects all tiers to have succeeded with tier 0's exact bytes and
  /// counters.
  void expectParity(const std::vector<TierRun> &Runs) {
    ASSERT_EQ(Runs.size(), std::size(AllTiers));
    for (size_t T = 0; T < Runs.size(); ++T)
      ASSERT_TRUE(static_cast<bool>(Runs[T].Report))
          << execTierName(AllTiers[T]) << ": "
          << Runs[T].Report.error().message();
    for (size_t T = 1; T < Runs.size(); ++T) {
      const char *Name = execTierName(AllTiers[T]);
      ASSERT_EQ(Runs[0].Output.size(), Runs[T].Output.size()) << Name;
      EXPECT_EQ(std::memcmp(Runs[0].Output.data(), Runs[T].Output.data(),
                            Runs[0].Output.size() * sizeof(float)),
                0)
          << Name << " changed the output bytes";
      const Counters &A = Runs[0].Report->Totals;
      const Counters &B = Runs[T].Report->Totals;
      EXPECT_EQ(A.AluOps, B.AluOps) << Name;
      EXPECT_EQ(A.PrivateAccesses, B.PrivateAccesses) << Name;
      EXPECT_EQ(A.LocalAccesses, B.LocalAccesses) << Name;
      EXPECT_EQ(A.LocalWavefrontOps, B.LocalWavefrontOps) << Name;
      EXPECT_EQ(A.BankConflictExtra, B.BankConflictExtra) << Name;
      EXPECT_EQ(A.GlobalReadTransactions, B.GlobalReadTransactions) << Name;
      EXPECT_EQ(A.GlobalWriteTransactions, B.GlobalWriteTransactions)
          << Name;
      EXPECT_EQ(A.GlobalReads, B.GlobalReads) << Name;
      EXPECT_EQ(A.GlobalWrites, B.GlobalWrites) << Name;
      EXPECT_EQ(A.Barriers, B.Barriers) << Name;
      EXPECT_EQ(A.WorkGroups, B.WorkGroups) << Name;
      EXPECT_EQ(A.WorkItems, B.WorkItems) << Name;
    }
  }

  ir::Module M;
  DeviceConfig Device;
};

std::vector<float> iota(size_t N, float Scale = 1.0f) {
  std::vector<float> V(N);
  for (size_t I = 0; I < N; ++I)
    V[I] = Scale * static_cast<float>((I * 7) % 23 + 1);
  return V;
}

} // namespace

//===----------------------------------------------------------------------===//
// Tier-name plumbing
//===----------------------------------------------------------------------===//

TEST(ExecTierTest, ParseAndName) {
  ExecTier T = ExecTier::Tree;
  EXPECT_TRUE(parseExecTier("tree", T));
  EXPECT_EQ(T, ExecTier::Tree);
  EXPECT_TRUE(parseExecTier("batched", T));
  EXPECT_EQ(T, ExecTier::Batched);
  EXPECT_FALSE(parseExecTier("warpspeed", T));
  EXPECT_EQ(T, ExecTier::Batched); // Untouched on failure.
  // The scalar bytecode tier is gone; its old name must not parse.
  EXPECT_FALSE(parseExecTier("bytecode", T));
  EXPECT_EQ(T, ExecTier::Batched);
  for (ExecTier Tier : AllTiers) {
    ExecTier Back = ExecTier::Tree;
    EXPECT_TRUE(parseExecTier(execTierName(Tier), Back));
    EXPECT_EQ(Back, Tier);
  }
}

TEST(ExecTierTest, UnknownEnvironmentTierWarnsOnce) {
  const char *Old = std::getenv("KPERF_EXEC_TIER");
  std::string Saved = Old ? Old : "";
  auto Lookup = [](const char *Value, std::string &Stderr) {
    setenv("KPERF_EXEC_TIER", Value, 1);
    testing::internal::CaptureStderr();
    ExecTier Tier = defaultExecTier();
    Stderr = testing::internal::GetCapturedStderr();
    return Tier;
  };
  std::string Valid, First, Second;
  ExecTier FromValid = Lookup("batched", Valid);
  // The retired scalar tier's name must not quietly select the tree
  // walker: the first lookup names the accepted values, once per process.
  ExecTier FromFirst = Lookup("bytecode", First);
  ExecTier FromSecond = Lookup("bytecode", Second);
  if (Old)
    setenv("KPERF_EXEC_TIER", Saved.c_str(), 1);
  else
    unsetenv("KPERF_EXEC_TIER");

  EXPECT_EQ(FromValid, ExecTier::Batched);
  EXPECT_EQ(Valid, "");
  EXPECT_EQ(FromFirst, ExecTier::Tree);
  EXPECT_EQ(std::count(First.begin(), First.end(), '\n'), 1) << First;
  EXPECT_NE(First.find("KPERF_EXEC_TIER 'bytecode'"), std::string::npos)
      << First;
  EXPECT_NE(First.find("tree|batched"), std::string::npos) << First;
  EXPECT_EQ(FromSecond, ExecTier::Tree);
  EXPECT_EQ(Second, "");
}

//===----------------------------------------------------------------------===//
// Compiler structure: register allocation and fusion
//===----------------------------------------------------------------------===//

TEST_F(BytecodeTest, LinearScanReusesDeadRegisters) {
  // A long chain of single-use values: each intermediate dies at its one
  // use, so the linear scan packs the whole chain into a handful of
  // registers instead of one per SSA value.
  std::string Source = "kernel void f(global const float* in, "
                       "global float* out, int w) {"
                       "  int x = get_global_id(0);"
                       "  float a = in[x];";
  for (int I = 0; I < 40; ++I)
    Source += "  a = a * 1.5 + 2.0;";
  Source += "  out[x] = a;"
            "}";
  ir::Function *F = compile(Source);
  ASSERT_NE(F, nullptr);
  bc::Program P = cantFail(bc::compile(*F));
  ASSERT_GT(P.NumRegs, P.NumShared);
  unsigned Allocated = P.NumRegs - P.NumShared;
  // The chain alone defines 80+ values; liveness must keep the register
  // file near the peak-live bound (plus at most a pair of cycle-breaking
  // scratch registers), not near the value count.
  EXPECT_LE(Allocated, P.MaxLive + 2);
  EXPECT_LT(P.MaxLive, 16u);
  EXPECT_GT(P.Code.size(), 40u);
}

TEST_F(BytecodeTest, FusionEmitsSuperinstructions) {
  // in[y*w+x] lowers to MulAdd feeding a Gep feeding a Load: the
  // peephole must fold at least the address computation into the memory
  // op, and the fused program must stay within the unfused counters.
  ir::Function *F = compile("kernel void f(global const float* in, "
                            "global float* out, int w) {"
                            "  int x = get_global_id(0);"
                            "  int y = get_global_id(1);"
                            "  out[y * w + x] = in[y * w + x] * 2.0;"
                            "}");
  ASSERT_NE(F, nullptr);
  bc::Program P = cantFail(bc::compile(*F));
  bool HasFused = false;
  for (const bc::Instr &I : P.Code)
    HasFused |= I.Opc >= bc::Op::LdGX;
  EXPECT_TRUE(HasFused)
      << "no fused superinstruction in the compiled program";
}

//===----------------------------------------------------------------------===//
// Phi edge copies
//===----------------------------------------------------------------------===//

TEST_F(BytecodeTest, PhiSwapCycleOnLoopBackEdge) {
  // After mem2reg, a and b become phis whose back-edge incoming values
  // are each other: a parallel-copy swap cycle the compiler must break
  // with a scratch register. 5 iterations = odd swap count, so a wrong
  // sequentialization (copy a->b before b's read) changes the result.
  // mem2reg promotes the allocas into the phis this test is about.
  pcl::CompileOptions CO;
  CO.PipelineSpec = "mem2reg";
  Expected<ir::Function *> F =
      pcl::compileKernel(M,
                         "kernel void f(global const float* in, "
                         "global float* out, int w) {"
                         "  int x = get_global_id(0);"
                         "  float a = in[x];"
                         "  float b = a * 3.0 + 1.0;"
                         "  for (int i = 0; i < 5; i++) {"
                         "    float t = a;"
                         "    a = b;"
                         "    b = t;"
                         "  }"
                         "  out[x] = a * 2.0 - b;"
                         "}",
                         "f", CO);
  ASSERT_TRUE(static_cast<bool>(F)) << F.error().message();
  // The loop header phis must carry a back-edge copy list with the swap.
  bc::Program P = cantFail(bc::compile(**F));
  EXPECT_FALSE(P.CopyPool.empty())
      << "expected phi edge copies after mem2reg";
  expectParity(runAllTiers(*F, {64, 1}, {16, 1}, iota(64), 64,
                           {KernelArg::makeInt(64)}));
}

//===----------------------------------------------------------------------===//
// Divergence, barriers, faults
//===----------------------------------------------------------------------===//

TEST_F(BytecodeTest, DivergentBranchesReconverge) {
  // Data-dependent triple split inside a loop: items take different pc
  // paths each iteration and the batched tier must keep per-item masks
  // straight through the re-merges.
  ir::Function *F = compile("kernel void f(global const float* in, "
                            "global float* out, int w) {"
                            "  int x = get_global_id(0);"
                            "  float v = in[x];"
                            "  float acc = 0.0;"
                            "  for (int i = 0; i < 4; i++) {"
                            "    if (x % 3 == 0) {"
                            "      acc = acc + v;"
                            "    } else if (x % 3 == 1) {"
                            "      acc = acc - v * 0.5;"
                            "    } else {"
                            "      acc = acc * 1.25 + 1.0;"
                            "    }"
                            "  }"
                            "  out[x] = acc;"
                            "}");
  ASSERT_NE(F, nullptr);
  expectParity(runAllTiers(F, {64, 1}, {16, 1}, iota(64), 64,
                           {KernelArg::makeInt(64)}));
}

TEST_F(BytecodeTest, BarrierSuspendsAndResumes) {
  // Values live across two barriers (v1 spans the middle one), local
  // traffic on both sides, and a cross-item read pattern that fails if
  // any tier lets an item run ahead of the barrier.
  ir::Function *F = compile("kernel void f(global const float* in, "
                            "global float* out, int w) {"
                            "  local float t[16];"
                            "  int l = get_local_id(0);"
                            "  int x = get_global_id(0);"
                            "  t[l] = in[x];"
                            "  barrier();"
                            "  float v1 = t[15 - l];"
                            "  barrier();"
                            "  t[l] = v1 * 2.0;"
                            "  barrier();"
                            "  out[x] = t[(l + 1) % 16] + v1;"
                            "}");
  ASSERT_NE(F, nullptr);
  std::vector<TierRun> Runs =
      runAllTiers(F, {64, 1}, {16, 1}, iota(64), 64,
                  {KernelArg::makeInt(64)});
  expectParity(Runs);
  EXPECT_EQ(Runs[0].Report->Totals.Barriers, 3u * 64u); // 3 per item.
}

TEST_F(BytecodeTest, DivergentBarrierFaultsOnAllTiers) {
  ir::Function *F = compile("kernel void f(global const float* in, "
                            "global float* out, int w) {"
                            "  int l = get_local_id(0);"
                            "  if (l < 2) { barrier(); }"
                            "  out[get_global_id(0)] = in[l];"
                            "}");
  ASSERT_NE(F, nullptr);
  std::vector<TierRun> Runs = runAllTiers(F, {8, 1}, {4, 1}, iota(8), 8,
                                          {KernelArg::makeInt(8)});
  for (size_t T = 0; T < Runs.size(); ++T) {
    ASSERT_FALSE(static_cast<bool>(Runs[T].Report))
        << execTierName(AllTiers[T])
        << " accepted a divergent barrier";
    EXPECT_NE(Runs[T].Report.error().message().find("barrier"),
              std::string::npos)
        << execTierName(AllTiers[T]);
  }
}

TEST_F(BytecodeTest, DivisionByZeroFaultsOnAllTiers) {
  // in[] holds a zero at one item: the per-item fault must fire on every
  // tier, including the batched tier's vectorized divide fast path
  // (which must prescan and fall back).
  std::vector<float> Input = iota(32);
  Input[17] = 0.0f;
  ir::Function *F = compile("kernel void f(global const float* in, "
                            "global float* out, int w) {"
                            "  int x = get_global_id(0);"
                            "  int d = (int)in[x];"
                            "  out[x] = (float)(100 / d);"
                            "}");
  ASSERT_NE(F, nullptr);
  std::vector<TierRun> Runs = runAllTiers(F, {32, 1}, {16, 1}, Input, 32,
                                          {KernelArg::makeInt(32)});
  for (size_t T = 0; T < Runs.size(); ++T) {
    ASSERT_FALSE(static_cast<bool>(Runs[T].Report))
        << execTierName(AllTiers[T]) << " missed the division by zero";
    EXPECT_NE(Runs[T].Report.error().message().find("division"),
              std::string::npos)
        << execTierName(AllTiers[T]) << ": "
        << Runs[T].Report.error().message();
  }
}

TEST_F(BytecodeTest, IntMinDivMinusOneWrapsOnAllTiers) {
  // a is INT32_MIN at w == 1 (computed without overflowing). Dividing
  // it by -1 overflows int32: every tier must define the result by
  // wraparound (quotient INT32_MIN, remainder 0) rather than trap the
  // host. d is a uniform -1, which the batched tier's double-precision
  // fast path skips; e alternates -1 and 1 to reach its non-uniform
  // path.
  ir::Function *F = compile("kernel void f(global const float* in, "
                            "global float* out, int w, int h) {"
                            "  int x = get_global_id(0);"
                            "  int a = w * (0 - 2147483647) - 1;"
                            "  int d = h - 2;"
                            "  int e = (x % 2) * 2 - 1;"
                            "  out[4 * x] = (float)(a / d);"
                            "  out[4 * x + 1] = (float)(a % d);"
                            "  out[4 * x + 2] = (float)(a / e);"
                            "  out[4 * x + 3] = (float)(a % e);"
                            "}");
  ASSERT_NE(F, nullptr);
  std::vector<TierRun> Runs =
      runAllTiers(F, {16, 1}, {16, 1}, iota(16), 64,
                  {KernelArg::makeInt(1), KernelArg::makeInt(1)});
  expectParity(Runs);
  if (!Runs[0].Report)
    return;
  const float Min = static_cast<float>(INT32_MIN);
  for (size_t X = 0; X < 16; ++X) {
    EXPECT_EQ(Runs[0].Output[4 * X], Min) << X;
    EXPECT_EQ(Runs[0].Output[4 * X + 1], 0.0f) << X;
    EXPECT_EQ(Runs[0].Output[4 * X + 2], Min) << X; // a / 1 or a / -1.
    EXPECT_EQ(Runs[0].Output[4 * X + 3], 0.0f) << X;
  }
}

//===----------------------------------------------------------------------===//
// Counter parity on memory-heavy shapes
//===----------------------------------------------------------------------===//

TEST_F(BytecodeTest, StridedAccessCountersMatch) {
  // Non-contiguous global pattern + local bank structure: exercises the
  // batched tier's transaction/bank accounting against the tree
  // walker's, including the non-consecutive-offset paths.
  ir::Function *F = compile("kernel void f(global const float* in, "
                            "global float* out, int w) {"
                            "  local float t[16];"
                            "  int l = get_local_id(0);"
                            "  int x = get_global_id(0);"
                            "  t[(l * 3) % 16] = in[(x * 5) % 64];"
                            "  barrier();"
                            "  out[x] = t[(l * 7) % 16] + in[x];"
                            "}");
  ASSERT_NE(F, nullptr);
  expectParity(runAllTiers(F, {64, 1}, {16, 1}, iota(64), 64,
                           {KernelArg::makeInt(64)}));
}
