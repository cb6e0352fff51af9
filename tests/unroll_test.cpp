//===- tests/unroll_test.cpp - Constant-trip loop unrolling unit tests ------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "ir/Dominators.h"
#include "ir/PassManager.h"
#include "ir/Passes.h"
#include "ir/Verifier.h"
#include "pcl/Compiler.h"
#include "runtime/Session.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace kperf;
using namespace kperf::ir;

namespace {

/// Compiles the first kernel of \p Source into \p S, running \p Spec as
/// the post-verify pipeline with verify-each on.
rt::Kernel compileWith(rt::Session &S, const char *Source,
                       const std::string &Spec) {
  pcl::CompileOptions Opts;
  Opts.PipelineSpec = Spec;
  Opts.VerifyEach = true;
  Expected<std::vector<rt::Kernel>> Ks = S.compileAll(Source, Opts);
  EXPECT_TRUE(static_cast<bool>(Ks)) << Ks.error().message();
  return Ks->front();
}

bool hasBackEdge(const Function &F) {
  DominatorTree DT = DominatorTree::compute(F);
  for (const auto &BB : F.blocks())
    for (BasicBlock *Succ : successors(BB.get()))
      if (DT.isReachable(BB.get()) && DT.dominates(Succ, BB.get()))
        return true;
  return false;
}

size_t phiCount(const Function &F) {
  size_t N = 0;
  for (const auto &BB : F.blocks())
    N += BB->firstNonPhiIndex();
  return N;
}

/// Runs a 16x16 launch of kernel(in, out, w, h) and returns the output.
std::vector<float> runKernel(rt::Session &S, const rt::Kernel &K) {
  constexpr unsigned N = 16;
  std::vector<float> In(N * N);
  for (unsigned I = 0; I < In.size(); ++I)
    In[I] = 0.25f * static_cast<float>(I % 17) - 1.0f;
  unsigned InBuf = S.createBufferFrom(In);
  unsigned OutBuf = S.createBuffer(In.size());
  Expected<sim::SimReport> R =
      S.launch(K, {N, N}, {8, 8},
               {rt::arg::buffer(InBuf), rt::arg::buffer(OutBuf),
                rt::arg::i32(N), rt::arg::i32(N)});
  EXPECT_TRUE(static_cast<bool>(R)) << R.error().message();
  return S.buffer(OutBuf).downloadFloats();
}

/// The two pipelines' outputs must agree bit for bit.
void expectSameOutput(const char *Source, const std::string &SpecA,
                      const std::string &SpecB) {
  rt::Session SA, SB;
  std::vector<float> A = runKernel(SA, compileWith(SA, Source, SpecA));
  std::vector<float> B = runKernel(SB, compileWith(SB, Source, SpecB));
  ASSERT_EQ(A.size(), B.size());
  EXPECT_EQ(std::memcmp(A.data(), B.data(), A.size() * sizeof(float)), 0)
      << "'" << SpecA << "' vs '" << SpecB << "'";
}

const char *WindowKernel = R"(
kernel void k(global const float* in, global float* out, int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  float acc = 0.0;
  for (int i = 0; i < 4; i++) {
    acc += in[clamp(y + i - 1, 0, h - 1) * w + x];
  }
  out[y * w + x] = acc;
}
)";

const char *NestedKernel = R"(
kernel void k(global const float* in, global float* out, int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  float acc = 0.0;
  for (int ky = 0; ky < 3; ky++) {
    for (int kx = 0; kx < 3; kx++) {
      acc += in[clamp(y + ky - 1, 0, h - 1) * w
                + clamp(x + kx - 1, 0, w - 1)];
    }
  }
  out[y * w + x] = acc / 9.0;
}
)";

TEST(UnrollTest, FullyUnrollsConstantTripLoop) {
  rt::Session S;
  rt::Kernel K = compileWith(S, WindowKernel, "mem2reg,unroll");
  EXPECT_FALSE(hasBackEdge(*K.F));
  EXPECT_EQ(phiCount(*K.F), 0u); // Induction + accumulator collapsed.
  // Straight-line chains merged: the whole kernel is one block.
  EXPECT_EQ(K.F->numBlocks(), 1u);
}

TEST(UnrollTest, DownwardCountingAndStridedLoopsUnroll) {
  const char *Down = R"(
kernel void k(global const float* in, global float* out, int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  float acc = 0.0;
  for (int i = 3; i >= 0; i = i - 1) {
    acc += in[clamp(y + i, 0, h - 1) * w + x];
  }
  for (int j = 0; j < 6; j = j + 2) {
    acc += in[y * w + clamp(x + j, 0, w - 1)];
  }
  out[y * w + x] = acc;
}
)";
  rt::Session S;
  rt::Kernel K = compileWith(S, Down, "mem2reg,unroll");
  EXPECT_FALSE(hasBackEdge(*K.F));
  EXPECT_EQ(K.F->numBlocks(), 1u);
  expectSameOutput(Down, "", "mem2reg,unroll");
}

TEST(UnrollTest, TripCountMustBeConstant) {
  const char *Dynamic = R"(
kernel void k(global const float* in, global float* out, int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  float acc = 0.0;
  for (int i = 0; i < w; i++) {
    acc += in[y * w + clamp(i, 0, w - 1)];
  }
  out[y * w + x] = acc;
}
)";
  rt::Session S;
  pcl::CompileOptions Opts;
  Opts.PipelineSpec = "mem2reg,unroll";
  Opts.VerifyEach = true;
  PipelineStats Stats;
  Opts.Stats = &Stats;
  Expected<std::vector<rt::Kernel>> Ks = S.compileAll(Dynamic, Opts);
  ASSERT_TRUE(static_cast<bool>(Ks)) << Ks.error().message();
  EXPECT_EQ(Stats.changes("unroll"), 0u); // Bound is an argument: refused.
  EXPECT_TRUE(hasBackEdge(*Ks->front().F));
}

TEST(UnrollTest, BudgetRefusesOversizedLoops) {
  rt::Session S;
  pcl::CompileOptions Opts;
  Opts.PipelineSpec = "mem2reg,unroll(8)"; // 4 trips x loop size >> 8.
  Opts.VerifyEach = true;
  PipelineStats Stats;
  Opts.Stats = &Stats;
  Expected<std::vector<rt::Kernel>> Ks = S.compileAll(WindowKernel, Opts);
  ASSERT_TRUE(static_cast<bool>(Ks)) << Ks.error().message();
  EXPECT_EQ(Stats.changes("unroll"), 0u);
  EXPECT_TRUE(hasBackEdge(*Ks->front().F));
  // The same loop within budget does unroll.
  rt::Session S2;
  rt::Kernel K2 = compileWith(S2, WindowKernel, "mem2reg,unroll(256)");
  EXPECT_FALSE(hasBackEdge(*K2.F));
}

TEST(UnrollTest, NestedWindowLoopsFlattenInnerFirst) {
  rt::Session S;
  rt::Kernel K = compileWith(S, NestedKernel, defaultPipelineSpec());
  EXPECT_FALSE(hasBackEdge(*K.F));
  EXPECT_EQ(K.F->numBlocks(), 1u);
  EXPECT_EQ(phiCount(*K.F), 0u);
}

TEST(UnrollTest, PostUnrollPipelineFoldsInductionArithmetic) {
  // After unroll, the default fixpoint group folds every induction use:
  // no comparison or integer constant arithmetic may survive, and one
  // simulated launch must execute strictly fewer ALU ops than the rolled
  // form (the loop overhead -- compare, branch, increment -- is gone).
  rt::Session S1, S2;
  rt::Kernel Rolled =
      compileWith(S1, WindowKernel,
                  "mem2reg,fixpoint(simplify,gvn,memopt-forward,licm,"
                  "memopt-dse,dce)");
  rt::Kernel Unrolled = compileWith(S2, WindowKernel,
                                    defaultPipelineSpec());
  for (const auto &BB : Unrolled.F->blocks())
    for (const auto &I : BB->instructions()) {
      EXPECT_NE(I->opcode(), Opcode::CmpLt); // The trip test is gone.
      if (I->opcode() == Opcode::Add || I->opcode() == Opcode::Mul) {
        EXPECT_FALSE(isa<ConstantInt>(I->operand(0)) &&
                     isa<ConstantInt>(I->operand(1)))
            << "unfolded constant arithmetic survived";
      }
    }
  uint64_t RolledAlu = 0, UnrolledAlu = 0;
  {
    unsigned In = S1.createBuffer(16 * 16), Out = S1.createBuffer(16 * 16);
    RolledAlu = cantFail(S1.launch(Rolled, {16, 16}, {8, 8},
                                   {rt::arg::buffer(In),
                                    rt::arg::buffer(Out), rt::arg::i32(16),
                                    rt::arg::i32(16)}))
                    .Totals.AluOps;
  }
  {
    unsigned In = S2.createBuffer(16 * 16), Out = S2.createBuffer(16 * 16);
    UnrolledAlu = cantFail(S2.launch(Unrolled, {16, 16}, {8, 8},
                                     {rt::arg::buffer(In),
                                      rt::arg::buffer(Out),
                                      rt::arg::i32(16), rt::arg::i32(16)}))
                      .Totals.AluOps;
  }
  EXPECT_LT(UnrolledAlu, RolledAlu);
}

TEST(UnrollTest, ZeroTripLoopDisappears) {
  const char *ZeroTrip = R"(
kernel void k(global const float* in, global float* out, int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  float acc = in[y * w + x];
  for (int i = 0; i < 0; i++) {
    acc += in[clamp(y + i, 0, h - 1) * w + x];
  }
  out[y * w + x] = acc;
}
)";
  rt::Session S;
  rt::Kernel K = compileWith(S, ZeroTrip, "mem2reg,unroll");
  EXPECT_FALSE(hasBackEdge(*K.F));
  EXPECT_EQ(K.F->numBlocks(), 1u);
  expectSameOutput(ZeroTrip, "", "mem2reg,unroll");
}

TEST(UnrollTest, UnrolledOutputsBitIdentical) {
  for (const char *Source : {WindowKernel, NestedKernel}) {
    expectSameOutput(Source, "", "mem2reg,unroll");
    expectSameOutput(Source, "", defaultPipelineSpec());
    expectSameOutput(Source, "mem2reg", "mem2reg,unroll(64)");
  }
}

} // namespace
