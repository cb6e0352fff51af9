//===- tests/mem2reg_test.cpp - SSA promotion tests -------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// mem2reg coverage: straight-line promotion, if/else phi placement,
// loop-carried variables, the non-promotable cases (address taken through
// a GEP, local allocas, barrier-crossing scalars), phi verifier
// invariants, cloning of phi-form IR, and an interpreter-level check that
// promoted kernels compute bit-identical outputs with less private-memory
// traffic.
//
//===----------------------------------------------------------------------===//

#include "gpusim/Interpreter.h"
#include "ir/AnalysisManager.h"
#include "ir/Clone.h"
#include "ir/IRBuilder.h"
#include "ir/Mem2Reg.h"
#include "ir/Passes.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "pcl/Compiler.h"
#include "runtime/Session.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace kperf;
using namespace kperf::ir;

namespace {

/// Compiles \p Source and returns its single kernel.
Function *compileKernel(rt::Session &Ctx, const char *Source) {
  Expected<std::vector<Function *>> Fns =
      pcl::compile(Ctx.module(), Source);
  EXPECT_TRUE(static_cast<bool>(Fns)) << (Fns ? "" : Fns.error().message());
  return Fns ? Fns->front() : nullptr;
}

unsigned countOpcode(const Function &F, Opcode Op) {
  unsigned N = 0;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      N += I->opcode() == Op ? 1 : 0;
  return N;
}

unsigned countPrivateAllocas(const Function &F) {
  unsigned N = 0;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (I->opcode() == Opcode::Alloca &&
          I->allocaSpace() == AddressSpace::Private)
        ++N;
  return N;
}

/// Runs "mem2reg,dce" (the acceptance pipeline) over \p F.
PipelineStats promote(Function &F, Module &M) {
  Expected<PipelineStats> S = runPipelineSpec(F, M, "mem2reg,dce");
  EXPECT_TRUE(static_cast<bool>(S)) << (S ? "" : S.error().message());
  Error E = verifyFunction(F);
  EXPECT_FALSE(static_cast<bool>(E)) << E.message();
  return S ? *S : PipelineStats();
}

//===----------------------------------------------------------------------===//
// Promotion coverage
//===----------------------------------------------------------------------===//

TEST(Mem2RegTest, StraightLinePromotionLeavesNoAllocasOrPhis) {
  rt::Session Ctx;
  Function *F = compileKernel(Ctx, R"(
kernel void k(global const float* in, global float* out, int w) {
  int x = get_global_id(0);
  float a = in[x];
  float b = a * 2.0;
  float c = b + a;
  out[x] = c;
}
)");
  ASSERT_NE(F, nullptr);
  EXPECT_GT(countPrivateAllocas(*F), 0u);

  PipelineStats S = promote(*F, Ctx.module());
  EXPECT_GT(S.changes("mem2reg"), 0u);
  // Every private scalar promotes; straight-line code needs no phis.
  EXPECT_EQ(countPrivateAllocas(*F), 0u);
  EXPECT_EQ(countOpcode(*F, Opcode::Phi), 0u);
  EXPECT_EQ(countOpcode(*F, Opcode::Load), 1u);  // The global input load.
  EXPECT_EQ(countOpcode(*F, Opcode::Store), 1u); // The global output store.
}

TEST(Mem2RegTest, IfElsePlacesPhiAtTheJoin) {
  rt::Session Ctx;
  Function *F = compileKernel(Ctx, R"(
kernel void k(global const float* in, global float* out, int w) {
  int x = get_global_id(0);
  float v = 0.0;
  if (x % 2 == 0) {
    v = in[x] * 2.0;
  } else {
    v = in[x] + 1.0;
  }
  out[x] = v;
}
)");
  ASSERT_NE(F, nullptr);
  PipelineStats S = promote(*F, Ctx.module());
  EXPECT_GT(S.changes("mem2reg"), 0u);
  EXPECT_EQ(countPrivateAllocas(*F), 0u);
  // Exactly one merge point: v at the if/else join. The phi lives in the
  // join block and draws one incoming per predecessor.
  ASSERT_EQ(countOpcode(*F, Opcode::Phi), 1u);
  for (const auto &BB : F->blocks())
    for (const auto &I : BB->instructions())
      if (I->opcode() == Opcode::Phi) {
        EXPECT_EQ(I->numIncoming(), 2u);
        EXPECT_NE(BB->name().find("if.end"), std::string::npos)
            << "phi placed in '" << BB->name() << "'";
      }
}

TEST(Mem2RegTest, LoopCarriedVariableBecomesHeaderPhi) {
  rt::Session Ctx;
  Function *F = compileKernel(Ctx, R"(
kernel void k(global const float* in, global float* out, int w) {
  int x = get_global_id(0);
  float acc = 0.0;
  for (int i = 0; i < 4; i++) {
    acc += in[x + i];
  }
  out[x] = acc;
}
)");
  ASSERT_NE(F, nullptr);
  PipelineStats S = promote(*F, Ctx.module());
  EXPECT_GT(S.changes("mem2reg"), 0u);
  EXPECT_EQ(countPrivateAllocas(*F), 0u);
  // acc and i are both loop-carried: phis in the loop header, each with
  // an incoming from the preheader side and one from the latch.
  unsigned HeaderPhis = 0;
  for (const auto &BB : F->blocks())
    for (const auto &I : BB->instructions())
      if (I->opcode() == Opcode::Phi &&
          BB->name().find("for.cond") != std::string::npos) {
        ++HeaderPhis;
        EXPECT_EQ(I->numIncoming(), 2u);
      }
  EXPECT_EQ(HeaderPhis, 2u);
  EXPECT_EQ(countOpcode(*F, Opcode::Phi), HeaderPhis);
}

TEST(Mem2RegTest, PromotionIsIdempotent) {
  rt::Session Ctx;
  Function *F = compileKernel(Ctx, R"(
kernel void k(global const float* in, global float* out, int w) {
  float acc = 0.0;
  for (int i = 0; i < 3; i++) { acc += in[i]; }
  out[get_global_id(0)] = acc;
}
)");
  ASSERT_NE(F, nullptr);
  promote(*F, Ctx.module());
  AnalysisManager AM;
  EXPECT_EQ(promoteMemoryToRegisters(*F, Ctx.module(), AM), 0u);
}

//===----------------------------------------------------------------------===//
// Non-promotable cases
//===----------------------------------------------------------------------===//

TEST(Mem2RegTest, ArrayAllocaIndexedThroughGepStays) {
  rt::Session Ctx;
  Function *F = compileKernel(Ctx, R"(
kernel void k(global const float* in, global float* out, int w) {
  float window[3];
  int x = get_global_id(0);
  for (int i = 0; i < 3; i++) { window[i] = in[x + i]; }
  out[x] = window[0] + window[1] + window[2];
}
)");
  ASSERT_NE(F, nullptr);
  PipelineStats S = promote(*F, Ctx.module());
  EXPECT_GT(S.changes("mem2reg"), 0u); // x and i still promote...
  EXPECT_EQ(countPrivateAllocas(*F), 1u); // ...but the array stays.
  for (const auto &BB : F->blocks())
    for (const auto &I : BB->instructions())
      if (I->opcode() == Opcode::Alloca) {
        EXPECT_EQ(I->allocaCount(), 3u);
      }
}

TEST(Mem2RegTest, LocalAllocaStays) {
  // PCL only declares local arrays, so build the local scalar directly:
  // a per-work-group counter is shared state and must stay in memory.
  Module M;
  IRBuilder B(M);
  Function *F = M.createFunction("k");
  F->addArgument(Type::pointerTo(ScalarKind::Float, AddressSpace::Global),
                 "out", false);
  BasicBlock *Entry = F->createBlock("entry");
  B.setInsertPoint(Entry);
  Instruction *L =
      B.createAlloca(ScalarKind::Float, 1, AddressSpace::Local, "shared");
  B.createStore(M.getFloat(1.0f), L);
  Instruction *V = B.createLoad(L, "v");
  B.createStore(V, B.createGep(F->argument(0), M.getInt(0)));
  B.createRet();
  ASSERT_FALSE(static_cast<bool>(verifyFunction(*F)));

  AnalysisManager AM;
  EXPECT_EQ(promoteMemoryToRegisters(*F, M, AM), 0u);
  EXPECT_EQ(countOpcode(*F, Opcode::Alloca), 1u);
}

TEST(Mem2RegTest, BarrierCrossingScalarPromotes) {
  rt::Session Ctx;
  Function *F = compileKernel(Ctx, R"(
kernel void k(global const float* in, global float* out, int w) {
  int x = get_global_id(0);
  float v = in[x] * 2.0;
  barrier();
  out[get_global_id(0)] = v;
}
)");
  ASSERT_NE(F, nullptr);
  PipelineStats S = promote(*F, Ctx.module());
  // v's store and load sit on opposite sides of the barrier, but every
  // execution tier suspends and resumes work items with their live SSA
  // values intact, so barrier-crossing private scalars promote like any
  // other (barriers publish local and global memory, never private).
  EXPECT_GT(S.changes("mem2reg"), 0u);
  EXPECT_EQ(countPrivateAllocas(*F), 0u);
}

TEST(Mem2RegTest, UsesEntirelyOnOneSideOfABarrierStillPromote) {
  rt::Session Ctx;
  Function *F = compileKernel(Ctx, R"(
kernel void k(global const float* in, global float* out, int w) {
  barrier();
  int x = get_global_id(0);
  float v = in[x] * 2.0;
  out[x] = v + 1.0;
}
)");
  ASSERT_NE(F, nullptr);
  promote(*F, Ctx.module());
  // Every scalar's whole live range sits after the barrier (and w's
  // parameter-copy store before it has no reader): nothing straddles the
  // synchronization point, everything promotes.
  EXPECT_EQ(countPrivateAllocas(*F), 0u);
}

TEST(Mem2RegTest, LoopCarriedValueAcrossInLoopBarrierPromotes) {
  rt::Session Ctx;
  Function *F = compileKernel(Ctx, R"(
kernel void k(global const float* in, global float* out, int w) {
  float acc = 0.0;
  for (int i = 0; i < 4; i++) {
    acc = acc + in[get_global_id(0) + i * w];
    out[get_global_id(0) + i * w] = acc;
    barrier();
  }
}
)");
  ASSERT_NE(F, nullptr);
  promote(*F, Ctx.module());
  // The loop back edge carries acc (and i) across the in-loop barrier.
  // The execution tiers keep live SSA values across barrier suspension,
  // so even loop-carried barrier-crossing scalars promote: nothing
  // private survives here.
  EXPECT_EQ(countPrivateAllocas(*F), 0u);
}

//===----------------------------------------------------------------------===//
// Phi invariants: verifier, printer, clone
//===----------------------------------------------------------------------===//

/// Builds   entry -> (then | else) -> join   returning the join block.
struct Diamond {
  Module M;
  Function *F = nullptr;
  BasicBlock *Entry = nullptr, *Then = nullptr, *Else = nullptr,
             *Join = nullptr;

  Diamond() {
    IRBuilder B(M);
    F = M.createFunction("f");
    Argument *Flag = F->addArgument(Type::intTy(), "flag", false);
    F->addArgument(Type::pointerTo(ScalarKind::Int, AddressSpace::Global),
                   "out", false);
    Entry = F->createBlock("entry");
    Then = F->createBlock("then");
    Else = F->createBlock("else");
    Join = F->createBlock("join");
    B.setInsertPoint(Entry);
    B.createCondBr(B.createCmp(Opcode::CmpGt, Flag, M.getInt(0)), Then,
                   Else);
    B.setInsertPoint(Then);
    B.createBr(Join);
    B.setInsertPoint(Else);
    B.createBr(Join);
  }
};

TEST(Mem2RegPhiIRTest, VerifierAcceptsWellFormedPhi) {
  Diamond D;
  IRBuilder B(D.M);
  B.setInsertPoint(D.Join);
  Instruction *Phi = B.createPhi(Type::intTy(), "v");
  Phi->addIncoming(D.M.getInt(1), D.Then);
  Phi->addIncoming(D.M.getInt(2), D.Else);
  B.createStore(Phi, B.createGep(D.F->argument(1), D.M.getInt(0)));
  B.createRet();
  Error E = verifyFunction(*D.F);
  EXPECT_FALSE(static_cast<bool>(E)) << E.message();
  // The printer renders incoming pairs.
  EXPECT_NE(printFunction(*D.F).find("phi [1, then], [2, else]"),
            std::string::npos)
      << printFunction(*D.F);
}

TEST(Mem2RegPhiIRTest, VerifierRejectsMissingAndMisplacedPhis) {
  {
    Diamond D;
    IRBuilder B(D.M);
    B.setInsertPoint(D.Join);
    Instruction *Phi = B.createPhi(Type::intTy(), "v");
    Phi->addIncoming(D.M.getInt(1), D.Then); // No incoming for else.
    B.createRet();
    Error E = verifyFunction(*D.F);
    ASSERT_TRUE(static_cast<bool>(E));
    EXPECT_NE(E.message().find("incoming"), std::string::npos)
        << E.message();
  }
  {
    Diamond D;
    IRBuilder B(D.M);
    B.setInsertPoint(D.Join);
    // Build a phi below a non-phi by hand.
    B.createStore(D.M.getInt(0),
                  B.createGep(D.F->argument(1), D.M.getInt(0)));
    auto Phi = std::make_unique<Instruction>(
        Opcode::Phi, Type::intTy(), std::vector<Value *>{}, "late");
    Instruction *P = D.Join->append(std::move(Phi));
    P->addIncoming(D.M.getInt(1), D.Then);
    P->addIncoming(D.M.getInt(2), D.Else);
    B.createRet();
    Error E = verifyFunction(*D.F);
    ASSERT_TRUE(static_cast<bool>(E));
    EXPECT_NE(E.message().find("phi below non-phi"), std::string::npos)
        << E.message();
  }
  {
    // Phis may not appear in the entry block (it has no predecessors).
    Module M;
    Function *F = M.createFunction("f");
    BasicBlock *Entry = F->createBlock("entry");
    IRBuilder B(M);
    B.setInsertPoint(Entry);
    B.createPhi(Type::intTy(), "v");
    B.createRet();
    Error E = verifyFunction(*F);
    ASSERT_TRUE(static_cast<bool>(E));
    EXPECT_NE(E.message().find("entry"), std::string::npos) << E.message();
  }
}

TEST(Mem2RegPhiIRTest, CloneRemapsPhiOperandsAcrossBackEdges) {
  // Loop-carried phi: the incoming on the latch edge is defined *after*
  // the phi's block in layout order, exercising the clone fixup pass.
  rt::Session Ctx;
  Function *F = compileKernel(Ctx, R"(
kernel void k(global const float* in, global float* out, int w) {
  float acc = 0.0;
  for (int i = 0; i < 4; i++) { acc += in[i]; }
  out[get_global_id(0)] = acc;
}
)");
  ASSERT_NE(F, nullptr);
  promote(*F, Ctx.module());
  ASSERT_GT(countOpcode(*F, Opcode::Phi), 0u);

  CloneMap Map;
  Function *Copy = cloneFunction(Ctx.module(), *F, "k_copy", Map);
  Error E = verifyFunction(*Copy);
  EXPECT_FALSE(static_cast<bool>(E)) << E.message();
  EXPECT_EQ(countOpcode(*Copy, Opcode::Phi), countOpcode(*F, Opcode::Phi));
  // Every phi operand and incoming block must reference the clone, not
  // the original.
  for (const auto &BB : Copy->blocks())
    for (const auto &I : BB->instructions())
      if (I->opcode() == Opcode::Phi)
        for (unsigned OI = 0; OI < I->numIncoming(); ++OI) {
          EXPECT_EQ(I->incomingBlock(OI)->parent(), Copy);
          if (const auto *Op =
                  dyn_cast<Instruction>(I->incomingValue(OI))) {
            EXPECT_EQ(Op->parent()->parent(), Copy);
          }
        }
}

//===----------------------------------------------------------------------===//
// End-to-end: promoted kernels compute identical results, cheaper
//===----------------------------------------------------------------------===//

/// Launches \p F over a W x H float image and returns the output pixels
/// plus the simulator report.
struct RunResult {
  std::vector<float> Out;
  sim::SimReport Report;
};

RunResult launch(rt::Session &Ctx, Function *F,
                 const std::vector<float> &Input, unsigned W, unsigned H) {
  unsigned In = Ctx.createBufferFrom(Input);
  unsigned Out = Ctx.createBuffer(Input.size());
  sim::SimReport R = cantFail(
      Ctx.launch(rt::Kernel{F}, {W, H}, {4, 4},
                 {rt::arg::buffer(In), rt::arg::buffer(Out),
                  rt::arg::i32(static_cast<int32_t>(W)),
                  rt::arg::i32(static_cast<int32_t>(H))}));
  return {Ctx.buffer(Out).downloadFloats(), R};
}

TEST(Mem2RegEndToEndTest, PromotedKernelComputesIdenticalOutput) {
  // Control flow + loop-carried state + non-promotable array: every phi
  // shape mem2reg produces, executed through the interpreter.
  const char *Source = R"(
kernel void k(global const float* in, global float* out, int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  float window[3];
  float acc = 0.0;
  for (int i = 0; i < 3; i++) {
    window[i] = in[clamp(y + i - 1, 0, h - 1) * w + x];
  }
  for (int i = 0; i < 3; i++) {
    acc += window[i];
  }
  float v = acc / 3.0;
  if (x % 2 == 0) { v = v * 2.0; } else { v = v + 0.5; }
  out[y * w + x] = v;
}
)";
  unsigned W = 16, H = 16;
  std::vector<float> Input(W * H);
  for (unsigned I = 0; I < W * H; ++I)
    Input[I] = 0.25f * static_cast<float>(I % 31) + 1.0f;

  rt::Session Plain;
  Function *FPlain = compileKernel(Plain, Source);
  ASSERT_NE(FPlain, nullptr);
  RunResult Before = launch(Plain, FPlain, Input, W, H);

  rt::Session Optimized;
  Function *FOpt = compileKernel(Optimized, Source);
  ASSERT_NE(FOpt, nullptr);
  promote(*FOpt, Optimized.module());
  ASSERT_GT(countOpcode(*FOpt, Opcode::Phi), 0u);
  RunResult After = launch(Optimized, FOpt, Input, W, H);

  ASSERT_EQ(Before.Out.size(), After.Out.size());
  for (size_t I = 0; I < Before.Out.size(); ++I)
    EXPECT_EQ(Before.Out[I], After.Out[I]) << "pixel " << I;

  // The point of the exercise: promoted kernels drop almost all private
  // memory traffic (phis execute as free register moves), never add ALU
  // work, and leave global traffic untouched.
  EXPECT_LT(After.Report.Totals.PrivateAccesses,
            Before.Report.Totals.PrivateAccesses / 2);
  EXPECT_LE(After.Report.Totals.AluOps, Before.Report.Totals.AluOps);
  EXPECT_EQ(After.Report.Totals.GlobalReads,
            Before.Report.Totals.GlobalReads);
  EXPECT_EQ(After.Report.Totals.GlobalWrites,
            Before.Report.Totals.GlobalWrites);
}

TEST(Mem2RegEndToEndTest, DefaultPipelinePerforatedKernelStaysCorrect) {
  // Perforated clones (whose loader/compute phases are split by
  // barriers) carry phis: the kernel's own, promoted at compile, and the
  // loader and reconstruction loop counters the transform emits as phis,
  // which leaves the cleanup pipeline's leading mem2reg nothing to do.
  // Run one through the simulator against its accurate sibling.
  const char *Source = R"(
kernel void k(global const float* in, global float* out, int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  float acc = 0.0;
  for (int dy = 0; dy < 3; dy++) {
    acc += in[clamp(y + dy - 1, 0, h - 1) * w + x];
  }
  out[y * w + x] = acc / 3.0;
}
)";
  unsigned W = 16, H = 16;
  std::vector<float> Input(W * H);
  for (unsigned I = 0; I < W * H; ++I)
    Input[I] = static_cast<float>((I * 7) % 23);

  rt::Session Ctx;
  rt::Kernel K = cantFail(Ctx.compile(Source, "k"));
  perf::PerforationPlan Plan;
  Plan.Scheme =
      perf::PerforationScheme::rows(2, perf::ReconstructionKind::Linear);
  Plan.TileX = 4;
  Plan.TileY = 4;
  Plan.VerifyEach = true; // Verify after every cleanup pass.
  rt::Variant P = cantFail(Ctx.perforate(K, Plan));
  EXPECT_EQ(P.PassStats.changes("mem2reg"), 0u);
  unsigned Phis = 0;
  for (const auto &BB : P.K.F->blocks())
    for (const auto &I : BB->instructions())
      Phis += I->opcode() == ir::Opcode::Phi;
  EXPECT_GE(Phis, 2u); // The loader's and the reconstruction's counters.

  unsigned In = Ctx.createBufferFrom(Input);
  unsigned Out = Ctx.createBuffer(Input.size());
  std::vector<sim::KernelArg> Args = {
      rt::arg::buffer(In), rt::arg::buffer(Out),
      rt::arg::i32(static_cast<int32_t>(W)),
      rt::arg::i32(static_cast<int32_t>(H))};
  cantFail(Ctx.launch(K, {W, H}, {4, 4}, Args));
  std::vector<float> Accurate = Ctx.buffer(Out).downloadFloats();
  cantFail(Ctx.launch(P, {W, H}, Args));
  std::vector<float> Approx = Ctx.buffer(Out).downloadFloats();

  // Perforation is lossy by design; linear reconstruction over a
  // vertically smooth kernel stays close. The real assertion is that
  // execution completes and produces sane values, not NaN garbage.
  for (size_t I = 0; I < Accurate.size(); ++I) {
    EXPECT_TRUE(std::isfinite(Approx[I])) << I;
    EXPECT_NEAR(Accurate[I], Approx[I], 25.0f) << I;
  }
}

} // namespace
