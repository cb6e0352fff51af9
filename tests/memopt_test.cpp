//===- tests/memopt_test.cpp - store forwarding / dead store tests ----------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "apps/App.h"
#include "img/Generators.h"
#include "ir/DCE.h"
#include "ir/IRBuilder.h"
#include "ir/MemOpt.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace kperf;
using namespace kperf::ir;

namespace {

unsigned countOpcode(const Function &F, Opcode Op) {
  unsigned N = 0;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (I->opcode() == Op)
        ++N;
  return N;
}

bool rootIsArgument(const Value *Ptr) {
  while (const auto *G = dyn_cast<Instruction>(Ptr)) {
    if (G->opcode() != Opcode::Gep)
      break;
    Ptr = G->operand(0);
  }
  return isa<Argument>(Ptr);
}

/// Fixture with in/out float buffers, an int argument, and an open entry
/// block.
class MemOptTest : public ::testing::Test {
protected:
  MemOptTest() : B(M) {
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

  /// Keeps \p V alive via a store to out[Slot].
  void keep(Value *V, int Slot) {
    B.createStore(V, B.createGep(Out, M.getInt(Slot)));
  }

  Module M;
  Function *F = nullptr;
  Argument *In = nullptr;
  Argument *Out = nullptr;
  Argument *W = nullptr;
  BasicBlock *Entry = nullptr;
  IRBuilder B;
};

//===----------------------------------------------------------------------===//
// Store-to-load forwarding
//===----------------------------------------------------------------------===//

TEST_F(MemOptTest, ForwardsPrivateScalarRoundTrip) {
  Value *A =
      B.createAlloca(ScalarKind::Float, 1, AddressSpace::Private, "a");
  Value *V = B.createIntToFloat(W, "v");
  B.createStore(V, A);
  Value *L = B.createLoad(A, "l");
  keep(L, 0);
  finishAndVerify();
  EXPECT_EQ(forwardStores(*F), 1u);
  // The store's value now feeds the keep() store directly.
  for (const auto &I : Entry->instructions())
    if (I->opcode() == Opcode::Store &&
        rootIsArgument(I->operand(1))) {
      EXPECT_EQ(I->operand(0), V);
    }
  eliminateDeadCode(*F);
  EXPECT_EQ(countOpcode(*F, Opcode::Load), 0u);
}

TEST_F(MemOptTest, AliasingElementStoreBlocksForwarding) {
  // a[i] = 1; a[j] = 2; load a[i] -- i and j may be equal at runtime.
  Value *A =
      B.createAlloca(ScalarKind::Float, 8, AddressSpace::Private, "a");
  Value *I1 = B.createCall(Builtin::GetGlobalId, {M.getInt(0)}, "i");
  Value *J = B.createCall(Builtin::GetGlobalId, {M.getInt(1)}, "j");
  Value *Pi = B.createGep(A, I1, "pi");
  Value *Pj = B.createGep(A, J, "pj");
  B.createStore(M.getFloat(1.0f), Pi);
  B.createStore(M.getFloat(2.0f), Pj);
  Value *L = B.createLoad(Pi, "l");
  keep(L, 0);
  finishAndVerify();
  EXPECT_EQ(forwardStores(*F), 0u);
}

TEST_F(MemOptTest, NoForwardingThroughArgumentBuffers) {
  // out[0] = v; x = out[0] -- the host may have bound 'in' and 'out' to
  // one buffer, and argument contents are never forwarded.
  Value *V = B.createIntToFloat(W, "v");
  Value *P = B.createGep(Out, M.getInt(0), "p");
  B.createStore(V, P);
  Value *L = B.createLoad(P, "l");
  keep(L, 1);
  finishAndVerify();
  EXPECT_EQ(forwardStores(*F), 0u);
}

TEST_F(MemOptTest, ArgumentStoreKeepsPrivateContents) {
  Value *A =
      B.createAlloca(ScalarKind::Float, 1, AddressSpace::Private, "a");
  B.createStore(M.getFloat(3.0f), A);
  keep(M.getFloat(9.0f), 0); // Store through 'out'.
  Value *L = B.createLoad(A, "l");
  keep(L, 1);
  finishAndVerify();
  EXPECT_EQ(forwardStores(*F), 1u);
}

TEST_F(MemOptTest, BarrierKillsLocalForwardingKeepsPrivate) {
  Value *Priv =
      B.createAlloca(ScalarKind::Float, 1, AddressSpace::Private, "p");
  Value *Loc =
      B.createAlloca(ScalarKind::Float, 4, AddressSpace::Local, "t");
  Value *PLoc = B.createGep(Loc, M.getInt(0), "pl");
  B.createStore(M.getFloat(1.0f), Priv);
  B.createStore(M.getFloat(2.0f), PLoc);
  B.createCall(Builtin::Barrier, {}, "");
  Value *L1 = B.createLoad(Priv, "l1"); // Forwarded.
  Value *L2 = B.createLoad(PLoc, "l2"); // Another item may have written.
  keep(B.createAdd(L1, L2), 0);
  finishAndVerify();
  EXPECT_EQ(forwardStores(*F), 1u);
}

TEST_F(MemOptTest, ForwardingIsBlockLocal) {
  Value *A =
      B.createAlloca(ScalarKind::Float, 1, AddressSpace::Private, "a");
  B.createStore(M.getFloat(1.0f), A);
  BasicBlock *Next = F->createBlock("next");
  B.createBr(Next);
  B.setInsertPoint(Next);
  Value *L = B.createLoad(A, "l");
  keep(L, 0);
  finishAndVerify();
  // Cross-block forwarding needs dataflow; the pass must stay put.
  EXPECT_EQ(forwardStores(*F), 0u);
}

//===----------------------------------------------------------------------===//
// Dead-store elimination
//===----------------------------------------------------------------------===//

TEST_F(MemOptTest, RemovesOverwrittenStore) {
  Value *A =
      B.createAlloca(ScalarKind::Float, 1, AddressSpace::Private, "a");
  B.createStore(M.getFloat(1.0f), A);
  B.createStore(M.getFloat(2.0f), A); // Overwrites before any read.
  Value *L = B.createLoad(A, "l");
  keep(L, 0);
  finishAndVerify();
  EXPECT_EQ(eliminateDeadStores(*F), 1u);
  EXPECT_EQ(countOpcode(*F, Opcode::Store), 2u); // Second + keep().
  Error E = verifyFunction(*F);
  EXPECT_FALSE(E) << E.message();
}

TEST_F(MemOptTest, InterveningLoadKeepsStore) {
  Value *A =
      B.createAlloca(ScalarKind::Float, 1, AddressSpace::Private, "a");
  B.createStore(M.getFloat(1.0f), A);
  Value *L = B.createLoad(A, "l");
  keep(L, 0);
  B.createStore(M.getFloat(2.0f), A);
  Value *L2 = B.createLoad(A, "l2");
  keep(L2, 1);
  finishAndVerify();
  EXPECT_EQ(eliminateDeadStores(*F), 0u);
}

TEST_F(MemOptTest, SiblingElementStoresBothDeadAtExit) {
  Value *A =
      B.createAlloca(ScalarKind::Float, 4, AddressSpace::Private, "a");
  B.createStore(M.getFloat(1.0f), B.createGep(A, M.getInt(0)));
  B.createStore(M.getFloat(2.0f), B.createGep(A, M.getInt(1)));
  finishAndVerify();
  // Neither store overwrites the other (distinct constant elements), but
  // no load ever reads either one and private memory dies with the work
  // item: the memory-SSA walk reaches kernel exit and removes both.
  EXPECT_EQ(eliminateDeadStores(*F), 2u);
}

TEST_F(MemOptTest, SiblingElementStoresLiveWhenRead) {
  Value *A =
      B.createAlloca(ScalarKind::Float, 4, AddressSpace::Private, "a");
  Value *G0 = B.createGep(A, M.getInt(0));
  Value *G1 = B.createGep(A, M.getInt(1));
  B.createStore(M.getFloat(1.0f), G0);
  B.createStore(M.getFloat(2.0f), G1);
  keep(B.createLoad(G0, "l0"), 0);
  keep(B.createLoad(G1, "l1"), 1);
  finishAndVerify();
  // With readers of both elements, constant-index disambiguation must
  // not let either store kill its sibling.
  EXPECT_EQ(eliminateDeadStores(*F), 0u);
}

TEST_F(MemOptTest, VariableIndexStoreNeverRemoved) {
  Value *A =
      B.createAlloca(ScalarKind::Float, 4, AddressSpace::Private, "a");
  Value *Idx = B.createCall(Builtin::GetGlobalId, {M.getInt(0)}, "x");
  B.createStore(M.getFloat(1.0f), B.createGep(A, Idx));
  finishAndVerify();
  // The runtime index may be out of bounds; removing the store would
  // change fault behavior, so only provably in-bounds constant-index
  // private stores are DSE candidates.
  EXPECT_EQ(eliminateDeadStores(*F), 0u);
}

TEST_F(MemOptTest, ArgumentAndLocalStoresNeverRemoved) {
  Value *Loc =
      B.createAlloca(ScalarKind::Float, 4, AddressSpace::Local, "t");
  Value *PLoc = B.createGep(Loc, M.getInt(0), "pl");
  B.createStore(M.getFloat(1.0f), PLoc);
  B.createStore(M.getFloat(2.0f), PLoc); // Local: others may read.
  keep(M.getFloat(1.0f), 0);
  keep(M.getFloat(2.0f), 0); // Same out[0] twice: host-visible.
  finishAndVerify();
  EXPECT_EQ(eliminateDeadStores(*F), 0u);
}

//===----------------------------------------------------------------------===//
// End-to-end effect
//===----------------------------------------------------------------------===//

TEST(MemOptEffectTest, ReducesPrivateTrafficWithoutChangingResults) {
  auto TheApp = apps::makeApp("gaussian");
  apps::Workload Wl = apps::makeImageWorkload(
      img::generateImage(img::ImageClass::Natural, 32, 32, 33));
  std::vector<float> Ref = TheApp->reference(Wl);

  // A kernel compiled under a pipeline spec launches itself, not an
  // optimized launch copy, so the spec is what the counters measure.
  auto PrivatePerItem = [&](const char *Spec) {
    rt::Session Ctx;
    pcl::CompileOptions Opts;
    Opts.PipelineSpec = Spec;
    rt::Kernel K = cantFail(
        Ctx.compile(TheApp->source(), TheApp->kernelName(), Opts));
    apps::RunOutcome R =
        cantFail(TheApp->run(Ctx, Ctx.accurate(K, {16, 16}), Wl));
    for (size_t I = 0; I < Ref.size(); ++I) {
      EXPECT_NEAR(R.Output[I], Ref[I], 1e-4);
      if (std::abs(R.Output[I] - Ref[I]) > 1e-4)
        break;
    }
    return static_cast<double>(R.Report.Totals.PrivateAccesses) /
           R.Report.Totals.WorkItems;
  };
  double Without = PrivatePerItem("dce");
  double With = PrivatePerItem("memopt-forward,dce");
  EXPECT_LT(With, Without) << Without << " -> " << With;
}

} // namespace
