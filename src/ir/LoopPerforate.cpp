//===- ir/LoopPerforate.cpp ------------------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "ir/LoopPerforate.h"

#include "ir/LoopInfo.h"

#include <cstdint>
#include <optional>
#include <unordered_set>

using namespace kperf;
using namespace kperf::ir;

namespace {

/// A loop that passed the legality proofs, with its induction variable.
struct PerforableLoop {
  const Loop *L = nullptr;
  Induction IV;
};

/// The relation under which the loop keeps iterating, normalized to
/// "iv REL bound". Only order relations qualify: a strided step can hop
/// straight over an equality bound.
enum class ContinueRel { Lt, Le, Gt, Ge };

std::optional<ContinueRel> continueRelation(Opcode CmpOp, bool IvOnLhs,
                                            bool TrueIsBody) {
  ContinueRel R;
  switch (CmpOp) {
  case Opcode::CmpLt:
    R = ContinueRel::Lt;
    break;
  case Opcode::CmpLe:
    R = ContinueRel::Le;
    break;
  case Opcode::CmpGt:
    R = ContinueRel::Gt;
    break;
  case Opcode::CmpGe:
    R = ContinueRel::Ge;
    break;
  default:
    return std::nullopt;
  }
  if (!IvOnLhs) { // bound REL iv  ==  iv swap(REL) bound
    switch (R) {
    case ContinueRel::Lt:
      R = ContinueRel::Gt;
      break;
    case ContinueRel::Le:
      R = ContinueRel::Ge;
      break;
    case ContinueRel::Gt:
      R = ContinueRel::Lt;
      break;
    case ContinueRel::Ge:
      R = ContinueRel::Le;
      break;
    }
  }
  if (!TrueIsBody) { // Body on the false edge: continue while !(REL).
    switch (R) {
    case ContinueRel::Lt:
      R = ContinueRel::Ge;
      break;
    case ContinueRel::Le:
      R = ContinueRel::Gt;
      break;
    case ContinueRel::Gt:
      R = ContinueRel::Le;
      break;
    case ContinueRel::Ge:
      R = ContinueRel::Lt;
      break;
    }
  }
  return R;
}

/// True when \p V is a chain of in-body float adds (threaded through
/// inner-loop phis) accumulating onto the header phi \p R -- the
/// `acc += ...` shape mem2reg produces. Optimistic on phi cycles: the
/// loop-carried edge of an inner accumulator phi is assumed rooted and
/// the surrounding adds confirm or refute it.
bool rootsAt(const Value *V, const Instruction *R, const Loop &L,
             std::unordered_set<const Value *> &Visiting) {
  if (V == R)
    return true;
  const auto *I = dyn_cast<Instruction>(V);
  if (!I || !L.contains(I->parent()))
    return false;
  if (!Visiting.insert(I).second)
    return true;
  switch (I->opcode()) {
  case Opcode::Add: {
    bool Lhs = rootsAt(I->operand(0), R, L, Visiting);
    bool Rhs = rootsAt(I->operand(1), R, L, Visiting);
    return Lhs != Rhs; // Exactly one side carries the accumulator.
  }
  case Opcode::Phi: {
    for (unsigned PI = 0; PI < I->numIncoming(); ++PI)
      if (!rootsAt(I->incomingValue(PI), R, L, Visiting))
        return false;
    return true;
  }
  default:
    return false;
  }
}

/// Collects the adds of a confirmed accumulation chain, each paired with
/// the operand index of its contribution (the non-accumulator side).
void collectChainAdds(
    Value *V, const Instruction *R, const Loop &L,
    std::unordered_set<const Value *> &Visited,
    std::vector<std::pair<Instruction *, unsigned>> &Adds) {
  if (V == R)
    return;
  auto *I = dyn_cast<Instruction>(V);
  if (!I || !L.contains(I->parent()) || !Visited.insert(I).second)
    return;
  if (I->opcode() == Opcode::Add) {
    std::unordered_set<const Value *> Probe;
    unsigned Carry = rootsAt(I->operand(0), R, L, Probe) ? 0 : 1;
    Adds.emplace_back(I, 1 - Carry);
    collectChainAdds(I->operand(Carry), R, L, Visited, Adds);
  } else if (I->opcode() == Opcode::Phi) {
    for (unsigned PI = 0; PI < I->numIncoming(); ++PI)
      collectChainAdds(I->incomingValue(PI), R, L, Visited, Adds);
  }
}

/// Proof that skipped iterations write no memory a later read observes:
/// every store must hit a private alloca, and every load in the function
/// whose clobbering access is an in-body store must read the exact
/// element that same iteration wrote (in-body, must-overwritten; memory
/// SSA guarantees a Def clobber dominates its load). Phi clobbers are
/// refused outright once the body stores -- a join may hide loop-carried
/// state. A store to global memory, a kernel output among them, refuses
/// at once: a skipped output pixel stays unwritten forever.
bool memoryLegal(const Function &F, const Loop &L, const MemorySSA &MSSA) {
  bool HasStore = false;
  for (const BasicBlock *B : L.Blocks) {
    for (const auto &I : B->instructions()) {
      if (I->opcode() == Opcode::Call &&
          I->callee() == Builtin::Barrier)
        return false; // Skipping a barrier desynchronizes the group.
      if (I->opcode() != Opcode::Store)
        continue;
      HasStore = true;
      MemoryLoc Loc = memoryLocation(I->operand(1));
      const auto *Root = dyn_cast<Instruction>(Loc.Root);
      if (!Root || Root->opcode() != Opcode::Alloca ||
          Root->allocaSpace() != AddressSpace::Private)
        return false;
    }
  }
  if (!HasStore)
    return true;

  for (const auto &BB : F.blocks()) {
    for (const auto &I : BB->instructions()) {
      if (I->opcode() != Opcode::Load)
        continue;
      const MemorySSA::Access *C = MSSA.clobberingAccess(I.get());
      if (!C || C == MSSA.liveOnEntry())
        continue;
      if (C->Kind == MemorySSA::AccessKind::Phi)
        return false;
      if (!L.contains(C->Inst->parent()))
        continue;
      if (!L.contains(I->parent()))
        return false; // Post-loop read of an in-loop store.
      if (!mustOverwrite(memoryLocation(C->Inst->operand(1)),
                         memoryLocation(I->operand(0))))
        return false; // Possibly a previous iteration's element.
    }
  }
  return true;
}

/// Finds every loop of \p F that qualifies for perforation by \p Stride,
/// innermost first: an inner accumulator's rescale lands before the
/// enclosing loop inspects its own accumulation chain.
std::vector<PerforableLoop> findPerforableLoops(Function &F,
                                                AnalysisManager &AM,
                                                unsigned Stride) {
  const LoopInfo &LI = AM.getLoopInfo(F);
  const MemorySSA &MSSA = AM.getMemorySSA(F);
  const RangeAnalysis &RA = AM.getRangeAnalysis(F);

  std::vector<PerforableLoop> Loops;
  for (const Loop &L : LI.loops()) {
    // findInduction also demands a preheader, one latch and the header
    // as the only exit: a side exit could observe the skipped
    // iterations' partial state. Variable steps could walk arbitrary
    // index sets and are not matched.
    std::optional<Induction> IV = findInduction(L);
    if (!IV || IV->Step == 0)
      continue;
    // Already perforated (fixpoint groups re-run the pass; compounding
    // the stride every round would be a different transform).
    if (IV->Next->name().find(".perf") != std::string::npos)
      continue;

    // The bound must be loop-invariant.
    if (const auto *BI = dyn_cast<Instruction>(IV->Bound))
      if (L.contains(BI->parent()))
        continue;

    // Exit-test guard: the strided step must still drive the relation
    // toward termination, and the induction value -- at most one strided
    // step past the bound's interval -- must stay inside int32, or the
    // wraparound could re-enter the iteration space.
    std::optional<ContinueRel> Rel = continueRelation(
        IV->Cond->opcode(), IV->IvOnLhs, L.bodyOnTrueEdge());
    if (!Rel)
      continue;
    int64_t NewStep = IV->Step * static_cast<int64_t>(Stride);
    if (NewStep < INT32_MIN || NewStep > INT32_MAX)
      continue;
    bool Upward = *Rel == ContinueRel::Lt || *Rel == ContinueRel::Le;
    if (Upward != (IV->Step > 0))
      continue;
    Interval BoundR = RA.rangeAt(IV->Bound, L.Header);
    if (BoundR.isEmpty())
      continue;
    if (Upward ? BoundR.Hi + NewStep > INT32_MAX
               : BoundR.Lo + NewStep < INT32_MIN)
      continue;

    if (!memoryLegal(F, L, MSSA))
      continue;
    Loops.push_back({&L, *IV});
  }
  return Loops;
}

/// Rewrites \p P's loop to advance by Step x Stride and rescales its
/// escaping float add-reductions by origTrips/perforatedTrips.
void perforateLoop(Function &F, Module &M, const PerforableLoop &P,
                   unsigned Stride) {
  const Loop &L = *P.L;
  const Induction &IV = P.IV;
  BasicBlock *Latch = L.latch();
  int64_t NewStep = IV.Step * static_cast<int64_t>(Stride);
  auto Inc = std::make_unique<Instruction>(
      Opcode::Add, IV.Phi->type(),
      std::vector<Value *>{IV.Phi, M.getInt(static_cast<int32_t>(NewStep))},
      IV.Phi->name() + ".perf");
  Instruction *IncI =
      Latch->insert(Latch->indexOf(Latch->terminator()), std::move(Inc));
  for (unsigned PI = 0; PI < IV.Phi->numIncoming(); ++PI)
    if (IV.Phi->incomingBlock(PI) == Latch)
      IV.Phi->setIncomingValue(PI, IncI);

  // Rescale factor: exact trip ratio when the induction range is fully
  // constant, the stride itself otherwise (the bound was still proven
  // finite by the range guard, just not constant).
  double Factor = static_cast<double>(Stride);
  auto InitC = asConstInt(IV.Init);
  auto BoundC = asConstInt(IV.Bound);
  if (InitC && BoundC) {
    auto Orig = simulateTrips(*InitC, IV.Step, IV.Cond->opcode(),
                              IV.IvOnLhs, *BoundC, L.bodyOnTrueEdge(),
                              1u << 22);
    auto Perf = simulateTrips(*InitC, NewStep, IV.Cond->opcode(),
                              IV.IvOnLhs, *BoundC, L.bodyOnTrueEdge(),
                              1u << 22);
    if (Orig && Perf)
      Factor = *Perf == 0 ? 1.0
                          : static_cast<double>(*Orig) /
                                static_cast<double>(*Perf);
  }
  if (Factor == 1.0)
    return;

  // Escaping float add-reductions: scale each iteration's contribution
  // (the non-accumulator side of every add in the chain) so the surviving
  // iterations estimate the full-trip sum. Scaling the leaves -- not the
  // escaping value -- leaves the seed threaded in from outside untouched,
  // and nested perforation composes: an enclosing loop's rescale wraps
  // the same leaves again.
  size_t NumPhis = L.Header->firstNonPhiIndex();
  for (size_t PI = 0; PI < NumPhis; ++PI) {
    Instruction *R = L.Header->at(PI);
    if (R == IV.Phi || !R->type().isFloat() || R->numIncoming() != 2)
      continue;
    Value *Carried = R->incomingValueFor(Latch);
    std::unordered_set<const Value *> Visiting;
    if (!Carried || !rootsAt(Carried, R, L, Visiting))
      continue;
    bool Escapes = false;
    for (const auto &BB : F.blocks()) {
      if (L.contains(BB.get()))
        continue;
      for (const auto &I : BB->instructions())
        for (const Value *Op : I->operands())
          Escapes |= Op == R;
    }
    if (!Escapes)
      continue;
    std::unordered_set<const Value *> Visited;
    std::vector<std::pair<Instruction *, unsigned>> Adds;
    collectChainAdds(Carried, R, L, Visited, Adds);
    for (auto [A, LeafOp] : Adds) {
      auto Scale = std::make_unique<Instruction>(
          Opcode::Mul, A->type(),
          std::vector<Value *>{A->operand(LeafOp),
                               M.getFloat(static_cast<float>(Factor))},
          R->name() + ".perfscale");
      BasicBlock *AB = A->parent();
      Instruction *ScaleI = AB->insert(AB->indexOf(A), std::move(Scale));
      A->setOperand(LeafOp, ScaleI);
    }
  }
}

} // namespace

unsigned ir::perforateLoops(Function &F, Module &M, AnalysisManager &AM,
                            unsigned Stride) {
  if (Stride <= 1)
    return 0; // Structural no-op: the function is untouched.
  std::vector<PerforableLoop> Loops = findPerforableLoops(F, AM, Stride);
  for (const PerforableLoop &P : Loops)
    perforateLoop(F, M, P, Stride);
  return static_cast<unsigned>(Loops.size());
}
