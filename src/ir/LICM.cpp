//===- ir/LICM.cpp ----------------------------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "ir/LICM.h"

#include "ir/AnalysisManager.h"
#include "ir/LoopInfo.h"

#include <algorithm>

using namespace kperf;
using namespace kperf::ir;

namespace {

/// Returns true if executing \p I cannot fault and has no side effects.
/// Loads are handled separately.
bool isSafeToSpeculate(const Instruction &I) {
  switch (I.opcode()) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::CmpGt:
  case Opcode::CmpGe:
  case Opcode::LogicalAnd:
  case Opcode::LogicalOr:
  case Opcode::LogicalNot:
  case Opcode::Neg:
  case Opcode::IntToFloat:
  case Opcode::FloatToInt:
  case Opcode::Select:
  case Opcode::Gep: // Address arithmetic only; the access may not move.
    return true;
  case Opcode::Div:
  case Opcode::Rem: {
    // Integer division by zero faults; float by zero is defined (inf).
    const Value *Rhs = I.operand(1);
    if (I.type().isFloat())
      return true;
    const auto *C = dyn_cast<ConstantInt>(Rhs);
    return C && C->value() != 0;
  }
  case Opcode::Call:
    return I.callee() != Builtin::Barrier;
  default:
    return false;
  }
}

} // namespace

unsigned ir::hoistLoopInvariants(Function &F, AnalysisManager &AM) {
  const LoopInfo &LI = AM.getLoopInfo(F);
  const MemorySSA &MSSA = AM.getMemorySSA(F);
  unsigned Hoisted = 0;
  bool AnyChange = true;
  // Hoisting never changes blocks or branch edges, so one set of loops
  // serves every round.
  while (AnyChange) {
    AnyChange = false;
    for (const Loop &L : LI.loops()) {
      // Hoisting into a block that comes later in the block list than a
      // use would defeat the verifier's ordering rule; structured
      // frontends always place the preheader first, but guard anyway.
      if (!L.Preheader ||
          F.blockIndex(L.Preheader) >= F.blockIndex(L.Blocks.front()))
        continue;

      // Memory defs (stores and barriers) inside this loop: a load
      // hoists only when none of them may clobber its location.
      std::vector<const Instruction *> LoopDefs;
      for (const BasicBlock *BB : L.Blocks)
        for (const auto &I : BB->instructions())
          if (I->opcode() == Opcode::Store ||
              (I->opcode() == Opcode::Call &&
               I->callee() == Builtin::Barrier))
            LoopDefs.push_back(I.get());

      /// A load is movable when it cannot fault (alloca-rooted with a
      /// provably in-bounds constant index -- argument buffers have no
      /// statically known extent, and a hoisted load may execute on a
      /// zero-trip loop) and its location cannot change while the loop
      /// runs: either memory SSA certifies no clobber since function
      /// entry (immutable location or an unbroken non-aliasing def
      /// chain), or no store/barrier in the loop body may clobber it.
      /// Barriers clobber local allocas -- a loop spanning a phase
      /// boundary sees other work items' tile writes -- but never
      /// private ones.
      auto IsMovableLoad = [&](const Instruction *I) {
        MemoryLoc Loc = memoryLocation(I->operand(0));
        const auto *A = dyn_cast<Instruction>(Loc.Root);
        if (!A || A->opcode() != Opcode::Alloca || L.contains(A->parent()))
          return false;
        if (!Loc.ConstIndex || Loc.Index < 0 ||
            Loc.Index >= static_cast<int64_t>(A->allocaCount()))
          return false;
        const MemorySSA::Access *C = MSSA.clobberingAccess(I);
        if (C && C == MSSA.liveOnEntry())
          return true;
        for (const Instruction *D : LoopDefs)
          if (mayClobberLocation(D, Loc))
            return false;
        return true;
      };

      // Values known loop-invariant (hoisted or defined outside).
      auto IsInvariantValue = [&](const Value *V) {
        const auto *I = dyn_cast<Instruction>(V);
        return !I || !L.contains(I->parent()); // Constants, arguments.
      };

      // Loop blocks are visited in layout order, so hoisted instructions
      // land in the preheader in a deterministic sequence.
      bool LoopChanged = true;
      while (LoopChanged) {
        LoopChanged = false;
        for (BasicBlock *BB : L.Blocks) {
          // Snapshot: hoisting mutates the instruction vector.
          std::vector<Instruction *> Instrs;
          Instrs.reserve(BB->size());
          for (const auto &I : BB->instructions())
            Instrs.push_back(I.get());

          for (Instruction *I : Instrs) {
            bool Movable = false;
            if (isSafeToSpeculate(*I)) {
              Movable = true;
            } else if (I->opcode() == Opcode::Load) {
              Movable = IsMovableLoad(I);
            }
            if (!Movable)
              continue;
            bool OperandsInvariant = true;
            for (const Value *Op : I->operands())
              OperandsInvariant &= IsInvariantValue(Op);
            if (!OperandsInvariant)
              continue;

            // Splice I out of its block and append it before the
            // preheader's terminator.
            auto &From = BB->mutableInstructions();
            auto It = std::find_if(
                From.begin(), From.end(),
                [&](const auto &P) { return P.get() == I; });
            assert(It != From.end() && "instruction vanished");
            std::unique_ptr<Instruction> Owned = std::move(*It);
            From.erase(It);
            L.Preheader->insert(L.Preheader->size() - 1,
                                std::move(Owned));
            ++Hoisted;
            LoopChanged = true;
            AnyChange = true;
          }
        }
      }
    }
  }
  return Hoisted;
}
