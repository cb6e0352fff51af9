//===- ir/LoopUnroll.cpp ----------------------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "ir/LoopUnroll.h"

#include "ir/Dominators.h"
#include "ir/InstructionUtils.h"
#include "ir/LoopInfo.h"
#include "support/StringUtils.h"

#include <cstdint>
#include <optional>
#include <unordered_map>

using namespace kperf;
using namespace kperf::ir;

namespace {

/// Returns the trip count of \p L when it qualifies for full unrolling
/// within \p Budget; nullopt otherwise.
std::optional<unsigned> unrollTrips(const Function &F, const Loop &L,
                                    unsigned Budget) {
  // A preheader, one latch, and the header's branch as the only exit.
  if (!L.Preheader || !L.latch() || !L.Exit)
    return std::nullopt;

  // No allocas: an alloca names one storage slot shared by all
  // iterations; duplicating it would split that storage.
  for (const BasicBlock *B : L.Blocks)
    for (const auto &I : B->instructions())
      if (I->opcode() == Opcode::Alloca)
        return std::nullopt;

  // Layout: the unrolled copies are inserted at the header's position,
  // so the verifier's def-before-use block ordering survives iff the
  // header leads the body in function order, the preheader and every
  // outside definition the body reads sit before it, and the exit
  // (which will read the final header copy) sits behind it. The body
  // need not be contiguous -- the frontend puts for.end between a
  // loop's header and the blocks of a nested if or inner loop.
  size_t Start = F.blockIndex(L.Header);
  if (F.blockIndex(L.Preheader) >= Start ||
      F.blockIndex(L.Exit) <= Start || L.Blocks.front() != L.Header)
    return std::nullopt;
  for (const BasicBlock *B : L.Blocks)
    for (const auto &I : B->instructions()) {
      if (I->opcode() == Opcode::Phi)
        continue; // Edge values; cloning resolves them per copy.
      for (const Value *Op : I->operands())
        if (const auto *OpI = dyn_cast<Instruction>(Op))
          if (!L.contains(OpI->parent()) &&
              F.blockIndex(OpI->parent()) >= Start)
            return std::nullopt;
    }

  // Values defined below the header must stay inside the loop; values
  // escaping through the header (phis and its straight-line code) are
  // rewired to the final header copy.
  for (const auto &U : F.blocks()) {
    if (L.contains(U.get()))
      continue;
    for (const auto &I : U->instructions())
      for (const Value *Op : I->operands())
        if (const auto *OpI = dyn_cast<Instruction>(Op))
          if (L.contains(OpI->parent()) && OpI->parent() != L.Header)
            return std::nullopt;
  }

  // A constant-start induction variable tested against a constant bound.
  std::optional<Induction> IV = findInduction(L);
  if (!IV)
    return std::nullopt;
  auto Init = asConstInt(IV->Init);
  auto Bound = asConstInt(IV->Bound);
  if (!Init || !Bound)
    return std::nullopt;
  std::optional<unsigned> Trips =
      simulateTrips(*Init, IV->Step, IV->Cond->opcode(), IV->IvOnLhs,
                    *Bound, L.bodyOnTrueEdge(), Budget);
  if (!Trips)
    return std::nullopt;

  size_t LoopSize = 0;
  for (const BasicBlock *B : L.Blocks)
    LoopSize += B->size();
  if (static_cast<size_t>(*Trips) * LoopSize > Budget)
    return std::nullopt;
  return Trips;
}

/// Clones the loop body Trips times (plus a final header copy computing
/// the loop-exit values) in place of the original blocks, collapsing the
/// header phis to the per-iteration reaching values, then deletes the
/// original loop.
void unrollLoop(Function &F, Module &M, const Loop &L, unsigned Trips) {
  BasicBlock *Latch = L.latch();
  using ValueMap = std::unordered_map<const Value *, Value *>;
  auto mapped = [](const ValueMap &Map, Value *V) -> Value * {
    auto It = Map.find(V);
    return It == Map.end() ? V : It->second;
  };
  // Folds the collapsed induction arithmetic at clone time (with the
  // shared InstructionUtils semantics) so iteration constants feed the
  // next copy as constants; GVN/simplify finish the job on the rest.
  auto foldOrClone = [&](const Instruction *I,
                         const std::vector<Value *> &Ops) -> Value * {
    if (Ops.size() != 2)
      return nullptr;
    auto LC = asConstInt(Ops[0]);
    auto RC = asConstInt(Ops[1]);
    if (!LC || !RC || !Ops[0]->type().isInt() || !Ops[1]->type().isInt())
      return nullptr;
    if (auto Folded = foldIntBinary(I->opcode(),
                                    static_cast<int32_t>(*LC),
                                    static_cast<int32_t>(*RC)))
      return M.getInt(*Folded);
    if (isCmpOpcode(I->opcode()))
      return M.getBool(evalIntCmp(I->opcode(), *LC, *RC));
    return nullptr;
  };

  // Phase 1: create all blocks up front (latch clones must be able to
  // branch to the next iteration's header), inserted at the original
  // header's position so block order stays def-before-use.
  size_t InsertAt = F.blockIndex(L.Header);
  std::vector<std::unordered_map<const BasicBlock *, BasicBlock *>>
      BlockMaps(Trips);
  for (unsigned It = 0; It < Trips; ++It)
    for (BasicBlock *B : L.Blocks)
      BlockMaps[It][B] = F.createBlockAt(
          InsertAt++, B->name() + format(".it%u", It));
  BasicBlock *FinalHeader =
      F.createBlockAt(InsertAt++, L.Header->name() + ".done");
  auto headerOf = [&](unsigned It) {
    return It < Trips ? BlockMaps[It][L.Header] : FinalHeader;
  };

  // Phase 2: per iteration, seed the map with the header phis' reaching
  // values, then clone every body block (phis in interior blocks are
  // created empty and filled once the whole copy exists, mirroring
  // cloneFunction's back-edge handling for inner loops left rolled).
  std::vector<ValueMap> Maps(Trips + 1);
  size_t NumPhis = L.Header->firstNonPhiIndex();
  for (unsigned It = 0; It <= Trips; ++It) {
    ValueMap &Map = Maps[It];
    for (size_t PI = 0; PI < NumPhis; ++PI) {
      Instruction *Phi = L.Header->at(PI);
      Map[Phi] = It == 0
                     ? Phi->incomingValueFor(L.Preheader)
                     : mapped(Maps[It - 1],
                              Phi->incomingValueFor(Latch));
    }
    bool IsFinal = It == Trips;
    std::vector<std::pair<const Instruction *, Instruction *>> Phis;
    for (BasicBlock *B : IsFinal ? std::vector<BasicBlock *>{L.Header}
                                 : L.Blocks) {
      BasicBlock *NewB = IsFinal ? FinalHeader : BlockMaps[It][B];
      bool IsHeader = B == L.Header;
      for (const auto &IPtr : B->instructions()) {
        const Instruction *I = IPtr.get();
        if (I->opcode() == Opcode::Phi) {
          if (IsHeader)
            continue; // Collapsed through Map.
          auto NewPhi = std::make_unique<Instruction>(
              Opcode::Phi, I->type(), std::vector<Value *>{}, I->name());
          Phis.emplace_back(I, NewPhi.get());
          Map[I] = NewB->append(std::move(NewPhi));
          continue;
        }
        if (I->isTerminator()) {
          if (IsHeader) {
            // The in-loop edge is taken for iterations 0..Trips-1 and
            // the exit edge after the last; emit the decided branch.
            auto Br = std::make_unique<Instruction>(
                Opcode::Br, Type::voidTy(), std::vector<Value *>{}, "");
            Br->setBranchTarget(
                0, IsFinal ? L.Exit
                           : (L.BodyEntry == L.Header
                                  ? headerOf(It + 1)
                                  : BlockMaps[It][L.BodyEntry]));
            NewB->append(std::move(Br));
          } else {
            std::vector<Value *> Ops;
            for (Value *Op : I->operands())
              Ops.push_back(mapped(Map, Op));
            auto NewT = std::make_unique<Instruction>(
                I->opcode(), I->type(), std::move(Ops), I->name());
            for (unsigned TI = 0;
                 TI < (I->opcode() == Opcode::CondBr ? 2u : 1u); ++TI) {
              BasicBlock *Target = I->branchTarget(TI);
              NewT->setBranchTarget(TI, Target == L.Header
                                            ? headerOf(It + 1)
                                            : BlockMaps[It][Target]);
            }
            NewB->append(std::move(NewT));
          }
          continue;
        }
        std::vector<Value *> Ops;
        for (Value *Op : I->operands())
          Ops.push_back(mapped(Map, Op));
        if (Value *Folded = foldOrClone(I, Ops)) {
          Map[I] = Folded;
          continue;
        }
        auto NewI = std::make_unique<Instruction>(I->opcode(), I->type(),
                                                  std::move(Ops),
                                                  I->name());
        if (I->opcode() == Opcode::Call)
          NewI->setCallee(I->callee());
        Map[I] = NewB->append(std::move(NewI));
      }
    }
    // Phase 3 (per copy): fill interior phis now that every block and
    // value of this iteration exists.
    for (auto &[OldPhi, NewPhi] : Phis)
      for (unsigned PI = 0; PI < OldPhi->numIncoming(); ++PI)
        NewPhi->addIncoming(mapped(Map, OldPhi->incomingValue(PI)),
                            BlockMaps[It][OldPhi->incomingBlock(PI)]);
  }
  ValueMap &FinalMap = Maps[Trips];

  // Rewire the loop's surroundings: the preheader enters the first
  // iteration, exit phis take the final header copy's edge, and every
  // outside use of a header-defined value reads the final copy.
  L.Preheader->terminator()->setBranchTarget(0, headerOf(0));
  for (size_t PI = 0; PI < L.Exit->firstNonPhiIndex(); ++PI) {
    Instruction *Phi = L.Exit->at(PI);
    if (Value *V = Phi->incomingValueFor(L.Header)) {
      Phi->removeIncomingFor(L.Header);
      Phi->addIncoming(mapped(FinalMap, V), FinalHeader);
    }
  }
  for (const auto &BB : F.blocks()) {
    if (L.contains(BB.get()))
      continue;
    for (const auto &I : BB->instructions())
      for (unsigned OpI = 0; OpI < I->numOperands(); ++OpI) {
        Value *R = mapped(FinalMap, I->operand(OpI));
        if (R != I->operand(OpI))
          I->setOperand(OpI, R);
      }
  }
  for (BasicBlock *B : L.Blocks)
    F.removeBlock(B);
}

/// Merges straight-line block chains: a block ending in an unconditional
/// branch absorbs its successor when it is the successor's only
/// predecessor. Fully unrolled loops become one block the block-local
/// passes see whole. \returns blocks merged.
unsigned mergeStraightChains(Function &F) {
  unsigned Merged = 0;
  auto Preds = predecessors(F);
  // One forward sweep; after absorbing B, A keeps merging into whatever
  // B used to branch to, so a K-block chain collapses in K steps with
  // the predecessor map maintained incrementally. Only forward merges
  // (B after A in layout) are taken: pulling an earlier block's code
  // behind A could move definitions below uses in blocks between them,
  // and removing a block below AI would desynchronize the index walk.
  // The frontend never lays a single-pred unconditional target backward,
  // so nothing real is skipped.
  for (size_t AI = 0; AI < F.numBlocks(); ++AI) {
    BasicBlock *A = F.block(AI);
    while (true) {
      Instruction *T = A->terminator();
      if (!T || T->opcode() != Opcode::Br)
        break;
      BasicBlock *B = T->branchTarget(0);
      if (B == A || B == F.entry() || F.blockIndex(B) < AI)
        break;
      auto PIt = Preds.find(B);
      if (PIt == Preds.end() || PIt->second.size() != 1)
        break;

      // Single-predecessor phis are copies of their one incoming value;
      // collect them all and rewrite their uses in one function sweep.
      std::unordered_map<const Value *, Value *> PhiVals;
      size_t NumPhis = B->firstNonPhiIndex();
      for (size_t PI = 0; PI < NumPhis; ++PI) {
        Value *V = B->at(PI)->incomingValueFor(A);
        assert(V && "single-pred phi missing its incoming value");
        PhiVals[B->at(PI)] = V;
      }
      // Resolve phi-feeds-phi chains so no use lands on a deleted phi.
      for (auto &[Phi, V] : PhiVals)
        for (size_t Hops = 0; Hops < NumPhis; ++Hops) {
          auto It = PhiVals.find(V);
          if (It == PhiVals.end())
            break;
          V = It->second;
        }
      if (!PhiVals.empty())
        for (const auto &BB : F.blocks())
          for (const auto &I : BB->instructions())
            for (unsigned OpI = 0; OpI < I->numOperands(); ++OpI) {
              auto It = PhiVals.find(I->operand(OpI));
              if (It != PhiVals.end())
                I->setOperand(OpI, It->second);
            }
      auto &BInstrs = B->mutableInstructions();
      BInstrs.erase(BInstrs.begin(),
                    BInstrs.begin() + static_cast<ptrdiff_t>(NumPhis));

      // Splice B's remaining instructions behind A (dropping A's
      // branch), retarget B's successors' phis and predecessor lists.
      A->mutableInstructions().pop_back();
      for (auto &I : BInstrs) {
        I->setParent(A);
        A->mutableInstructions().push_back(std::move(I));
      }
      BInstrs.clear();
      Preds.erase(B);
      for (BasicBlock *Succ : successors(A)) {
        for (BasicBlock *&P : Preds[Succ])
          if (P == B)
            P = A;
        for (size_t PI = 0; PI < Succ->firstNonPhiIndex(); ++PI) {
          Instruction *Phi = Succ->at(PI);
          if (Value *V = Phi->incomingValueFor(B)) {
            Phi->removeIncomingFor(B);
            Phi->addIncoming(V, A);
          }
        }
      }
      F.removeBlock(B);
      ++Merged;
    }
  }
  return Merged;
}

} // namespace

unsigned ir::unrollConstantLoops(Function &F, Module &M, unsigned Budget) {
  unsigned Changes = 0;
  // Each unroll rewrites the CFG, so the loops are re-found from a fresh
  // dominator tree; the first qualifying loop innermost-first goes next.
  bool Unrolled = true;
  while (Unrolled) {
    Unrolled = false;
    DominatorTree DT = DominatorTree::compute(F);
    LoopInfo LI = LoopInfo::compute(F, DT);
    for (const Loop &L : LI.loops()) {
      if (std::optional<unsigned> Trips = unrollTrips(F, L, Budget)) {
        unrollLoop(F, M, L, *Trips);
        ++Changes;
        Unrolled = true;
        break;
      }
    }
  }
  if (Changes)
    Changes += mergeStraightChains(F);
  return Changes;
}
