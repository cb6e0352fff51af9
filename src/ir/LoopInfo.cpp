//===- ir/LoopInfo.cpp -----------------------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "ir/LoopInfo.h"

#include "ir/Dominators.h"
#include "ir/InstructionUtils.h"

#include <algorithm>
#include <unordered_map>

using namespace kperf;
using namespace kperf::ir;

namespace {

/// True when \p B ends in a branch whose targets all stay inside \p L.
bool staysInside(const Loop &L, const BasicBlock *B) {
  const Instruction *T = B->terminator();
  if (!T || T->opcode() == Opcode::Ret)
    return false;
  for (BasicBlock *Succ : successors(B))
    if (!L.contains(Succ))
      return false;
  return true;
}

} // namespace

LoopInfo LoopInfo::compute(const Function &F, const DominatorTree &DT) {
  auto Preds = predecessors(F);
  LoopInfo LI;
  std::unordered_map<const BasicBlock *, size_t> ByHeader;
  for (const auto &BB : F.blocks()) {
    if (!DT.isReachable(BB.get()))
      continue;
    for (BasicBlock *Succ : successors(BB.get())) {
      if (!DT.dominates(Succ, BB.get()))
        continue; // Not a back edge.
      auto [It, New] = ByHeader.emplace(Succ, LI.Loops.size());
      if (New)
        LI.Loops.emplace_back().Header = Succ;
      Loop &L = LI.Loops[It->second];
      L.Latches.push_back(BB.get());
      // Reverse flood from the latch that stops at the header.
      L.Members.insert(Succ);
      std::vector<BasicBlock *> Work;
      if (L.Members.insert(BB.get()).second)
        Work.push_back(BB.get());
      while (!Work.empty()) {
        BasicBlock *B = Work.back();
        Work.pop_back();
        for (BasicBlock *P : Preds[B])
          if (L.Members.insert(P).second)
            Work.push_back(P);
      }
    }
  }

  for (Loop &L : LI.Loops) {
    for (const auto &BB : F.blocks())
      if (L.contains(BB.get()))
        L.Blocks.push_back(BB.get());

    BasicBlock *Preheader = nullptr;
    bool Unique = true;
    for (BasicBlock *P : Preds[L.Header]) {
      if (L.contains(P))
        continue;
      Unique &= Preheader == nullptr;
      Preheader = P;
    }
    const Instruction *PT = Preheader ? Preheader->terminator() : nullptr;
    if (Unique && PT && PT->opcode() == Opcode::Br)
      L.Preheader = Preheader;

    const Instruction *HT = L.Header->terminator();
    if (!HT || HT->opcode() != Opcode::CondBr)
      continue;
    bool TrueIn = L.contains(HT->branchTarget(0));
    if (TrueIn == L.contains(HT->branchTarget(1)))
      continue;
    bool OnlyExit = true;
    for (const BasicBlock *B : L.Blocks)
      OnlyExit &= B == L.Header || staysInside(L, B);
    if (!OnlyExit)
      continue;
    L.BodyEntry = HT->branchTarget(TrueIn ? 0 : 1);
    L.Exit = HT->branchTarget(TrueIn ? 1 : 0);
  }

  // Innermost first: a nested loop has strictly fewer blocks than every
  // loop enclosing it.
  std::sort(LI.Loops.begin(), LI.Loops.end(),
            [&](const Loop &A, const Loop &B) {
              if (A.Blocks.size() != B.Blocks.size())
                return A.Blocks.size() < B.Blocks.size();
              return F.blockIndex(A.Header) < F.blockIndex(B.Header);
            });
  return LI;
}

std::optional<Induction> ir::findInduction(const Loop &L) {
  BasicBlock *Latch = L.latch();
  if (!L.Preheader || !Latch || !L.Exit)
    return std::nullopt;
  auto *Cond = dyn_cast<Instruction>(L.Header->terminator()->operand(0));
  if (!Cond || !isCmpOpcode(Cond->opcode()) || Cond->parent() != L.Header)
    return std::nullopt;
  for (unsigned OpI = 0; OpI < 2; ++OpI) {
    auto *Phi = dyn_cast<Instruction>(Cond->operand(OpI));
    if (!Phi || Phi->opcode() != Opcode::Phi || Phi->parent() != L.Header ||
        Phi->numIncoming() != 2 || !Phi->type().isInt())
      continue;
    Value *Init = Phi->incomingValueFor(L.Preheader);
    Value *NextV = Phi->incomingValueFor(Latch);
    auto *Next = NextV ? dyn_cast<Instruction>(NextV) : nullptr;
    if (!Init || !Next || !L.contains(Next->parent()))
      continue;
    std::optional<int64_t> Step;
    if (Next->opcode() == Opcode::Add) {
      if (Next->operand(0) == Phi)
        Step = asConstInt(Next->operand(1));
      else if (Next->operand(1) == Phi)
        Step = asConstInt(Next->operand(0));
    } else if (Next->opcode() == Opcode::Sub && Next->operand(0) == Phi) {
      if (auto C = asConstInt(Next->operand(1)))
        Step = -*C;
    }
    if (!Step)
      continue;
    return Induction{Phi, Next, Cond, Init, Cond->operand(1 - OpI), *Step,
                     OpI == 0};
  }
  return std::nullopt;
}

std::optional<unsigned> ir::simulateTrips(int64_t Init, int64_t Step,
                                          Opcode CmpOp, bool IvOnLhs,
                                          int64_t Bound, bool TrueIsBody,
                                          unsigned MaxTrips) {
  int64_t V = Init;
  unsigned Trips = 0;
  while (true) {
    bool Cond = IvOnLhs ? evalIntCmp(CmpOp, V, Bound)
                        : evalIntCmp(CmpOp, Bound, V);
    if (Cond != TrueIsBody)
      return Trips;
    if (++Trips > MaxTrips)
      return std::nullopt;
    V += Step;
    if (V < INT32_MIN || V > INT32_MAX)
      return std::nullopt;
  }
}

std::optional<int64_t> ir::asConstInt(const Value *V) {
  if (const auto *C = dyn_cast<ConstantInt>(V))
    return C->value();
  return std::nullopt;
}
