//===- ir/DCE.cpp -----------------------------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "ir/DCE.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace kperf;
using namespace kperf::ir;

namespace {

bool hasSideEffects(const Instruction &I) {
  switch (I.opcode()) {
  case Opcode::Store:
  case Opcode::Br:
  case Opcode::CondBr:
  case Opcode::Ret:
    return true;
  case Opcode::Call:
    return I.callee() == Builtin::Barrier;
  default:
    return false;
  }
}

} // namespace

unsigned ir::eliminateDeadCode(Function &F) {
  // Count uses once; a phi's self-edge is not a real use.
  std::unordered_map<const Value *, unsigned> Uses;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      for (const Value *Op : I->operands())
        if (Op != I.get())
          ++Uses[Op];
  std::vector<const Instruction *> Work;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (!hasSideEffects(*I) && !Uses.count(I.get()))
        Work.push_back(I.get());
  if (Work.empty())
    return 0;

  // Each dead instruction gives up its operands' uses; an operand whose
  // last use goes is dead in turn. Counts only fall, so each instruction
  // joins the worklist at most once.
  std::unordered_set<const Instruction *> Dead;
  while (!Work.empty()) {
    const Instruction *I = Work.back();
    Work.pop_back();
    Dead.insert(I);
    for (const Value *Op : I->operands()) {
      const auto *OpI = dyn_cast<Instruction>(Op);
      if (OpI && OpI != I && --Uses[OpI] == 0 && !hasSideEffects(*OpI))
        Work.push_back(OpI);
    }
  }

  for (const auto &BB : F.blocks()) {
    auto &Instrs = BB->mutableInstructions();
    Instrs.erase(std::remove_if(Instrs.begin(), Instrs.end(),
                                [&](const auto &I) {
                                  return Dead.count(I.get()) != 0;
                                }),
                 Instrs.end());
  }
  return static_cast<unsigned>(Dead.size());
}
