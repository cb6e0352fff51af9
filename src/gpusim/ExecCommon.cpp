//===- gpusim/ExecCommon.cpp -----------------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "gpusim/ExecCommon.h"

#include <unordered_map>

using namespace kperf;
using namespace kperf::sim;

Error sim::validateLaunch(const ir::Function &F, Range2 Global, Range2 Local,
                          const std::vector<KernelArg> &Args,
                          const std::vector<BufferData *> &Buffers) {
  if (Local.X == 0 || Local.Y == 0 || Global.X == 0 || Global.Y == 0)
    return makeError("launch: zero-sized range");
  if (Global.X % Local.X != 0 || Global.Y % Local.Y != 0)
    return makeError(
        "launch: global size (%u,%u) not divisible by local size (%u,%u)",
        Global.X, Global.Y, Local.X, Local.Y);
  if (Local.count() > 1024)
    return makeError("launch: work group of %u items exceeds limit 1024",
                     Local.count());
  if (Args.size() != F.numArguments())
    return makeError("launch: kernel '%s' expects %u arguments, got %zu",
                     F.name().c_str(), F.numArguments(), Args.size());
  for (unsigned I = 0; I < F.numArguments(); ++I) {
    const ir::Argument *A = F.argument(I);
    const KernelArg &Arg = Args[I];
    if (A->type().isPointer()) {
      if (A->type().addressSpace() != ir::AddressSpace::Global)
        return makeError("launch: argument '%s': only global pointer "
                         "arguments are supported",
                         A->name().c_str());
      if (Arg.K != KernelArg::Kind::Buffer)
        return makeError("launch: argument '%s' expects a buffer",
                         A->name().c_str());
      if (Arg.BufferIndex >= Buffers.size() || !Buffers[Arg.BufferIndex])
        return makeError("launch: argument '%s': buffer index %u out of "
                         "range (%zu buffers)",
                         A->name().c_str(), Arg.BufferIndex,
                         Buffers.size());
    } else if (A->type().isInt()) {
      if (Arg.K != KernelArg::Kind::Int)
        return makeError("launch: argument '%s' expects an int",
                         A->name().c_str());
    } else if (A->type().isFloat()) {
      if (Arg.K != KernelArg::Kind::Float)
        return makeError("launch: argument '%s' expects a float",
                         A->name().c_str());
    } else {
      return makeError("launch: argument '%s' has unsupported type",
                       A->name().c_str());
    }
  }
  return Error::success();
}

/// The pair \p A and the instruction \p B right after it would form if
/// \p A had no other use.
static FusedPair pairOf(const ir::Instruction &A, const ir::Instruction &B) {
  switch (A.opcode()) {
  case ir::Opcode::Gep:
    if (B.opcode() == ir::Opcode::Load && B.operand(0) == &A)
      return FusedPair::GepLoad;
    if (B.opcode() == ir::Opcode::Store && B.operand(1) == &A)
      return FusedPair::GepStore;
    return FusedPair::None;
  case ir::Opcode::CmpEq:
  case ir::Opcode::CmpNe:
  case ir::Opcode::CmpLt:
  case ir::Opcode::CmpLe:
  case ir::Opcode::CmpGt:
  case ir::Opcode::CmpGe:
    return B.opcode() == ir::Opcode::CondBr && B.operand(0) == &A
               ? FusedPair::CmpBr
               : FusedPair::None;
  case ir::Opcode::Mul:
    return B.opcode() == ir::Opcode::Add &&
                   (B.operand(0) == &A || B.operand(1) == &A)
               ? FusedPair::MulAdd
               : FusedPair::None;
  default:
    return FusedPair::None;
  }
}

std::vector<FusedPair> sim::planFusedPairs(const ir::Function &F) {
  std::vector<FusedPair> Plan;
  std::unordered_map<const ir::Value *, unsigned> Uses; // Of candidates.
  for (const auto &BB : F.blocks()) {
    const auto &Insts = BB->instructions();
    for (size_t K = 0; K < Insts.size(); ++K) {
      Plan.push_back(K + 1 < Insts.size() ? pairOf(*Insts[K], *Insts[K + 1])
                                          : FusedPair::None);
      if (Plan.back() != FusedPair::None)
        Uses.emplace(Insts[K].get(), 0);
    }
  }
  if (Uses.empty())
    return Plan;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      for (const ir::Value *Op : I->operands()) {
        auto It = Uses.find(Op);
        if (It != Uses.end())
          ++It->second;
      }
  size_t K = 0;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions()) {
      if (Plan[K] != FusedPair::None && Uses.at(I.get()) != 1)
        Plan[K] = FusedPair::None;
      ++K;
    }
  return Plan;
}
