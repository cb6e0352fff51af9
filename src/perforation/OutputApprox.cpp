//===- perforation/OutputApprox.cpp ----------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "perforation/OutputApprox.h"

#include "ir/Clone.h"
#include "ir/Passes.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "perforation/AccessAnalysis.h"

#include <vector>

using namespace kperf;
using namespace kperf::perf;
namespace irns = kperf::ir;

namespace {

/// Replaces every use of \p From with \p To, except in \p SkipSet.
void replaceAllUses(irns::Function &F, irns::Value *From, irns::Value *To,
                    const std::vector<irns::Instruction *> &Skip) {
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions()) {
      bool Skipped = false;
      for (irns::Instruction *S : Skip)
        if (S == I.get())
          Skipped = true;
      if (!Skipped)
        I->replaceUsesOfWith(From, To);
    }
}

/// Remaps every get_global_id(Dim) call C to clamp(C * Period + Offset,
/// 0, boundArg - 1), so the (shrunk) launch computes block centers.
void remapGlobalId(irns::Module &M, irns::Function &F, int Dim,
                   unsigned Period, unsigned Offset,
                   irns::Argument *BoundArg) {
  std::vector<irns::Instruction *> Calls;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (I->opcode() == irns::Opcode::Call &&
          I->callee() == irns::Builtin::GetGlobalId)
        if (const auto *D =
                irns::dyn_cast<irns::ConstantInt>(I->operand(0)))
          if (D->value() == Dim)
            Calls.push_back(I.get());

  irns::IRBuilder B(M);
  for (irns::Instruction *Call : Calls) {
    irns::BasicBlock *BB = Call->parent();
    size_t Pos = BB->indexOf(Call);
    B.setInsertPoint(BB, Pos + 1);
    irns::Value *Scaled = B.createMul(
        Call, B.getInt(static_cast<int32_t>(Period)));
    irns::Value *Shifted =
        B.createAdd(Scaled, B.getInt(static_cast<int32_t>(Offset)));
    irns::Value *Mapped = B.createClampInt(
        Shifted, B.getInt(0), B.createSub(BoundArg, B.getInt(1)));
    std::vector<irns::Instruction *> Skip{
        irns::cast<irns::Instruction>(Scaled)};
    replaceAllUses(F, Call, Mapped, Skip);
  }
}

} // namespace

Expected<OutputApproxResult> perf::applyOutputApproximation(
    ir::Module &M, ir::Function &F, const OutputApproxPlan &Plan,
    const std::string &NewName) {
  if (Plan.ApproxPerComputed == 0 || Plan.ApproxPerComputed % 2 != 0)
    return makeError("output approximation: ApproxPerComputed must be a "
                     "positive even number (got %u)",
                     Plan.ApproxPerComputed);
  if (Plan.WidthArgIndex >= F.numArguments() ||
      Plan.HeightArgIndex >= F.numArguments())
    return makeError("output approximation: width/height argument index "
                     "out of range for '%s'",
                     F.name().c_str());

  // Validate the cleanup pipeline before any IR is created, so a bad
  // spec cannot leave an orphaned kernel in the module.
  Expected<ir::PassPipeline> Pipeline =
      ir::PassPipeline::parse(Plan.PipelineSpec);
  if (!Pipeline)
    return Pipeline.takeError();

  unsigned Period = Plan.ApproxPerComputed + 1;
  unsigned Offset = Period / 2;

  ir::CloneMap Map;
  ir::Function *NewF = ir::cloneFunction(M, F, NewName, Map);
  ir::Argument *WidthArg = NewF->argument(Plan.WidthArgIndex);
  ir::Argument *HeightArg = NewF->argument(Plan.HeightArgIndex);
  if (!WidthArg->type().isInt() || !HeightArg->type().isInt())
    return makeError("output approximation: width/height arguments of "
                     "'%s' must be int",
                     F.name().c_str());

  bool RemapY = Plan.Kind == OutputSchemeKind::Rows ||
                Plan.Kind == OutputSchemeKind::Center;
  bool RemapX = Plan.Kind == OutputSchemeKind::Cols ||
                Plan.Kind == OutputSchemeKind::Center;
  if (RemapY)
    remapGlobalId(M, *NewF, /*Dim=*/1, Period, Offset, HeightArg);
  if (RemapX)
    remapGlobalId(M, *NewF, /*Dim=*/0, Period, Offset, WidthArg);

  // Analyze after remapping so the store sites carry the remapped
  // row/column values.
  Expected<KernelAccessInfo> InfoOr = analyzeKernelAccesses(*NewF);
  if (!InfoOr)
    return InfoOr.takeError();
  if (InfoOr->Outputs.empty())
    return makeError("output approximation: no matched output store in "
                     "'%s'",
                     F.name().c_str());

  // Duplicate each matched store to the approximated neighbors.
  ir::IRBuilder B(M);
  for (const StoreSite &S : InfoOr->Outputs) {
    ir::BasicBlock *BB = S.Store->parent();
    size_t Pos = BB->indexOf(S.Store);
    B.setInsertPoint(BB, Pos + 1);

    std::vector<std::pair<int, int>> Offsets;
    int Lo = -static_cast<int>(Offset);
    int Hi = static_cast<int>(Period - 1 - Offset);
    if (Plan.Kind == OutputSchemeKind::Rows) {
      for (int D = Lo; D <= Hi; ++D)
        if (D != 0)
          Offsets.push_back({D, 0});
    } else if (Plan.Kind == OutputSchemeKind::Cols) {
      for (int D = Lo; D <= Hi; ++D)
        if (D != 0)
          Offsets.push_back({0, D});
    } else {
      for (int Dy = Lo; Dy <= Hi; ++Dy)
        for (int Dx = Lo; Dx <= Hi; ++Dx)
          if (Dy != 0 || Dx != 0)
            Offsets.push_back({Dy, Dx});
    }

    for (auto [Dy, Dx] : Offsets) {
      ir::Value *Row = S.RowVal;
      ir::Value *Col = S.ColVal;
      if (Dy != 0)
        Row = B.createClampInt(
            B.createAdd(Row, B.getInt(Dy)), B.getInt(0),
            B.createSub(HeightArg, B.getInt(1)));
      if (Dx != 0)
        Col = B.createClampInt(
            B.createAdd(Col, B.getInt(Dx)), B.getInt(0),
            B.createSub(WidthArg, B.getInt(1)));
      ir::Value *Idx = B.createAdd(
          B.createMul(Row, const_cast<ir::Argument *>(S.WidthArg)), Col);
      B.createStore(S.StoredValue,
                    B.createGep(const_cast<ir::Argument *>(S.Buffer), Idx));
    }
  }

  ir::PassRunOptions RunOpts;
  RunOpts.VerifyEach = Plan.VerifyEach;
  Expected<ir::PipelineStats> Stats = Pipeline->run(*NewF, M, RunOpts);
  if (!Stats)
    return Stats.takeError();
  OutputApproxResult Result;
  Result.PassStats = Stats.takeValue();
  if (Error E = ir::verifyFunction(*NewF))
    return E;

  Result.Kernel = NewF;
  Result.DivX = RemapX ? Period : 1;
  Result.DivY = RemapY ? Period : 1;
  return Result;
}
