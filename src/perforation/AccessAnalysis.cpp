//===- perforation/AccessAnalysis.cpp --------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "perforation/AccessAnalysis.h"

#include "ir/Dominators.h"
#include "ir/LoopInfo.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>

using namespace kperf;
using namespace kperf::perf;
namespace irns = kperf::ir;

namespace {

/// Symbol in an affine form.
struct Symbol {
  enum class Kind : uint8_t { Gid0, Gid1, Arg, Loop } K;
  const irns::Value *V = nullptr; ///< Argument or induction phi.

  bool operator<(const Symbol &O) const {
    if (K != O.K)
      return K < O.K;
    return V < O.V;
  }
  bool operator==(const Symbol &O) const { return K == O.K && V == O.V; }
};

/// c0 + sum(coeff_i * sym_i), or invalid ("not affine").
struct Affine {
  bool Valid = false;
  int64_t Const = 0;
  std::map<Symbol, int64_t> Coeffs;

  static Affine invalid() { return Affine(); }
  static Affine constant(int64_t C) {
    Affine A;
    A.Valid = true;
    A.Const = C;
    return A;
  }
  static Affine symbol(Symbol S) {
    Affine A;
    A.Valid = true;
    A.Coeffs[S] = 1;
    return A;
  }

  bool isConstant() const { return Valid && Coeffs.empty(); }

  /// Returns the coefficient of \p S (0 if absent).
  int64_t coeff(Symbol S) const {
    auto It = Coeffs.find(S);
    return It == Coeffs.end() ? 0 : It->second;
  }

  Affine add(const Affine &O, int64_t Sign) const {
    if (!Valid || !O.Valid)
      return invalid();
    Affine R = *this;
    R.Const += Sign * O.Const;
    for (const auto &[S, C] : O.Coeffs) {
      R.Coeffs[S] += Sign * C;
      if (R.Coeffs[S] == 0)
        R.Coeffs.erase(S);
    }
    return R;
  }

  Affine scale(int64_t Factor) const {
    if (!Valid)
      return invalid();
    Affine R;
    R.Valid = true;
    R.Const = Const * Factor;
    if (Factor != 0)
      for (const auto &[S, C] : Coeffs)
        R.Coeffs[S] = C * Factor;
    return R;
  }
};

/// Trip cap of the induction simulation: a loop that runs longer gives
/// no loop symbol.
constexpr unsigned MaxTrips = 1u << 22;

/// An induction variable of constant range: the loop whose body sees it
/// and the least and greatest value the body sees.
struct LoopRange {
  const irns::Loop *L = nullptr;
  int64_t Lo = 0;
  int64_t Hi = 0;
};

/// Per-function affine evaluation over SSA with memoization. Loop
/// symbols are the induction phis ir::findInduction matches with a
/// constant init and bound.
class AffineEvaluator {
public:
  explicit AffineEvaluator(const irns::Function &F)
      : Loops(irns::LoopInfo::compute(F, irns::DominatorTree::compute(F))) {
    for (const irns::Loop &L : Loops.loops())
      addInduction(L);
  }

  Affine evaluate(const irns::Value *V) {
    auto It = Memo.find(V);
    if (It != Memo.end())
      return It->second;
    // No cycle guard: SSA operands form cycles only through phis, and
    // compute() never looks through one.
    Affine Result = compute(V);
    Memo.emplace(V, Result);
    return Result;
  }

  /// Computes the [min,max] value range of \p A at a load in block \p At;
  /// returns false if A contains Arg symbols (unbounded) or a loop symbol
  /// whose loop body does not hold \p At. Outside the body -- after the
  /// loop, or in its header, which also sees the exit value -- the phi
  /// takes values the range does not cover.
  bool valueRange(const Affine &A, const irns::BasicBlock *At, int64_t &Lo,
                  int64_t &Hi) const {
    if (!A.Valid)
      return false;
    Lo = Hi = A.Const;
    for (const auto &[S, C] : A.Coeffs) {
      if (S.K != Symbol::Kind::Loop)
        return false;
      const LoopRange &R = Inductions.at(S.V);
      if (!R.L->contains(At) || At == R.L->Header)
        return false;
      int64_t T0 = C * R.Lo, T1 = C * R.Hi;
      Lo += std::min(T0, T1);
      Hi += std::max(T0, T1);
    }
    return true;
  }

private:
  /// Records \p L's induction phi as a loop symbol when its init and
  /// bound are constants and its body runs at least once.
  void addInduction(const irns::Loop &L) {
    std::optional<irns::Induction> IV = irns::findInduction(L);
    if (!IV)
      return;
    std::optional<int64_t> Init = irns::asConstInt(IV->Init);
    std::optional<int64_t> Bound = irns::asConstInt(IV->Bound);
    if (!Init || !Bound)
      return;
    std::optional<unsigned> Trips =
        irns::simulateTrips(*Init, IV->Step, IV->Cond->opcode(), IV->IvOnLhs,
                            *Bound, L.bodyOnTrueEdge(), MaxTrips);
    if (!Trips || *Trips == 0)
      return;
    int64_t Last = *Init + (static_cast<int64_t>(*Trips) - 1) * IV->Step;
    Inductions[IV->Phi] = {&L, std::min(*Init, Last), std::max(*Init, Last)};
  }

  Affine compute(const irns::Value *V) {
    if (const auto *CI = irns::dyn_cast<irns::ConstantInt>(V))
      return Affine::constant(CI->value());
    if (const auto *A = irns::dyn_cast<irns::Argument>(V)) {
      if (A->type().isInt())
        return Affine::symbol({Symbol::Kind::Arg, A});
      return Affine::invalid();
    }
    const auto *I = irns::dyn_cast<irns::Instruction>(V);
    if (!I)
      return Affine::invalid();

    switch (I->opcode()) {
    case irns::Opcode::Add:
      return evaluate(I->operand(0)).add(evaluate(I->operand(1)), +1);
    case irns::Opcode::Sub:
      return evaluate(I->operand(0)).add(evaluate(I->operand(1)), -1);
    case irns::Opcode::Neg:
      return evaluate(I->operand(0)).scale(-1);
    case irns::Opcode::Mul: {
      Affine L = evaluate(I->operand(0));
      Affine R = evaluate(I->operand(1));
      if (L.isConstant())
        return R.scale(L.Const);
      if (R.isConstant())
        return L.scale(R.Const);
      return Affine::invalid();
    }
    case irns::Opcode::Phi:
      if (Inductions.count(I))
        return Affine::symbol({Symbol::Kind::Loop, I});
      return Affine::invalid();
    case irns::Opcode::Call:
      switch (I->callee()) {
      case irns::Builtin::GetGlobalId: {
        const auto *Dim =
            irns::dyn_cast<irns::ConstantInt>(I->operand(0));
        if (!Dim)
          return Affine::invalid();
        if (Dim->value() == 0)
          return Affine::symbol({Symbol::Kind::Gid0, nullptr});
        if (Dim->value() == 1)
          return Affine::symbol({Symbol::Kind::Gid1, nullptr});
        return Affine::invalid();
      }
      case irns::Builtin::Clamp:
        // Look through boundary clamping; the unclamped range is a sound
        // overapproximation of the footprint (see header).
        return evaluate(I->operand(0));
      default:
        return Affine::invalid();
      }
    default:
      return Affine::invalid();
    }
  }

  irns::LoopInfo Loops;
  std::unordered_map<const irns::Value *, Affine> Memo;
  std::unordered_map<const irns::Value *, LoopRange> Inductions;
};

/// Splits an address expression idx == rowVal * width + colVal.
struct IndexMatch {
  irns::Value *RowVal = nullptr;
  irns::Value *ColVal = nullptr;
  const irns::Argument *WidthArg = nullptr;
};

/// Matches Add(Mul(row, w), col) in any commutative arrangement where one
/// multiplication operand resolves affinely to a pure int argument.
bool matchIndex(AffineEvaluator &Eval, irns::Value *Idx, IndexMatch &M) {
  auto *AddI = irns::dyn_cast<irns::Instruction>(Idx);
  if (!AddI || AddI->opcode() != irns::Opcode::Add)
    return false;
  for (unsigned MulSide = 0; MulSide < 2; ++MulSide) {
    auto *MulI =
        irns::dyn_cast<irns::Instruction>(AddI->operand(MulSide));
    if (!MulI || MulI->opcode() != irns::Opcode::Mul)
      continue;
    irns::Value *Col = AddI->operand(1 - MulSide);
    for (unsigned WidthSide = 0; WidthSide < 2; ++WidthSide) {
      Affine WA = Eval.evaluate(MulI->operand(WidthSide));
      if (!WA.Valid || WA.Const != 0 || WA.Coeffs.size() != 1)
        continue;
      const auto &[Sym, Coeff] = *WA.Coeffs.begin();
      if (Sym.K != Symbol::Kind::Arg || Coeff != 1)
        continue;
      M.RowVal = MulI->operand(1 - WidthSide);
      M.ColVal = Col;
      M.WidthArg = irns::cast<irns::Argument>(Sym.V);
      return true;
    }
  }
  return false;
}

/// Checks that \p A == gid + [Lo, Hi] for the requested gid dimension at
/// a load in block \p At.
bool offsetRange(AffineEvaluator &Eval, const Affine &A,
                 const irns::BasicBlock *At, bool WantGid1, int &Lo,
                 int &Hi) {
  if (!A.Valid)
    return false;
  Symbol Want{WantGid1 ? Symbol::Kind::Gid1 : Symbol::Kind::Gid0, nullptr};
  Affine Rest = A.add(Affine::symbol(Want), -1);
  if (Rest.coeff(Want) != 0)
    return false;
  Symbol Other{WantGid1 ? Symbol::Kind::Gid0 : Symbol::Kind::Gid1, nullptr};
  if (Rest.coeff(Other) != 0)
    return false;
  int64_t L, H;
  if (!Eval.valueRange(Rest, At, L, H))
    return false;
  if (L < INT32_MIN || H > INT32_MAX)
    return false;
  Lo = static_cast<int>(L);
  Hi = static_cast<int>(H);
  return true;
}

} // namespace

Expected<KernelAccessInfo> perf::analyzeKernelAccesses(ir::Function &F) {
  AffineEvaluator Eval(F);
  KernelAccessInfo Info;
  std::unordered_map<const ir::Argument *, size_t> InputIndex;

  for (const auto &BB : F.blocks()) {
    for (const auto &I : BB->instructions()) {
      bool IsLoad = I->opcode() == ir::Opcode::Load;
      bool IsStore = I->opcode() == ir::Opcode::Store;
      if (!IsLoad && !IsStore)
        continue;
      auto *Gep = ir::dyn_cast<ir::Instruction>(I->operand(IsLoad ? 0 : 1));
      if (!Gep || Gep->opcode() != ir::Opcode::Gep)
        continue;
      const auto *Buf = ir::dyn_cast<ir::Argument>(Gep->operand(0));
      if (!Buf || !Buf->type().isPointer() ||
          Buf->type().addressSpace() != ir::AddressSpace::Global)
        continue;

      IndexMatch M;
      bool Matched = matchIndex(Eval, Gep->operand(1), M);

      if (IsStore) {
        if (!Matched || Buf->isConst())
          continue; // Stores to const args are rejected by the verifier.
        StoreSite S;
        S.Store = I.get();
        S.Gep = Gep;
        S.RowVal = M.RowVal;
        S.ColVal = M.ColVal;
        S.StoredValue = I->operand(0);
        S.Buffer = Buf;
        S.WidthArg = M.WidthArg;
        Info.Outputs.push_back(S);
        continue;
      }

      if (!Buf->isConst())
        continue; // Only read-only inputs are perforation candidates.
      if (!Matched) {
        ++Info.UnmatchedInputLoads;
        continue;
      }

      LoadSite L;
      L.Load = I.get();
      L.Gep = Gep;
      L.RowVal = M.RowVal;
      L.ColVal = M.ColVal;
      if (!offsetRange(Eval, Eval.evaluate(M.RowVal), BB.get(),
                       /*WantGid1=*/true, L.DyMin, L.DyMax) ||
          !offsetRange(Eval, Eval.evaluate(M.ColVal), BB.get(),
                       /*WantGid1=*/false, L.DxMin, L.DxMax)) {
        ++Info.UnmatchedInputLoads;
        continue;
      }

      auto It = InputIndex.find(Buf);
      if (It == InputIndex.end()) {
        BufferAccess A;
        A.Buffer = Buf;
        A.WidthArg = M.WidthArg;
        A.DyMin = L.DyMin;
        A.DyMax = L.DyMax;
        A.DxMin = L.DxMin;
        A.DxMax = L.DxMax;
        A.Loads.push_back(L);
        InputIndex[Buf] = Info.Inputs.size();
        Info.Inputs.push_back(std::move(A));
        continue;
      }
      BufferAccess &A = Info.Inputs[It->second];
      if (A.WidthArg != M.WidthArg) {
        // Inconsistent strides; treat this load as unmatched.
        ++Info.UnmatchedInputLoads;
        continue;
      }
      A.DyMin = std::min(A.DyMin, L.DyMin);
      A.DyMax = std::max(A.DyMax, L.DyMax);
      A.DxMin = std::min(A.DxMin, L.DxMin);
      A.DxMax = std::max(A.DxMax, L.DxMax);
      A.Loads.push_back(L);
    }
  }
  return Info;
}

Expected<const KernelAccessInfo *>
perf::analyzeKernelAccessesCached(ir::AnalysisManager &AM,
                                  ir::Function &F) {
  if (const KernelAccessInfo *Cached = AM.lookup<KernelAccessInfo>(F))
    return Cached;
  Expected<KernelAccessInfo> Info = analyzeKernelAccesses(F);
  if (!Info)
    return Info.takeError();
  return &AM.cache(F, Info.takeValue());
}
