//===- ir/Simplify.cpp ------------------------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "ir/Simplify.h"

#include "ir/InstructionUtils.h"

#include <optional>

#include <cmath>
#include <unordered_map>

using namespace kperf;
using namespace kperf::ir;

namespace {

/// One simplification sweep over a function. Replacement works by value
/// substitution: when an instruction simplifies to V, every use of the
/// instruction is rewritten to V (the dead instruction is left for DCE).
class Simplifier {
public:
  Simplifier(Function &F, Module &M) : F(F), M(M) {}

  unsigned run() {
    unsigned Total = 0;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (const auto &BB : F.blocks()) {
        for (const auto &I : BB->instructions()) {
          if (Value *V = simplify(*I)) {
            // Progress is measured by *uses actually rewritten*: a dead
            // instruction that folds but feeds nothing must not keep the
            // fixpoint loop spinning (it is left for DCE).
            if (replaceUses(I.get(), V)) {
              ++Total;
              Changed = true;
            }
          }
        }
        if (foldTerminator(*BB)) {
          ++Total;
          Changed = true;
        }
      }
    }
    return Total;
  }

private:
  /// Rewrites every use of \p From to \p To; returns the number of
  /// operand slots changed.
  unsigned replaceUses(Instruction *From, Value *To) {
    unsigned NumChanged = 0;
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions()) {
        if (I.get() == From)
          continue;
        for (unsigned OI = 0; OI < I->numOperands(); ++OI)
          if (I->operand(OI) == From) {
            I->setOperand(OI, To);
            ++NumChanged;
          }
      }
    return NumChanged;
  }

  /// Turns `condbr const, a, b` into `br a-or-b`. Returns true on change.
  bool foldTerminator(BasicBlock &BB) {
    Instruction *T = BB.terminator();
    if (!T || T->opcode() != Opcode::CondBr)
      return false;
    const auto *C = dyn_cast<ConstantBool>(T->operand(0));
    if (!C)
      return false;
    BasicBlock *Target = T->branchTarget(C->value() ? 0 : 1);
    BasicBlock *Dropped = T->branchTarget(C->value() ? 1 : 0);
    // The edge BB -> Dropped disappears; phis there must shed the
    // matching incoming entry or the verifier's exact-predecessor-match
    // rule breaks.
    if (Dropped != Target)
      for (const auto &I : Dropped->instructions()) {
        if (I->opcode() != Opcode::Phi)
          break; // Phis are contiguous at the head.
        I->removeIncomingFor(&BB);
      }
    auto Br = std::make_unique<Instruction>(
        Opcode::Br, Type::voidTy(), std::vector<Value *>{}, "");
    Br->setBranchTarget(0, Target);
    auto &Instrs = BB.mutableInstructions();
    Br->setParent(&BB);
    Instrs.back() = std::move(Br);
    return true;
  }

  // Constant accessors returning nullopt for non-constants.
  static std::optional<int32_t> asInt(const Value *V) {
    if (const auto *C = dyn_cast<ConstantInt>(V))
      return C->value();
    return std::nullopt;
  }
  static std::optional<float> asFloat(const Value *V) {
    if (const auto *C = dyn_cast<ConstantFloat>(V))
      return C->value();
    return std::nullopt;
  }
  static std::optional<bool> asBool(const Value *V) {
    if (const auto *C = dyn_cast<ConstantBool>(V))
      return C->value();
    return std::nullopt;
  }

  /// Returns the replacement value for \p I, or null if none applies.
  Value *simplify(const Instruction &I) {
    switch (I.opcode()) {
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Rem:
      return simplifyArith(I);
    case Opcode::CmpEq:
    case Opcode::CmpNe:
    case Opcode::CmpLt:
    case Opcode::CmpLe:
    case Opcode::CmpGt:
    case Opcode::CmpGe:
      return simplifyCmp(I);
    case Opcode::LogicalAnd: {
      auto L = asBool(I.operand(0)), R = asBool(I.operand(1));
      if (L && R)
        return M.getBool(*L && *R);
      if (L)
        return *L ? I.operand(1) : M.getBool(false);
      if (R)
        return *R ? I.operand(0) : M.getBool(false);
      return nullptr;
    }
    case Opcode::LogicalOr: {
      auto L = asBool(I.operand(0)), R = asBool(I.operand(1));
      if (L && R)
        return M.getBool(*L || *R);
      if (L)
        return *L ? M.getBool(true) : I.operand(1);
      if (R)
        return *R ? M.getBool(true) : I.operand(0);
      return nullptr;
    }
    case Opcode::LogicalNot: {
      if (auto V = asBool(I.operand(0)))
        return M.getBool(!*V);
      // not(not(x)) == x.
      if (const auto *Inner = dyn_cast<Instruction>(I.operand(0)))
        if (Inner->opcode() == Opcode::LogicalNot)
          return Inner->operand(0);
      return nullptr;
    }
    case Opcode::Neg: {
      if (auto V = asInt(I.operand(0)))
        return M.getInt(wrapIntNeg(*V));
      if (auto V = asFloat(I.operand(0)))
        return M.getFloat(-*V);
      if (const auto *Inner = dyn_cast<Instruction>(I.operand(0)))
        if (Inner->opcode() == Opcode::Neg)
          return Inner->operand(0);
      return nullptr;
    }
    case Opcode::IntToFloat:
      if (auto V = asInt(I.operand(0)))
        return M.getFloat(static_cast<float>(*V));
      return nullptr;
    case Opcode::FloatToInt:
      if (auto V = asFloat(I.operand(0)))
        return M.getInt(wrapFloatToInt(*V));
      return nullptr;
    case Opcode::Select: {
      if (auto C = asBool(I.operand(0)))
        return *C ? I.operand(1) : I.operand(2);
      if (I.operand(1) == I.operand(2))
        return I.operand(1);
      return nullptr;
    }
    case Opcode::Call:
      return simplifyCall(I);
    case Opcode::Phi: {
      // A phi whose incoming values (ignoring self-references through
      // loop back edges) agree is that value.
      Value *Same = nullptr;
      for (unsigned OI = 0; OI < I.numIncoming(); ++OI) {
        Value *V = I.incomingValue(OI);
        if (V == &I)
          continue;
        if (Same && V != Same)
          return nullptr;
        Same = V;
      }
      return Same;
    }
    default:
      return nullptr;
    }
  }

  Value *simplifyArith(const Instruction &I) {
    Value *L = I.operand(0);
    Value *R = I.operand(1);
    if (I.type().isInt()) {
      auto LC = asInt(L), RC = asInt(R);
      if (LC && RC) {
        // Add/sub/mul fold through the shared helper (the same
        // semantics loop unrolling folds with); div/rem keep their
        // divide-by-zero guard here and wrap like the simulator.
        if (auto Folded = foldIntBinary(I.opcode(), *LC, *RC))
          return M.getInt(*Folded);
        switch (I.opcode()) {
        case Opcode::Div:
          return *RC == 0 ? nullptr : M.getInt(wrapIntDiv(*LC, *RC));
        case Opcode::Rem:
          return *RC == 0 ? nullptr : M.getInt(wrapIntRem(*LC, *RC));
        default:
          return nullptr;
        }
      }
      // Identities (integer only; float identities are unsafe for NaN
      // and signed zero and are deliberately not applied).
      switch (I.opcode()) {
      case Opcode::Add:
        if (LC && *LC == 0)
          return R;
        if (RC && *RC == 0)
          return L;
        break;
      case Opcode::Sub:
        if (RC && *RC == 0)
          return L;
        if (L == R)
          return M.getInt(0);
        break;
      case Opcode::Mul:
        if (LC && *LC == 1)
          return R;
        if (RC && *RC == 1)
          return L;
        if ((LC && *LC == 0) || (RC && *RC == 0))
          return M.getInt(0);
        break;
      case Opcode::Div:
        if (RC && *RC == 1)
          return L;
        break;
      case Opcode::Rem:
        if (RC && *RC == 1)
          return M.getInt(0);
        break;
      default:
        break;
      }
      return nullptr;
    }
    // Float: constant folding only.
    auto LC = asFloat(L), RC = asFloat(R);
    if (!LC || !RC)
      return nullptr;
    switch (I.opcode()) {
    case Opcode::Add:
      return M.getFloat(*LC + *RC);
    case Opcode::Sub:
      return M.getFloat(*LC - *RC);
    case Opcode::Mul:
      return M.getFloat(*LC * *RC);
    case Opcode::Div:
      return M.getFloat(*LC / *RC);
    default:
      return nullptr;
    }
  }

  Value *simplifyCmp(const Instruction &I) {
    Value *L = I.operand(0);
    Value *R = I.operand(1);
    auto fold = [&](auto A, auto B) -> Value * {
      switch (I.opcode()) {
      case Opcode::CmpEq:
        return M.getBool(A == B);
      case Opcode::CmpNe:
        return M.getBool(A != B);
      case Opcode::CmpLt:
        return M.getBool(A < B);
      case Opcode::CmpLe:
        return M.getBool(A <= B);
      case Opcode::CmpGt:
        return M.getBool(A > B);
      default:
        return M.getBool(A >= B);
      }
    };
    if (L->type().isInt()) {
      auto LC = asInt(L), RC = asInt(R);
      if (LC && RC)
        return M.getBool(evalIntCmp(I.opcode(), *LC, *RC));
    } else {
      auto LC = asFloat(L), RC = asFloat(R);
      if (LC && RC)
        return fold(*LC, *RC);
    }
    return nullptr;
  }

  Value *simplifyCall(const Instruction &I) {
    switch (I.callee()) {
    case Builtin::Min:
    case Builtin::Max: {
      bool IsMin = I.callee() == Builtin::Min;
      if (I.type().isInt()) {
        auto A = asInt(I.operand(0)), B = asInt(I.operand(1));
        if (A && B)
          return M.getInt(IsMin ? std::min(*A, *B) : std::max(*A, *B));
      } else {
        auto A = asFloat(I.operand(0)), B = asFloat(I.operand(1));
        if (A && B)
          return M.getFloat(IsMin ? std::min(*A, *B) : std::max(*A, *B));
      }
      if (I.operand(0) == I.operand(1))
        return I.operand(0);
      return nullptr;
    }
    case Builtin::Clamp: {
      if (I.type().isInt()) {
        auto V = asInt(I.operand(0)), Lo = asInt(I.operand(1)),
             Hi = asInt(I.operand(2));
        if (V && Lo && Hi)
          return M.getInt(std::min(std::max(*V, *Lo), *Hi));
      } else {
        auto V = asFloat(I.operand(0)), Lo = asFloat(I.operand(1)),
             Hi = asFloat(I.operand(2));
        if (V && Lo && Hi)
          return M.getFloat(std::min(std::max(*V, *Lo), *Hi));
      }
      return nullptr;
    }
    case Builtin::Abs:
      if (I.type().isInt()) {
        if (auto V = asInt(I.operand(0)))
          return M.getInt(wrapIntAbs(*V));
      } else if (auto V = asFloat(I.operand(0))) {
        return M.getFloat(std::fabs(*V));
      }
      return nullptr;
    case Builtin::Sqrt:
      if (auto V = asFloat(I.operand(0)))
        return M.getFloat(std::sqrt(*V));
      return nullptr;
    case Builtin::Floor:
      if (auto V = asFloat(I.operand(0)))
        return M.getFloat(std::floor(*V));
      return nullptr;
    default:
      return nullptr;
    }
  }

  Function &F;
  Module &M;
};

} // namespace

unsigned ir::simplifyFunction(Function &F, Module &M) {
  return Simplifier(F, M).run();
}
