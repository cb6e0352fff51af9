//===- ir/InstructionUtils.h - Shared instruction predicates -----*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Predicates shared by the value-numbering and memory passes (GVN,
/// MemOpt). They live in one place so the passes cannot drift apart on
/// what counts as pure or commutative: a new opcode or builtin is
/// classified here, once. The integer evaluation helpers below are
/// likewise the one definition simplify, the loop passes and both
/// simulator tiers compute with.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_IR_INSTRUCTIONUTILS_H
#define KPERF_IR_INSTRUCTIONUTILS_H

#include "ir/Instruction.h"

#include <cstdint>
#include <optional>
#include <unordered_map>

namespace kperf {
namespace ir {

/// Walks GEP chains back to the underlying object (argument or alloca).
inline const Value *rootObject(const Value *Ptr) {
  while (const auto *I = dyn_cast<Instruction>(Ptr)) {
    if (I->opcode() != Opcode::Gep)
      break;
    Ptr = I->operand(0);
  }
  return Ptr;
}

/// True if merging two calls of \p B with identical arguments is always
/// valid. Barrier is a synchronization point; everything else has no
/// side effects and returns the same value for the same work item
/// within a launch.
inline bool isPureBuiltin(Builtin B) { return B != Builtin::Barrier; }

/// True if \p Op combined with identical operands always produces an
/// identical value (loads need memory reasoning and are handled by each
/// pass separately).
inline bool isAlwaysPureOpcode(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Div:
  case Opcode::Rem:
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
  case Opcode::Gep:
    return true;
  case Opcode::Alloca: // Distinct storage per instruction.
  case Opcode::Phi:    // Identity depends on incoming edges, not operands.
  case Opcode::Load:
  case Opcode::Store:
  case Opcode::Call:
  case Opcode::Br:
  case Opcode::CondBr:
  case Opcode::Ret:
    return false;
  }
  return false;
}

inline bool isCommutativeOpcode(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
  case Opcode::Mul:
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::LogicalAnd:
  case Opcode::LogicalOr:
    return true;
  default:
    return false;
  }
}

inline bool isCommutativeBuiltin(Builtin B) {
  return B == Builtin::Min || B == Builtin::Max;
}

/// True for the six comparison opcodes.
inline bool isCmpOpcode(Opcode Op) {
  switch (Op) {
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::CmpGt:
  case Opcode::CmpGe:
    return true;
  default:
    return false;
  }
}

/// Evaluates an integer comparison exactly as the simulator would.
inline bool evalIntCmp(Opcode Op, int64_t L, int64_t R) {
  switch (Op) {
  case Opcode::CmpEq:
    return L == R;
  case Opcode::CmpNe:
    return L != R;
  case Opcode::CmpLt:
    return L < R;
  case Opcode::CmpLe:
    return L <= R;
  case Opcode::CmpGt:
    return L > R;
  default:
    assert(Op == Opcode::CmpGe && "not a comparison opcode");
    return L >= R;
  }
}

/// int32 add, subtract, multiply, negate and absolute value with the IR's
/// wraparound semantics: computed in uint32_t, since C++ leaves signed
/// overflow undefined. So INT32_MAX + 1, -INT32_MIN and abs(INT32_MIN)
/// are INT32_MIN.
inline int32_t wrapIntAdd(int32_t L, int32_t R) {
  return static_cast<int32_t>(static_cast<uint32_t>(L) +
                              static_cast<uint32_t>(R));
}
inline int32_t wrapIntSub(int32_t L, int32_t R) {
  return static_cast<int32_t>(static_cast<uint32_t>(L) -
                              static_cast<uint32_t>(R));
}
inline int32_t wrapIntMul(int32_t L, int32_t R) {
  return static_cast<int32_t>(static_cast<uint32_t>(L) *
                              static_cast<uint32_t>(R));
}
inline int32_t wrapIntNeg(int32_t V) {
  return static_cast<int32_t>(0u - static_cast<uint32_t>(V));
}
inline int32_t wrapIntAbs(int32_t V) { return V < 0 ? wrapIntNeg(V) : V; }

/// float to int32, truncating toward zero; NaN and values outside int32
/// give INT32_MIN (C++ leaves both undefined; x86 returns INT32_MIN).
inline int32_t wrapFloatToInt(float V) {
  // Both bounds are exact floats, and NaN fails the test. Selecting the
  // operand rather than the result keeps the conversion defined and
  // branch-free, so loops over it still vectorize.
  bool InRange = V >= -2147483648.0f && V < 2147483648.0f;
  return static_cast<int32_t>(InRange ? V : -2147483648.0f);
}

/// Folds int32 add/sub/mul with the simulator's wraparound semantics;
/// nullopt for other opcodes. Division is deliberately absent: its zero
/// guard stays with simplify.
inline std::optional<int32_t> foldIntBinary(Opcode Op, int32_t L,
                                            int32_t R) {
  switch (Op) {
  case Opcode::Add:
    return wrapIntAdd(L, R);
  case Opcode::Sub:
    return wrapIntSub(L, R);
  case Opcode::Mul:
    return wrapIntMul(L, R);
  default:
    return std::nullopt;
  }
}

/// int32 division and remainder with the simulator's semantics:
/// truncating, and wrapping on the one overflowing case, so
/// INT32_MIN / -1 is INT32_MIN and INT32_MIN % -1 is 0 (C++ leaves both
/// undefined; x86 traps). \p R must be nonzero: division by zero is a
/// fault each caller reports itself.
inline int32_t wrapIntDiv(int32_t L, int32_t R) {
  return R == -1 ? static_cast<int32_t>(-static_cast<int64_t>(L)) : L / R;
}
inline int32_t wrapIntRem(int32_t L, int32_t R) {
  return R == -1 ? 0 : L % R;
}

/// Deterministic operand ordering for commutative keys: values are
/// ranked in first-encounter order, never by pointer value (which would
/// make the canonical form run-dependent).
class ValueOrder {
public:
  unsigned rank(const Value *V) {
    auto It = Ranks.find(V);
    if (It != Ranks.end())
      return It->second;
    unsigned R = static_cast<unsigned>(Ranks.size());
    Ranks.emplace(V, R);
    return R;
  }

private:
  std::unordered_map<const Value *, unsigned> Ranks;
};

} // namespace ir
} // namespace kperf

#endif // KPERF_IR_INSTRUCTIONUTILS_H
