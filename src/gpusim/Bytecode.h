//===- gpusim/Bytecode.h - Kernel IR to linear bytecode -----------*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles verified kernel IR into a register-allocated linear bytecode,
/// the input of the batched execution tier (see BytecodeExec.h):
///
///  * SSA values live in virtual registers assigned by a liveness pass:
///    a backward dataflow fixpoint computes per-block live-in/live-out
///    sets, conservative linear live intervals are derived from them, and
///    a linear scan packs non-overlapping intervals into the same
///    register. Arguments and constants occupy a read-only shared prefix
///    of the register file, initialized once per launch.
///  * Phis are not instructions at runtime: every CFG edge carries a
///    parallel copy list (sequentialized at compile time, cycles broken
///    through scratch registers) executed by the jump that traverses it.
///  * Barriers are explicit suspend points: the executor saves the resume
///    pc and hands control back to the work-group scheduler.
///  * Opcodes are specialized on address space and operand type
///    (LdG/LdL/LdP, AddI/AddF, ...), so the executor dispatches once per
///    instruction with no per-operand tag tests.
///
/// Global/local memory operations are numbered in the same block order as
/// the tree interpreter's lowering, so the coalescing and bank-conflict
/// accounting keys -- and therefore every SimReport counter -- are
/// bit-identical across tiers.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_GPUSIM_BYTECODE_H
#define KPERF_GPUSIM_BYTECODE_H

#include "ir/Function.h"
#include "support/Error.h"

#include <cstdint>
#include <vector>

namespace kperf {
namespace sim {
namespace bc {

/// Bytecode opcodes. Specialized per address space (G/L/P suffix) and
/// operand scalar kind (I/F/B suffix). Each Cmp*I / Cmp*F run must stay
/// contiguous in Eq, Ne, Lt, Le, Gt, Ge order: JmpCmp's Sub is an offset
/// into it.
enum class Op : uint8_t {
  AllocaP, ///< Dst = private-arena pointer at word offset Imm.
  AllocaL, ///< Dst = local-arena pointer at word offset Imm.
  LdG,     ///< Dst = global load through A; Aux = global mem-op id.
  LdL,     ///< Dst = local load through A; Aux = local mem-op id.
  LdP,     ///< Dst = private load through A.
  StG,     ///< Global store of A through B; Aux = global mem-op id.
  StL,     ///< Local store of A through B; Aux = local mem-op id.
  StP,     ///< Private store of A through B.
  Gep,     ///< Dst = pointer A advanced by B.I elements.
  AddI, SubI, MulI, DivI, RemI,
  AddF, SubF, MulF, DivF,
  RemF, ///< Float remainder; mirrors the tree walker (result 0.0).
  CmpEqI, CmpNeI, CmpLtI, CmpLeI, CmpGtI, CmpGeI,
  CmpEqF, CmpNeF, CmpLtF, CmpLeF, CmpGtF, CmpGeF,
  AndB, OrB, NotB,
  NegI, NegF,
  I2F, F2I,
  Sel,      ///< Dst = A.I != 0 ? B : C (whole value, pointers included).
  DimQuery, ///< Dst = work-item query; Sub = ir::Builtin, A = dimension.
  MinI, MinF, MaxI, MaxF,
  ClampI, ClampF,
  AbsI, AbsF,
  SqrtF, ExpF, LogF, PowF, FloorF,
  Bar,   ///< Barrier: suspend the item, resume at pc+1.
  Jmp,   ///< Goto Imm after executing edge copy list CL0.
  JmpIf, ///< A.I != 0 ? (CL0, goto Imm) : (CL1, goto Aux).
  Ret,

  // Fused superinstructions. The compiler's peephole pass folds each
  // adjacent single-use producer that sim::planFusedPairs (shared with the
  // tree walker, gpusim/ExecCommon.h) pairs into its consumer; each fused
  // op performs both operations and charges both operations' event
  // counters, so SimReport stays bit-identical.
  LdGX, ///< Gep+LdG: Dst = load through pointer A advanced by B.I.
  LdLX, ///< Gep+LdL.
  LdPX, ///< Gep+LdP.
  StGX, ///< Gep+StG: store A through pointer B advanced by C.I.
  StLX, ///< Gep+StL.
  StPX, ///< Gep+StP.
  JmpCmpI, ///< CmpXXI+JmpIf: compare A, B (kind in Sub), then branch.
  JmpCmpF, ///< CmpXXF+JmpIf.
  MulAddI, ///< MulI+AddI: Dst = A * B + C.
  MulAddF, ///< MulF+AddF: Dst = A * B + C, both roundings preserved.
};

/// Sentinel for "this edge has no phi copies".
constexpr uint32_t NoCopyList = ~0u;

/// Instr::Flags bit: the branch condition is provably uniform across the
/// work group (ir::DivergenceAnalysis at compile time). The batched
/// executor may then read one item's condition register and branch the
/// whole fragment without the per-item scan; counters are charged as if
/// every item had been scanned, so SimReport stays bit-identical.
constexpr uint8_t FlagUniformCond = 1;

/// One bytecode instruction. Register operands are 16-bit; compilation
/// fails gracefully on kernels needing more than 65535 registers.
struct Instr {
  Op Opc = Op::Ret;
  uint8_t Sub = 0;            ///< DimQuery: ir::Builtin; JmpCmp: cmp kind
                              ///< (offset from CmpEqI/CmpEqF); Sel: 1 when
                              ///< the result is scalar (value plane only).
  uint8_t Flags = 0;          ///< FlagUniformCond on JmpIf/JmpCmp.
  uint16_t Dst = 0;
  uint16_t A = 0, B = 0, C = 0;
  int32_t Imm = 0;            ///< Alloca arena offset / jump target pc.
  uint32_t Aux = 0;           ///< Mem-op id / JmpIf false-edge target pc.
  uint32_t CL0 = NoCopyList;  ///< Copy list of the (taken) edge.
  uint32_t CL1 = NoCopyList;  ///< Copy list of the JmpIf false edge.
};

/// One register move of an edge copy list.
struct Copy {
  uint16_t Dst = 0;
  uint16_t Src = 0;
};

/// A [Begin, Begin+Count) slice of Program::CopyPool.
struct CopyRange {
  uint32_t Begin = 0;
  uint32_t Count = 0;
};

/// Launch-time initializer of one shared (argument/constant) register.
struct SharedInit {
  enum class Kind : uint8_t { Arg, ConstInt, ConstFloat } K = Kind::ConstInt;
  uint32_t ArgIndex = 0; ///< Kind::Arg: kernel argument index.
  int32_t I = 0;         ///< Kind::ConstInt payload (bools are 0/1).
  float F = 0;           ///< Kind::ConstFloat payload.
};

/// A compiled kernel: flat code, the edge copy lists, and the launch
/// parameters the executor needs. Immutable after compile(); safe to
/// share across concurrent launches.
struct Program {
  std::vector<Instr> Code;
  std::vector<Copy> CopyPool;
  std::vector<CopyRange> CopyRanges;
  std::vector<SharedInit> SharedInits; ///< One per shared register.
  uint32_t NumShared = 0;   ///< Read-only register-file prefix size.
  uint32_t NumRegs = 0;     ///< Total registers (shared + allocated + scratch).
  uint32_t PrivateWords = 0;
  uint32_t LocalWords = 0;
  uint32_t NumGlobalOps = 0; ///< Global loads+stores (exec-instance table).
  uint32_t NumLocalOps = 0;  ///< Local loads+stores.
  uint32_t MaxLive = 0;      ///< Peak simultaneously-live SSA intervals.
};

/// Compiles \p F to bytecode. Fails on malformed IR (incomplete phis,
/// >3-operand instructions) or register-budget overflow; verified kernel
/// IR from this project's pipelines always compiles.
Expected<Program> compile(const ir::Function &F);

} // namespace bc
} // namespace sim
} // namespace kperf

#endif // KPERF_GPUSIM_BYTECODE_H
