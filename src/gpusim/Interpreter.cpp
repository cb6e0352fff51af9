//===- gpusim/Interpreter.cpp ----------------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "gpusim/Interpreter.h"

#include "gpusim/CostModel.h"
#include "gpusim/ExecCommon.h"
#include "gpusim/MemAccounting.h"
#include "ir/InstructionUtils.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

using namespace kperf;
using namespace kperf::sim;
namespace irns = kperf::ir;

namespace {

/// Runtime value: a 32-bit scalar, or a pointer as (buffer index, element
/// offset). Loads and stores take the address space from the instruction,
/// so a pointer carries none; an alloca's pointer has Base 0.
struct RtValue {
  union {
    int32_t I;
    float F;
    uint32_t Base; ///< Buffer index of a global pointer.
  };
  int32_t Off = 0; ///< Element offset of a pointer.

  RtValue() : I(0) {}
};

/// OP(Name, AluOps): the typed operations, each with the AluOps it
/// charges (transcendentals cost 4). Every IR instruction lowers to one,
/// or with the instruction after it to one fused op (the pairs of
/// sim::planFusedPairs), which charges both instructions' AluOps. Each op
/// already encodes its operand kind (I/F), address space (P/L/G) or
/// builtin, so an item dispatches once per op. The families familyOp()
/// maps keep the order of their IR enumerators.
#define KPERF_TREE_OPS(OP)                                                     \
  OP(Alloca, 0) /* Pointer at arena word offset Imm. */                        \
  OP(LoadP, 0) OP(LoadL, 0) OP(LoadG, 0) /* In ir::AddressSpace order. */      \
  OP(StoreP, 0) OP(StoreL, 0) OP(StoreG, 0)                                    \
  OP(Gep, 1)                                                                   \
  OP(AddI, 1) OP(SubI, 1) OP(MulI, 1) OP(DivI, 1) OP(RemI, 1)                  \
  OP(AddF, 1) OP(SubF, 1) OP(MulF, 1) OP(DivF, 1) OP(RemF, 1)                  \
  OP(EqI, 1) OP(NeI, 1) OP(LtI, 1) OP(LeI, 1) OP(GtI, 1) OP(GeI, 1)            \
  OP(EqF, 1) OP(NeF, 1) OP(LtF, 1) OP(LeF, 1) OP(GtF, 1) OP(GeF, 1)            \
  OP(And, 1) OP(Or, 1) OP(Not, 1)                                              \
  OP(NegI, 1) OP(NegF, 1)                                                      \
  OP(IToF, 1) OP(FToI, 1)                                                      \
  OP(Select, 1)                                                                \
  OP(GlobalId, 1) OP(LocalId, 1) OP(GroupId, 1)                                \
  OP(LocalSize, 1) OP(GlobalSize, 1) OP(NumGroups, 1)                          \
  OP(Barrier, 0)                                                               \
  OP(MinI, 1) OP(MinF, 1) OP(MaxI, 1) OP(MaxF, 1)                              \
  OP(ClampI, 1) OP(ClampF, 1)                                                  \
  OP(AbsI, 1) OP(AbsF, 1)                                                      \
  OP(Sqrt, 4) OP(Exp, 4) OP(Log, 4) OP(Pow, 4) OP(Floor, 1)                    \
  OP(Br, 1) OP(CondBr, 1) OP(Ret, 0)                                           \
  /* Reached only without an edge (phis run on edges): faults. */              \
  OP(Phi, 0)                                                                   \
  /* Gep + Load: loads through pointer Ops[0] advanced by Ops[1]. */           \
  OP(LoadPX, 1) OP(LoadLX, 1) OP(LoadGX, 1)                                    \
  /* Gep + Store: stores Ops[0] through Ops[1] advanced by Ops[2]. */          \
  OP(StorePX, 1) OP(StoreLX, 1) OP(StoreGX, 1)                                 \
  /* Cmp + CondBr: branches on Ops[0] <rel> Ops[1]. */                         \
  OP(BrEqI, 2) OP(BrNeI, 2) OP(BrLtI, 2) OP(BrLeI, 2) OP(BrGtI, 2)             \
  OP(BrGeI, 2) OP(BrEqF, 2) OP(BrNeF, 2) OP(BrLtF, 2) OP(BrLeF, 2)             \
  OP(BrGtF, 2) OP(BrGeF, 2)                                                    \
  /* Mul + Add: Ops[0] * Ops[1] + Ops[2], rounded twice. */                    \
  OP(MulAddI, 2) OP(MulAddF, 2)

enum class Op : uint8_t {
#define KPERF_OP_NAME(Name, AluOps) Name,
  KPERF_TREE_OPS(KPERF_OP_NAME)
#undef KPERF_OP_NAME
};

/// AluOps charged per op, indexed by Op.
constexpr uint8_t AluOpsOf[] = {
#define KPERF_OP_ALU(Name, AluOps) AluOps,
    KPERF_TREE_OPS(KPERF_OP_ALU)
#undef KPERF_OP_ALU
};

/// The member of a typed-op family for enumerator \p E (of the IR, or of
/// a parallel op family), where the family starts with \p First for
/// enumerator \p FirstE.
template <typename Enum> Op familyOp(Op First, Enum FirstE, Enum E) {
  return static_cast<Op>(static_cast<int>(First) + static_cast<int>(E) -
                         static_cast<int>(FirstE));
}

template <typename E> constexpr int span(E First, E Last) {
  return static_cast<int>(Last) - static_cast<int>(First);
}
static_assert(
    span(Op::LoadP, Op::LoadG) ==
            span(irns::AddressSpace::Private, irns::AddressSpace::Global) &&
        span(Op::StoreP, Op::StoreG) == span(Op::LoadP, Op::LoadG) &&
        span(Op::AddI, Op::RemI) ==
            span(irns::Opcode::Add, irns::Opcode::Rem) &&
        span(Op::AddF, Op::RemF) == span(Op::AddI, Op::RemI) &&
        span(Op::EqI, Op::GeI) ==
            span(irns::Opcode::CmpEq, irns::Opcode::CmpGe) &&
        span(Op::EqF, Op::GeF) == span(Op::EqI, Op::GeI) &&
        span(Op::GlobalId, Op::NumGroups) ==
            span(irns::Builtin::GetGlobalId, irns::Builtin::GetNumGroups) &&
        span(Op::Sqrt, Op::Floor) ==
            span(irns::Builtin::Sqrt, irns::Builtin::Floor) &&
        span(Op::LoadPX, Op::LoadGX) == span(Op::LoadP, Op::LoadG) &&
        span(Op::StorePX, Op::StoreGX) == span(Op::StoreP, Op::StoreG) &&
        span(Op::BrEqI, Op::BrGeI) == span(Op::EqI, Op::GeI) &&
        span(Op::BrEqF, Op::BrGeF) == span(Op::EqI, Op::GeI),
    "typed-op families must keep the order of their IR enumerators");

/// The typed op of a call to \p B; \p IsFloat picks the variant of the
/// int/float overloads.
Op builtinOp(irns::Builtin B, bool IsFloat) {
  switch (B) {
  case irns::Builtin::GetGlobalId:
  case irns::Builtin::GetLocalId:
  case irns::Builtin::GetGroupId:
  case irns::Builtin::GetLocalSize:
  case irns::Builtin::GetGlobalSize:
  case irns::Builtin::GetNumGroups:
    return familyOp(Op::GlobalId, irns::Builtin::GetGlobalId, B);
  case irns::Builtin::Barrier:
    return Op::Barrier;
  case irns::Builtin::Min:
    return IsFloat ? Op::MinF : Op::MinI;
  case irns::Builtin::Max:
    return IsFloat ? Op::MaxF : Op::MaxI;
  case irns::Builtin::Clamp:
    return IsFloat ? Op::ClampF : Op::ClampI;
  case irns::Builtin::Abs:
    return IsFloat ? Op::AbsF : Op::AbsI;
  case irns::Builtin::Sqrt:
  case irns::Builtin::Exp:
  case irns::Builtin::Log:
  case irns::Builtin::Pow:
  case irns::Builtin::Floor:
    return familyOp(Op::Sqrt, irns::Builtin::Sqrt, B);
  }
  return Op::Barrier;
}

/// The runtime value of constant \p C.
RtValue constantValue(const irns::Value &C) {
  RtValue V;
  if (const auto *CI = irns::dyn_cast<irns::ConstantInt>(&C))
    V.I = CI->value();
  else if (const auto *CF = irns::dyn_cast<irns::ConstantFloat>(&C))
    V.F = CF->value();
  else if (const auto *CB = irns::dyn_cast<irns::ConstantBool>(&C))
    V.I = CB->value() ? 1 : 0;
  return V;
}

/// A lowered instruction or fused pair: its typed op, with operand and
/// result slots resolved to frame indices (slot 0 where it has none).
struct CInstr {
  Op Code = Op::Ret;
  uint32_t Result = 0;
  uint32_t Ops[3] = {0, 0, 0};
  /// Alloca: arena offset in words. Local loads and stores: dense id
  /// among local accesses; global stores: among global stores (their
  /// accounting groups).
  uint32_t Imm = 0;
  uint32_t Edges[2] = {0, 0}; ///< Branches: index into the edge table.
};

/// A CFG edge as a branch takes it: the successor's leading phis as one
/// parallel copy, then a jump past them.
struct Edge {
  /// Code index of the successor's first non-phi; the trailing Phi op,
  /// which faults, if some phi there has no value for this edge.
  uint32_t Target = 0;
  uint32_t MoveOff = 0; ///< [MoveOff, MoveOff+NumMoves) in the move pool.
  uint32_t NumMoves = 0;
};

/// One phi's copy on an edge: frame slot Src into frame slot Dst.
struct Move {
  uint32_t Dst, Src;
};

/// Item execution status at the end of a phase.
enum class StopReason : uint8_t { Barrier, Returned, Fault };

class Executor {
public:
  Executor(const irns::Function &F, Range2 Global, Range2 Local,
           const std::vector<KernelArg> &Args,
           std::vector<BufferData *> Buffers, const DeviceConfig &Device)
      : F(F), Global(Global), Local(Local), Args(Args),
        Buffers(std::move(Buffers)), Device(Device), Acct(Device, Group) {}

  Expected<SimReport> run() {
    // Validation is shared across execution tiers (ExecCommon.h) so a
    // malformed launch is rejected with the same text on every tier.
    if (Error E = validateLaunch(F, Global, Local, Args, Buffers))
      return E;
    if (Error E = compile())
      return E;
    return execute();
  }

private:
  using BlockMap = std::unordered_map<const irns::BasicBlock *, uint32_t>;

  //===--- Lowering to the flat form ---------------------------------------//

  Error compile() {
    // Frame layout: a scratch slot (the result of every void instruction
    // and every absent operand name it), arguments and constants (the
    // prefix every item's frame starts with), then instruction results.
    Prefix.resize(1);
    for (unsigned I = 0; I < F.numArguments(); ++I) {
      Slot[F.argument(I)] = static_cast<uint32_t>(Prefix.size());
      const KernelArg &Arg = Args[I];
      RtValue &V = Prefix.emplace_back();
      switch (Arg.K) {
      case KernelArg::Kind::Int:
        V.I = Arg.I;
        break;
      case KernelArg::Kind::Float:
        V.F = Arg.F;
        break;
      case KernelArg::Kind::Buffer:
        V.Base = Arg.BufferIndex;
        break;
      }
    }
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions())
        for (const irns::Value *Op : I->operands())
          if (irns::isConstant(Op) &&
              Slot.emplace(Op, static_cast<uint32_t>(Prefix.size())).second)
            Prefix.push_back(constantValue(*Op));
    NumSlots = static_cast<uint32_t>(Prefix.size());

    // Branch targets point past their block's leading phis. A fused pair
    // is one op at its producer's place (a phi never opens one).
    std::vector<FusedPair> Pairs = planFusedPairs(F);
    BlockMap BodyStart;
    uint32_t Index = 0;
    size_t K = 0;
    for (const auto &BB : F.blocks()) {
      BodyStart[BB.get()] =
          Index + static_cast<uint32_t>(BB->firstNonPhiIndex());
      for (const auto &I : BB->instructions()) {
        Index += Pairs[K++] == FusedPair::None;
        if (!I->type().isVoid())
          Slot[I.get()] = NumSlots++;
      }
    }
    FaultPc = Index;
    Code.reserve(Index + 1);
    K = 0;
    for (const auto &BB : F.blocks()) {
      const auto &Insts = BB->instructions();
      for (size_t J = 0; J < Insts.size(); ++J, ++K) {
        if (Pairs[K] == FusedPair::None) {
          Code.push_back(lower(*Insts[J], BodyStart));
          continue;
        }
        Code.push_back(lowerPair(Pairs[K], *Insts[J], *Insts[J + 1],
                                 BodyStart));
        ++J; // The consumer.
        ++K;
      }
    }
    Code.emplace_back().Code = Op::Phi; // The target of incomplete edges.
    if (LocalWords * 4 > Device.LocalMemBytes)
      return makeError("launch: kernel '%s' needs %u bytes of local memory, "
                       "device provides %u",
                       F.name().c_str(), LocalWords * 4,
                       Device.LocalMemBytes);
    return Error::success();
  }

  CInstr lower(const irns::Instruction &I, const BlockMap &BodyStart) {
    CInstr C;
    if (!I.type().isVoid())
      C.Result = Slot.at(&I);
    if (I.opcode() == irns::Opcode::Phi) {
      // Its incoming values are moves on the edges into its block.
      C.Code = Op::Phi;
      return C;
    }
    assert(I.numOperands() <= 3 && "instruction with more than 3 operands");
    for (unsigned OI = 0; OI < I.numOperands(); ++OI)
      C.Ops[OI] = Slot.at(I.operand(OI));
    bool IsFloat = I.numOperands() > 0 && I.operand(0)->type().isFloat();

    switch (I.opcode()) {
    case irns::Opcode::Alloca:
      C.Code = Op::Alloca;
      if (I.allocaSpace() == irns::AddressSpace::Local) {
        C.Imm = LocalWords;
        LocalWords += I.allocaCount();
      } else {
        C.Imm = PrivateWords;
        PrivateWords += I.allocaCount();
      }
      break;
    case irns::Opcode::Load:
    case irns::Opcode::Store: {
      bool IsLoad = I.opcode() == irns::Opcode::Load;
      irns::AddressSpace Space =
          I.operand(IsLoad ? 0 : 1)->type().addressSpace();
      C.Code = familyOp(IsLoad ? Op::LoadP : Op::StoreP,
                        irns::AddressSpace::Private, Space);
      if (Space == irns::AddressSpace::Local)
        C.Imm = NumLocalOps++;
      else if (Space == irns::AddressSpace::Global && !IsLoad)
        C.Imm = NumGlobalStores++;
      break;
    }
    case irns::Opcode::Gep:
      C.Code = Op::Gep;
      break;
    case irns::Opcode::Add:
    case irns::Opcode::Sub:
    case irns::Opcode::Mul:
    case irns::Opcode::Div:
    case irns::Opcode::Rem:
      C.Code = familyOp(IsFloat ? Op::AddF : Op::AddI, irns::Opcode::Add,
                        I.opcode());
      break;
    case irns::Opcode::CmpEq:
    case irns::Opcode::CmpNe:
    case irns::Opcode::CmpLt:
    case irns::Opcode::CmpLe:
    case irns::Opcode::CmpGt:
    case irns::Opcode::CmpGe:
      C.Code = familyOp(IsFloat ? Op::EqF : Op::EqI, irns::Opcode::CmpEq,
                        I.opcode());
      break;
    case irns::Opcode::LogicalAnd:
      C.Code = Op::And;
      break;
    case irns::Opcode::LogicalOr:
      C.Code = Op::Or;
      break;
    case irns::Opcode::LogicalNot:
      C.Code = Op::Not;
      break;
    case irns::Opcode::Neg:
      C.Code = IsFloat ? Op::NegF : Op::NegI;
      break;
    case irns::Opcode::IntToFloat:
      C.Code = Op::IToF;
      break;
    case irns::Opcode::FloatToInt:
      C.Code = Op::FToI;
      break;
    case irns::Opcode::Select:
      C.Code = Op::Select;
      break;
    case irns::Opcode::Call:
      C.Code = builtinOp(I.callee(), IsFloat);
      break;
    case irns::Opcode::Br:
      C.Code = Op::Br;
      C.Edges[0] = edge(I.parent(), I.branchTarget(0), BodyStart);
      break;
    case irns::Opcode::CondBr:
      C.Code = Op::CondBr;
      C.Edges[0] = edge(I.parent(), I.branchTarget(0), BodyStart);
      C.Edges[1] = edge(I.parent(), I.branchTarget(1), BodyStart);
      break;
    case irns::Opcode::Ret:
      C.Code = Op::Ret;
      break;
    case irns::Opcode::Phi:
      break; // Lowered above.
    }
    return C;
  }

  /// Lowers the fused \p Pair of producer \p A and its consumer \p B to
  /// one op: \p B's, reading \p A's operands in place of \p A's result.
  CInstr lowerPair(FusedPair Pair, const irns::Instruction &A,
                   const irns::Instruction &B, const BlockMap &BodyStart) {
    CInstr C = lower(B, BodyStart);
    uint32_t X = Slot.at(A.operand(0)), Y = Slot.at(A.operand(1));
    switch (Pair) {
    case FusedPair::GepLoad:
      C.Code = familyOp(Op::LoadPX, Op::LoadP, C.Code);
      C.Ops[0] = X;
      C.Ops[1] = Y;
      break;
    case FusedPair::GepStore:
      C.Code = familyOp(Op::StorePX, Op::StoreP, C.Code);
      C.Ops[1] = X;
      C.Ops[2] = Y;
      break;
    case FusedPair::CmpBr:
      C.Code = familyOp(A.operand(0)->type().isFloat() ? Op::BrEqF : Op::BrEqI,
                        irns::Opcode::CmpEq, A.opcode());
      C.Ops[0] = X;
      C.Ops[1] = Y;
      break;
    case FusedPair::MulAdd:
      C.Code = C.Code == Op::AddF ? Op::MulAddF : Op::MulAddI;
      C.Ops[2] = B.operand(0) == &A ? C.Ops[1] : C.Ops[0]; // The addend.
      C.Ops[0] = X;
      C.Ops[1] = Y;
      break;
    case FusedPair::None:
      break;
    }
    return C;
  }

  /// Adds the edge \p From -> \p To to the edge table; returns its index.
  uint32_t edge(const irns::BasicBlock *From, const irns::BasicBlock *To,
                const BlockMap &BodyStart) {
    Edge E;
    E.Target = BodyStart.at(To);
    E.MoveOff = static_cast<uint32_t>(Moves.size());
    for (const auto &Phi : To->instructions()) {
      if (Phi->opcode() != irns::Opcode::Phi)
        break;
      const irns::Value *In = Phi->incomingValueFor(From);
      if (!In) {
        E.Target = FaultPc;
        Moves.resize(E.MoveOff);
        break;
      }
      Moves.push_back({Slot.at(Phi.get()), Slot.at(In)});
    }
    E.NumMoves = static_cast<uint32_t>(Moves.size()) - E.MoveOff;
    if (Staging.size() < E.NumMoves)
      Staging.resize(E.NumMoves);
    Edges.push_back(E);
    return static_cast<uint32_t>(Edges.size() - 1);
  }

  //===--- Execution --------------------------------------------------------//

  /// Per-item state: the item's place in its group, fixed for the
  /// launch, and where its last phase stopped.
  struct ItemState {
    unsigned Lx = 0, Ly = 0, Wavefront = 0;
    uint32_t Pc = 0;
    StopReason Stop = StopReason::Returned;
  };

  Expected<SimReport> execute() {
    unsigned GroupsX = Global.X / Local.X;
    unsigned GroupsY = Global.Y / Local.Y;
    unsigned NumItems = Local.count();

    // One frame per item, kept across groups: SSA defines every result
    // before its use, so only the prefix needs values up front.
    Frames.assign(static_cast<size_t>(NumItems) * NumSlots, RtValue());
    for (unsigned Item = 0; Item < NumItems; ++Item)
      std::copy(Prefix.begin(), Prefix.end(),
                Frames.begin() + static_cast<ptrdiff_t>(Item) * NumSlots);
    PrivArena.assign(static_cast<size_t>(NumItems) * PrivateWords, 0);
    LocalArena.assign(LocalWords, 0);
    States.resize(NumItems);
    for (unsigned Item = 0; Item < NumItems; ++Item)
      States[Item] = {Item % Local.X, Item / Local.X,
                      Item / Device.WavefrontSize};
    GlobalExec.assign(static_cast<size_t>(NumItems) * NumGlobalStores, 0);
    LocalExec.assign(static_cast<size_t>(NumItems) * NumLocalOps, 0);
    Acct.beginLaunch(NumItems, NumLocalOps, Args, Buffers);

    Counters Totals;
    double SumCycles = 0, SumCompute = 0, SumMemory = 0;
    for (unsigned GY = 0; GY < GroupsY; ++GY) {
      for (unsigned GX = 0; GX < GroupsX; ++GX) {
        if (Error E = runGroup(GX, GY, NumItems))
          return E;
        Group.WorkGroups = 1;
        Group.WorkItems = NumItems;
        GroupCost Cost = costOfGroup(Group, Device);
        SumCycles += Cost.TotalCycles;
        SumCompute += Cost.ComputeCycles;
        SumMemory += Cost.MemoryCycles;
        Totals += Group;
        Group = Counters();
      }
    }
    return finalizeReport(Totals, SumCycles, SumCompute, SumMemory, Device);
  }

  Error runGroup(unsigned GX, unsigned GY, unsigned NumItems) {
    // Reset per-group state. The private arena must be re-zeroed too:
    // mem2reg rewrites loads of never-stored private scalars to zero on
    // the strength of the documented zero-fill, so stale values from the
    // previous group's items must not be observable.
    std::fill(PrivArena.begin(), PrivArena.end(), 0u);
    std::fill(LocalArena.begin(), LocalArena.end(), 0u);
    for (ItemState &S : States)
      S.Pc = 0;
    std::fill(GlobalExec.begin(), GlobalExec.end(), 0u);
    std::fill(LocalExec.begin(), LocalExec.end(), 0u);
    Acct.beginGroup();
    GroupX = GX;
    GroupY = GY;

    // Phases: every item runs to its next barrier or its return. A phase
    // that ends with both kinds of item is divergence, so each phase
    // runs every item.
    for (unsigned Stopped = NumItems; Stopped != 0;) {
      uint32_t BarrierPc = ~0u;
      unsigned Returned = 0;
      Stopped = 0;
      for (unsigned Item = 0; Item < NumItems; ++Item) {
        runItem(Item);
        if (Err)
          return std::move(*Err);
        const ItemState &S = States[Item];
        if (S.Stop != StopReason::Barrier) {
          ++Returned;
          continue;
        }
        if (BarrierPc == ~0u)
          BarrierPc = S.Pc;
        else if (BarrierPc != S.Pc)
          return makeError("kernel '%s': divergent barriers in work group "
                           "(%u,%u)",
                           F.name().c_str(), GX, GY);
        ++Stopped;
      }
      if (Stopped != 0 && Returned != 0)
        return makeError(
            "kernel '%s': barrier not reached by all items of group (%u,%u)",
            F.name().c_str(), GX, GY);
    }
    return Error::success();
  }

  //===--- Per-item interpreter loop ----------------------------------------//

  /// Ends \p Item's phase at \p Ip and charges its \p Alu ops to the
  /// group. Takes values, not references: nothing of the item loop's
  /// state may escape it.
  void stop(unsigned Item, const CInstr *Ip, uint64_t Alu, StopReason Why) {
    Group.AluOps += Alu;
    States[Item].Pc = static_cast<uint32_t>(Ip - Code.data());
    States[Item].Stop = Why;
  }

  /// As stop(), for a fault: the launch fails with its first \p Message.
  void fail(unsigned Item, const CInstr *Ip, uint64_t Alu,
            const std::string &Message) {
    if (!Err)
      Err = Error(Message);
    stop(Item, Ip, Alu, StopReason::Fault);
  }

  /// Takes edge \p EdgeIdx on frame \p R: its moves as one parallel copy
  /// (a phi may feed a sibling phi, so every source is read before any
  /// write). Returns the code index it jumps to. Phis cost nothing: real
  /// codegen coalesces them into the predecessors' register moves.
  uint32_t take(RtValue *R, uint32_t EdgeIdx) {
    const Edge &E = Edges[EdgeIdx];
    const Move *M = Moves.data() + E.MoveOff;
    RtValue *T = Staging.data();
    for (uint32_t K = 0; K < E.NumMoves; ++K)
      T[K] = R[M[K].Src];
    for (uint32_t K = 0; K < E.NumMoves; ++K)
      R[M[K].Dst] = T[K];
    return E.Target;
  }

  /// The text of a fault that names nothing but the kernel.
  std::string faultText(const char *What) const {
    return format("kernel '%s': %s", F.name().c_str(), What);
  }

  /// Runs \p Item from its saved pc to its next barrier, return or fault.
  ///
  /// Threaded dispatch: every handler ends by jumping straight to the next
  /// op's handler through a table of label addresses (labels as values, a
  /// GCC and Clang extension), with no trip back through a shared switch
  /// and its range check.
  void runItem(unsigned Item) {
    static const void *const Handlers[] = {
#define KPERF_OP_LABEL(Name, AluOps) &&Do##Name,
        KPERF_TREE_OPS(KPERF_OP_LABEL)
#undef KPERF_OP_LABEL
    };
    RtValue *R = Frames.data() + static_cast<size_t>(Item) * NumSlots;
    uint32_t *Priv =
        PrivArena.data() + static_cast<size_t>(Item) * PrivateWords;
    uint32_t *Lds = LocalArena.data();
    const CInstr *Prog = Code.data();
    const ItemState &S = States[Item];
    unsigned Lx = S.Lx, Ly = S.Ly, Wavefront = S.Wavefront;
    const CInstr *Ip = Prog + S.Pc;
    uint64_t Alu = 0;

    auto dim = [](int32_t D, unsigned X, unsigned Y) {
      return static_cast<int32_t>(D == 0 ? X : Y);
    };
    auto gep = [](RtValue P, const RtValue &Index) {
      P.Off = irns::wrapIntAdd(P.Off, Index.I);
      return P;
    };

    // Operand K and the result of the current op, addressed only by the
    // ops that use them. Macros, not lambdas: a lambda capturing Ip by
    // reference would keep Ip in memory rather than in a register.
#define VAL(K) R[Ip->Ops[K]]
#define OUT R[Ip->Result]

#define KPERF_DISPATCH() goto *Handlers[static_cast<unsigned>(Ip->Code)]
#define KPERF_NEXT()                                                           \
  do {                                                                         \
    ++Ip;                                                                      \
    KPERF_DISPATCH();                                                          \
  } while (false)
#define KPERF_OP(Name)                                                         \
  Do##Name:                                                                    \
  Alu += AluOpsOf[static_cast<unsigned>(Op::Name)];

    // The pointer of a load or store. A plain and a fused (gep folded in)
    // access set it, then share the access itself.
    RtValue P;

    KPERF_DISPATCH();

    KPERF_OP(Alloca)
    OUT.Base = 0;
    OUT.Off = static_cast<int32_t>(Ip->Imm);
    KPERF_NEXT();
    KPERF_OP(LoadGX)
    P = gep(VAL(0), VAL(1));
    goto LoadGAccess;
    KPERF_OP(LoadG)
    P = VAL(0);
  LoadGAccess : {
    const BufferData &Buf = *Buffers[P.Base];
    if (P.Off < 0 || static_cast<size_t>(P.Off) >= Buf.size())
      return fail(Item, Ip, Alu,
                  format("kernel '%s': global read out of bounds "
                         "(buffer %u, offset %d, size %zu)",
                         F.name().c_str(), P.Base, P.Off, Buf.size()));
    OUT.I = static_cast<int32_t>(Buf.word(static_cast<size_t>(P.Off)));
    ++Group.GlobalReads;
    Acct.noteRead(P.Base, static_cast<uint64_t>(P.Off), Wavefront);
  }
    KPERF_NEXT();
    KPERF_OP(LoadLX)
    P = gep(VAL(0), VAL(1));
    goto LoadLAccess;
    KPERF_OP(LoadL)
    P = VAL(0);
  LoadLAccess:
    if (P.Off < 0 || static_cast<uint32_t>(P.Off) >= LocalWords)
      return fail(Item, Ip, Alu,
                  format("kernel '%s': local read out of bounds "
                         "(offset %d, size %u words)",
                         F.name().c_str(), P.Off, LocalWords));
    OUT.I = static_cast<int32_t>(Lds[P.Off]);
    ++Group.LocalAccesses;
    Acct.noteLocal(Ip->Imm, nextExec(LocalExec, NumLocalOps, Item, Ip->Imm),
                   P.Off, Wavefront);
    KPERF_NEXT();
    KPERF_OP(LoadPX)
    P = gep(VAL(0), VAL(1));
    goto LoadPAccess;
    KPERF_OP(LoadP)
    P = VAL(0);
  LoadPAccess:
    if (P.Off < 0 || static_cast<uint32_t>(P.Off) >= PrivateWords)
      return fail(Item, Ip, Alu, faultText("private read out of bounds"));
    OUT.I = static_cast<int32_t>(Priv[P.Off]);
    ++Group.PrivateAccesses;
    KPERF_NEXT();
    KPERF_OP(StoreGX)
    P = gep(VAL(1), VAL(2));
    goto StoreGAccess;
    KPERF_OP(StoreG)
    P = VAL(1);
  StoreGAccess : {
    BufferData &Buf = *Buffers[P.Base];
    if (P.Off < 0 || static_cast<size_t>(P.Off) >= Buf.size())
      return fail(Item, Ip, Alu,
                  format("kernel '%s': global write out of bounds "
                         "(buffer %u, offset %d, size %zu)",
                         F.name().c_str(), P.Base, P.Off, Buf.size()));
    Buf.setWord(static_cast<size_t>(P.Off), static_cast<uint32_t>(VAL(0).I));
    ++Group.GlobalWrites;
    Acct.noteWrite(Ip->Imm,
                   nextExec(GlobalExec, NumGlobalStores, Item, Ip->Imm),
                   P.Base, static_cast<uint64_t>(P.Off), Wavefront);
  }
    KPERF_NEXT();
    KPERF_OP(StoreLX)
    P = gep(VAL(1), VAL(2));
    goto StoreLAccess;
    KPERF_OP(StoreL)
    P = VAL(1);
  StoreLAccess:
    if (P.Off < 0 || static_cast<uint32_t>(P.Off) >= LocalWords)
      return fail(Item, Ip, Alu,
                  format("kernel '%s': local write out of bounds "
                         "(offset %d, size %u words)",
                         F.name().c_str(), P.Off, LocalWords));
    Lds[P.Off] = static_cast<uint32_t>(VAL(0).I);
    ++Group.LocalAccesses;
    Acct.noteLocal(Ip->Imm, nextExec(LocalExec, NumLocalOps, Item, Ip->Imm),
                   P.Off, Wavefront);
    KPERF_NEXT();
    KPERF_OP(StorePX)
    P = gep(VAL(1), VAL(2));
    goto StorePAccess;
    KPERF_OP(StoreP)
    P = VAL(1);
  StorePAccess:
    if (P.Off < 0 || static_cast<uint32_t>(P.Off) >= PrivateWords)
      return fail(Item, Ip, Alu, faultText("private write out of bounds"));
    Priv[P.Off] = static_cast<uint32_t>(VAL(0).I);
    ++Group.PrivateAccesses;
    KPERF_NEXT();
    KPERF_OP(Gep)
    OUT = gep(VAL(0), VAL(1));
    KPERF_NEXT();
    KPERF_OP(AddI)
    OUT.I = irns::wrapIntAdd(VAL(0).I, VAL(1).I);
    KPERF_NEXT();
    KPERF_OP(SubI)
    OUT.I = irns::wrapIntSub(VAL(0).I, VAL(1).I);
    KPERF_NEXT();
    KPERF_OP(MulI)
    OUT.I = irns::wrapIntMul(VAL(0).I, VAL(1).I);
    KPERF_NEXT();
    KPERF_OP(MulAddI)
    OUT.I = irns::wrapIntAdd(irns::wrapIntMul(VAL(0).I, VAL(1).I), VAL(2).I);
    KPERF_NEXT();
    KPERF_OP(DivI)
    if (VAL(1).I == 0)
      return fail(Item, Ip, Alu, faultText("integer division by zero"));
    OUT.I = irns::wrapIntDiv(VAL(0).I, VAL(1).I);
    KPERF_NEXT();
    KPERF_OP(RemI)
    if (VAL(1).I == 0)
      return fail(Item, Ip, Alu, faultText("integer division by zero"));
    OUT.I = irns::wrapIntRem(VAL(0).I, VAL(1).I);
    KPERF_NEXT();
    KPERF_OP(AddF)
    OUT.F = VAL(0).F + VAL(1).F;
    KPERF_NEXT();
    KPERF_OP(SubF)
    OUT.F = VAL(0).F - VAL(1).F;
    KPERF_NEXT();
    KPERF_OP(MulF)
    OUT.F = VAL(0).F * VAL(1).F;
    KPERF_NEXT();
    KPERF_OP(MulAddF) {
      // Two roundings, as the unfused MulF and AddF (this file is built
      // without FMA contraction).
      float Product = VAL(0).F * VAL(1).F;
      OUT.F = Product + VAL(2).F;
    }
    KPERF_NEXT();
    KPERF_OP(DivF)
    OUT.F = VAL(0).F / VAL(1).F;
    KPERF_NEXT();
    KPERF_OP(RemF)
    OUT.F = 0; // Float remainder is not modeled.
    KPERF_NEXT();

    // Each compare, and the compare fused with the branch on it, which
    // reads its operands before the edge's moves may overwrite them.
#define KPERF_CMP(Name, Rel, Field)                                            \
  KPERF_OP(Name)                                                               \
  OUT.I = VAL(0).Field Rel VAL(1).Field;                                     \
  KPERF_NEXT();                                                                \
  KPERF_OP(Br##Name)                                                           \
  Ip = Prog + take(R, Ip->Edges[VAL(0).Field Rel VAL(1).Field ? 0 : 1]);       \
  KPERF_DISPATCH();
    KPERF_CMP(EqI, ==, I)
    KPERF_CMP(NeI, !=, I)
    KPERF_CMP(LtI, <, I)
    KPERF_CMP(LeI, <=, I)
    KPERF_CMP(GtI, >, I)
    KPERF_CMP(GeI, >=, I)
    KPERF_CMP(EqF, ==, F)
    KPERF_CMP(NeF, !=, F)
    KPERF_CMP(LtF, <, F)
    KPERF_CMP(LeF, <=, F)
    KPERF_CMP(GtF, >, F)
    KPERF_CMP(GeF, >=, F)
#undef KPERF_CMP

    KPERF_OP(And)
    OUT.I = VAL(0).I != 0 && VAL(1).I != 0;
    KPERF_NEXT();
    KPERF_OP(Or)
    OUT.I = VAL(0).I != 0 || VAL(1).I != 0;
    KPERF_NEXT();
    KPERF_OP(Not)
    OUT.I = VAL(0).I == 0;
    KPERF_NEXT();
    KPERF_OP(NegI)
    OUT.I = irns::wrapIntNeg(VAL(0).I);
    KPERF_NEXT();
    KPERF_OP(NegF)
    OUT.F = -VAL(0).F;
    KPERF_NEXT();
    KPERF_OP(IToF)
    OUT.F = static_cast<float>(VAL(0).I);
    KPERF_NEXT();
    KPERF_OP(FToI)
    OUT.I = irns::wrapFloatToInt(VAL(0).F);
    KPERF_NEXT();
    KPERF_OP(Select)
    OUT = VAL(0).I != 0 ? VAL(1) : VAL(2);
    KPERF_NEXT();
    KPERF_OP(GlobalId)
    OUT.I = dim(VAL(0).I, GroupX * Local.X + Lx, GroupY * Local.Y + Ly);
    KPERF_NEXT();
    KPERF_OP(LocalId)
    OUT.I = dim(VAL(0).I, Lx, Ly);
    KPERF_NEXT();
    KPERF_OP(GroupId)
    OUT.I = dim(VAL(0).I, GroupX, GroupY);
    KPERF_NEXT();
    KPERF_OP(LocalSize)
    OUT.I = dim(VAL(0).I, Local.X, Local.Y);
    KPERF_NEXT();
    KPERF_OP(GlobalSize)
    OUT.I = dim(VAL(0).I, Global.X, Global.Y);
    KPERF_NEXT();
    KPERF_OP(NumGroups)
    OUT.I = dim(VAL(0).I, Global.X / Local.X, Global.Y / Local.Y);
    KPERF_NEXT();
    KPERF_OP(Barrier)
    ++Group.Barriers;
    return stop(Item, Ip + 1, Alu, StopReason::Barrier);
    KPERF_OP(MinI)
    OUT.I = std::min(VAL(0).I, VAL(1).I);
    KPERF_NEXT();
    KPERF_OP(MinF)
    OUT.F = std::min(VAL(0).F, VAL(1).F);
    KPERF_NEXT();
    KPERF_OP(MaxI)
    OUT.I = std::max(VAL(0).I, VAL(1).I);
    KPERF_NEXT();
    KPERF_OP(MaxF)
    OUT.F = std::max(VAL(0).F, VAL(1).F);
    KPERF_NEXT();
    KPERF_OP(ClampI)
    OUT.I = std::min(std::max(VAL(0).I, VAL(1).I), VAL(2).I);
    KPERF_NEXT();
    KPERF_OP(ClampF)
    OUT.F = std::min(std::max(VAL(0).F, VAL(1).F), VAL(2).F);
    KPERF_NEXT();
    KPERF_OP(AbsI)
    OUT.I = irns::wrapIntAbs(VAL(0).I);
    KPERF_NEXT();
    KPERF_OP(AbsF)
    OUT.F = std::fabs(VAL(0).F);
    KPERF_NEXT();
    KPERF_OP(Sqrt)
    OUT.F = std::sqrt(VAL(0).F);
    KPERF_NEXT();
    KPERF_OP(Exp)
    OUT.F = std::exp(VAL(0).F);
    KPERF_NEXT();
    KPERF_OP(Log)
    OUT.F = std::log(VAL(0).F);
    KPERF_NEXT();
    KPERF_OP(Pow)
    OUT.F = std::pow(VAL(0).F, VAL(1).F);
    KPERF_NEXT();
    KPERF_OP(Floor)
    OUT.F = std::floor(VAL(0).F);
    KPERF_NEXT();
    KPERF_OP(Br)
    Ip = Prog + take(R, Ip->Edges[0]);
    KPERF_DISPATCH();
    KPERF_OP(CondBr)
    Ip = Prog + take(R, Ip->Edges[VAL(0).I != 0 ? 0 : 1]);
    KPERF_DISPATCH();
    KPERF_OP(Ret)
    return stop(Item, Ip, Alu, StopReason::Returned);
    KPERF_OP(Phi)
    return fail(Item, Ip, Alu,
                faultText("phi has no incoming value for the executed edge"));
#undef KPERF_OP
#undef KPERF_NEXT
#undef KPERF_DISPATCH
#undef OUT
#undef VAL
  }

  /// The next execution instance of \p Item of op \p OpId, in a table of
  /// \p NumOps counters per item.
  static uint32_t nextExec(std::vector<uint32_t> &Table, uint32_t NumOps,
                           unsigned Item, uint32_t OpId) {
    return Table[static_cast<size_t>(Item) * NumOps + OpId]++;
  }

  //===--- Members -----------------------------------------------------------//

  const irns::Function &F;
  Range2 Global, Local;
  const std::vector<KernelArg> &Args;
  std::vector<BufferData *> Buffers;
  const DeviceConfig &Device;

  std::unordered_map<const irns::Value *, uint32_t> Slot;
  uint32_t NumSlots = 0;    ///< Frame size.
  std::vector<RtValue> Prefix; ///< Frame prefix: scratch, args, constants.
  uint32_t LocalWords = 0;
  uint32_t PrivateWords = 0;
  uint32_t NumGlobalStores = 0;
  uint32_t NumLocalOps = 0;
  std::vector<CInstr> Code;
  std::vector<Edge> Edges;
  std::vector<Move> Moves;
  uint32_t FaultPc = 0; ///< The trailing Phi op, after every instruction.
  std::vector<RtValue> Staging; ///< Parallel-copy buffer of the widest edge.

  std::vector<RtValue> Frames;
  std::vector<uint32_t> PrivArena;
  std::vector<uint32_t> LocalArena;
  std::vector<ItemState> States;
  /// Per-item exec instance counters, [item*ops+op]; global reads need
  /// none (their accounting key has no exec instance).
  std::vector<uint32_t> GlobalExec;
  std::vector<uint32_t> LocalExec;

  unsigned GroupX = 0, GroupY = 0;
  Counters Group;
  MemAccounting Acct;
  std::optional<Error> Err;
};

} // namespace

Expected<SimReport> sim::launchKernel(const ir::Function &F, Range2 Global,
                                      Range2 Local,
                                      const std::vector<KernelArg> &Args,
                                      std::vector<BufferData> &Buffers,
                                      const DeviceConfig &Device) {
  std::vector<BufferData *> Bank;
  Bank.reserve(Buffers.size());
  for (BufferData &B : Buffers)
    Bank.push_back(&B);
  return Executor(F, Global, Local, Args, std::move(Bank), Device).run();
}

Expected<SimReport> sim::launchKernel(const ir::Function &F, Range2 Global,
                                      Range2 Local,
                                      const std::vector<KernelArg> &Args,
                                      const std::vector<BufferData *> &Buffers,
                                      const DeviceConfig &Device) {
  return Executor(F, Global, Local, Args, Buffers, Device).run();
}
