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

/// Typed operations. Every IR instruction lowers to exactly one, which
/// already encodes its operand kind (I/F), address space (G/L/P) or
/// builtin, so the item loop dispatches once per instruction. The
/// families familyOp() maps keep the order of their IR enumerators.
enum class Op : uint8_t {
  Alloca, ///< Pointer at arena word offset Imm.
  LoadP, LoadL, LoadG, // Families in ir::AddressSpace order.
  StoreP, StoreL, StoreG,
  Gep,
  AddI, SubI, MulI, DivI, RemI,
  AddF, SubF, MulF, DivF, RemF,
  EqI, NeI, LtI, LeI, GtI, GeI,
  EqF, NeF, LtF, LeF, GtF, GeF,
  And, Or, Not,
  NegI, NegF,
  IToF, FToI,
  Select,
  GlobalId, LocalId, GroupId, LocalSize, GlobalSize, NumGroups,
  Barrier,
  MinI, MinF, MaxI, MaxF,
  ClampI, ClampF,
  AbsI, AbsF,
  Sqrt, Exp, Log, Pow, // Transcendentals: 4 AluOps each.
  Floor,
  Br, CondBr, Ret,
  Phi, ///< Reached only without an edge (phis run on edges): faults.
};

/// The member of a typed-op family for IR enumerator \p E, where the
/// family starts with \p First for enumerator \p FirstE.
template <typename IREnum> Op familyOp(Op First, IREnum FirstE, IREnum E) {
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
            span(irns::Builtin::Sqrt, irns::Builtin::Floor),
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

/// A lowered instruction: its typed op, with operand and result slots
/// resolved to frame indices (slot 0 where it has none).
struct CInstr {
  Op Code = Op::Ret;
  uint8_t Alu = 0; ///< AluOps it charges (transcendentals cost 4).
  uint32_t Result = 0;
  uint32_t Ops[3] = {0, 0, 0};
  /// Alloca: arena offset in words. LoadL/StoreL: dense id among local
  /// accesses; StoreG: among global stores (their accounting groups).
  uint32_t Imm = 0;
  uint32_t Edges[2] = {0, 0}; ///< Br/CondBr: index into the edge table.
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

    // Branch targets point past their block's leading phis.
    BlockMap BodyStart;
    uint32_t Index = 0;
    for (const auto &BB : F.blocks()) {
      BodyStart[BB.get()] =
          Index + static_cast<uint32_t>(BB->firstNonPhiIndex());
      Index += static_cast<uint32_t>(BB->size());
      for (const auto &I : BB->instructions())
        if (!I->type().isVoid())
          Slot[I.get()] = NumSlots++;
    }
    FaultPc = Index;
    Code.reserve(Index + 1);
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions())
        Code.push_back(lower(*I, BodyStart));
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
    C.Alu = 1;

    switch (I.opcode()) {
    case irns::Opcode::Alloca:
      C.Code = Op::Alloca;
      C.Alu = 0;
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
      C.Alu = 0;
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
      // Transcendentals cost more than simple ALU operations.
      if (C.Code == Op::Barrier)
        C.Alu = 0;
      else if (C.Code >= Op::Sqrt && C.Code <= Op::Pow)
        C.Alu = 4;
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
      C.Alu = 0;
      break;
    case irns::Opcode::Phi:
      break; // Lowered above.
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
  void runItem(unsigned Item) {
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

    while (true) {
      const CInstr &C = *Ip;
      // Operand and result slots, addressed only by the ops that use them.
      auto val = [&](unsigned K) -> const RtValue & { return R[C.Ops[K]]; };
      auto out = [&]() -> RtValue & { return R[C.Result]; };
      Alu += C.Alu;
      switch (C.Code) {
      case Op::Alloca:
        out().Base = 0;
        out().Off = static_cast<int32_t>(C.Imm);
        break;
      case Op::LoadG: {
        RtValue P = val(0);
        const BufferData &Buf = *Buffers[P.Base];
        if (P.Off < 0 || static_cast<size_t>(P.Off) >= Buf.size())
          return fail(Item, Ip, Alu,
                      format("kernel '%s': global read out of bounds "
                             "(buffer %u, offset %d, size %zu)",
                             F.name().c_str(), P.Base, P.Off, Buf.size()));
        out().I = static_cast<int32_t>(Buf.word(static_cast<size_t>(P.Off)));
        ++Group.GlobalReads;
        Acct.noteRead(P.Base, static_cast<uint64_t>(P.Off), Wavefront);
        break;
      }
      case Op::LoadL: {
        int32_t Off = val(0).Off;
        if (Off < 0 || static_cast<uint32_t>(Off) >= LocalWords)
          return fail(Item, Ip, Alu,
                      format("kernel '%s': local read out of bounds "
                             "(offset %d, size %u words)",
                             F.name().c_str(), Off, LocalWords));
        out().I = static_cast<int32_t>(Lds[Off]);
        ++Group.LocalAccesses;
        Acct.noteLocal(C.Imm, nextExec(LocalExec, NumLocalOps, Item, C.Imm),
                       Off, Wavefront);
        break;
      }
      case Op::LoadP: {
        int32_t Off = val(0).Off;
        if (Off < 0 || static_cast<uint32_t>(Off) >= PrivateWords)
          return fail(Item, Ip, Alu, faultText("private read out of bounds"));
        out().I = static_cast<int32_t>(Priv[Off]);
        ++Group.PrivateAccesses;
        break;
      }
      case Op::StoreG: {
        RtValue P = val(1);
        BufferData &Buf = *Buffers[P.Base];
        if (P.Off < 0 || static_cast<size_t>(P.Off) >= Buf.size())
          return fail(Item, Ip, Alu,
                      format("kernel '%s': global write out of bounds "
                             "(buffer %u, offset %d, size %zu)",
                             F.name().c_str(), P.Base, P.Off, Buf.size()));
        Buf.setWord(static_cast<size_t>(P.Off),
                    static_cast<uint32_t>(val(0).I));
        ++Group.GlobalWrites;
        Acct.noteWrite(C.Imm,
                       nextExec(GlobalExec, NumGlobalStores, Item, C.Imm),
                       P.Base, static_cast<uint64_t>(P.Off), Wavefront);
        break;
      }
      case Op::StoreL: {
        int32_t Off = val(1).Off;
        if (Off < 0 || static_cast<uint32_t>(Off) >= LocalWords)
          return fail(Item, Ip, Alu,
                      format("kernel '%s': local write out of bounds "
                             "(offset %d, size %u words)",
                             F.name().c_str(), Off, LocalWords));
        Lds[Off] = static_cast<uint32_t>(val(0).I);
        ++Group.LocalAccesses;
        Acct.noteLocal(C.Imm, nextExec(LocalExec, NumLocalOps, Item, C.Imm),
                       Off, Wavefront);
        break;
      }
      case Op::StoreP: {
        int32_t Off = val(1).Off;
        if (Off < 0 || static_cast<uint32_t>(Off) >= PrivateWords)
          return fail(Item, Ip, Alu, faultText("private write out of bounds"));
        Priv[Off] = static_cast<uint32_t>(val(0).I);
        ++Group.PrivateAccesses;
        break;
      }
      case Op::Gep: {
        RtValue P = val(0);
        P.Off += val(1).I;
        out() = P;
        break;
      }
      case Op::AddI:
        out().I = val(0).I + val(1).I;
        break;
      case Op::SubI:
        out().I = val(0).I - val(1).I;
        break;
      case Op::MulI:
        out().I = val(0).I * val(1).I;
        break;
      case Op::DivI:
        if (val(1).I == 0)
          return fail(Item, Ip, Alu, faultText("integer division by zero"));
        out().I = irns::wrapIntDiv(val(0).I, val(1).I);
        break;
      case Op::RemI:
        if (val(1).I == 0)
          return fail(Item, Ip, Alu, faultText("integer division by zero"));
        out().I = irns::wrapIntRem(val(0).I, val(1).I);
        break;
      case Op::AddF:
        out().F = val(0).F + val(1).F;
        break;
      case Op::SubF:
        out().F = val(0).F - val(1).F;
        break;
      case Op::MulF:
        out().F = val(0).F * val(1).F;
        break;
      case Op::DivF:
        out().F = val(0).F / val(1).F;
        break;
      case Op::RemF:
        out().F = 0; // Float remainder is not modeled.
        break;
      case Op::EqI:
        out().I = val(0).I == val(1).I;
        break;
      case Op::NeI:
        out().I = val(0).I != val(1).I;
        break;
      case Op::LtI:
        out().I = val(0).I < val(1).I;
        break;
      case Op::LeI:
        out().I = val(0).I <= val(1).I;
        break;
      case Op::GtI:
        out().I = val(0).I > val(1).I;
        break;
      case Op::GeI:
        out().I = val(0).I >= val(1).I;
        break;
      case Op::EqF:
        out().I = val(0).F == val(1).F;
        break;
      case Op::NeF:
        out().I = val(0).F != val(1).F;
        break;
      case Op::LtF:
        out().I = val(0).F < val(1).F;
        break;
      case Op::LeF:
        out().I = val(0).F <= val(1).F;
        break;
      case Op::GtF:
        out().I = val(0).F > val(1).F;
        break;
      case Op::GeF:
        out().I = val(0).F >= val(1).F;
        break;
      case Op::And:
        out().I = val(0).I != 0 && val(1).I != 0;
        break;
      case Op::Or:
        out().I = val(0).I != 0 || val(1).I != 0;
        break;
      case Op::Not:
        out().I = val(0).I == 0;
        break;
      case Op::NegI:
        out().I = -val(0).I;
        break;
      case Op::NegF:
        out().F = -val(0).F;
        break;
      case Op::IToF:
        out().F = static_cast<float>(val(0).I);
        break;
      case Op::FToI:
        out().I = static_cast<int32_t>(val(0).F);
        break;
      case Op::Select:
        out() = val(0).I != 0 ? val(1) : val(2);
        break;
      case Op::GlobalId:
        out().I = dim(val(0).I, GroupX * Local.X + Lx, GroupY * Local.Y + Ly);
        break;
      case Op::LocalId:
        out().I = dim(val(0).I, Lx, Ly);
        break;
      case Op::GroupId:
        out().I = dim(val(0).I, GroupX, GroupY);
        break;
      case Op::LocalSize:
        out().I = dim(val(0).I, Local.X, Local.Y);
        break;
      case Op::GlobalSize:
        out().I = dim(val(0).I, Global.X, Global.Y);
        break;
      case Op::NumGroups:
        out().I = dim(val(0).I, Global.X / Local.X, Global.Y / Local.Y);
        break;
      case Op::Barrier:
        ++Group.Barriers;
        return stop(Item, Ip + 1, Alu, StopReason::Barrier);
      case Op::MinI:
        out().I = std::min(val(0).I, val(1).I);
        break;
      case Op::MinF:
        out().F = std::min(val(0).F, val(1).F);
        break;
      case Op::MaxI:
        out().I = std::max(val(0).I, val(1).I);
        break;
      case Op::MaxF:
        out().F = std::max(val(0).F, val(1).F);
        break;
      case Op::ClampI:
        out().I = std::min(std::max(val(0).I, val(1).I), val(2).I);
        break;
      case Op::ClampF:
        out().F = std::min(std::max(val(0).F, val(1).F), val(2).F);
        break;
      case Op::AbsI:
        out().I = std::abs(val(0).I);
        break;
      case Op::AbsF:
        out().F = std::fabs(val(0).F);
        break;
      case Op::Sqrt:
        out().F = std::sqrt(val(0).F);
        break;
      case Op::Exp:
        out().F = std::exp(val(0).F);
        break;
      case Op::Log:
        out().F = std::log(val(0).F);
        break;
      case Op::Pow:
        out().F = std::pow(val(0).F, val(1).F);
        break;
      case Op::Floor:
        out().F = std::floor(val(0).F);
        break;
      case Op::Br:
        Ip = Prog + take(R, C.Edges[0]);
        continue;
      case Op::CondBr:
        Ip = Prog + take(R, C.Edges[val(0).I != 0 ? 0 : 1]);
        continue;
      case Op::Ret:
        return stop(Item, Ip, Alu, StopReason::Returned);
      case Op::Phi:
        return fail(Item, Ip, Alu,
                    faultText("phi has no incoming value for the executed "
                              "edge"));
      }
      ++Ip;
    }
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
