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

#include <cmath>
#include <cstring>
#include <unordered_map>

using namespace kperf;
using namespace kperf::sim;
namespace irns = kperf::ir;

namespace {

constexpr uint32_t NoSlot = ~0u;

/// Runtime value: scalar payload plus pointer payload (space/base/offset).
/// The statically known IR type selects which fields are meaningful.
struct RtValue {
  union {
    int32_t I;
    float F;
  };
  uint8_t Space = 0;  ///< ir::AddressSpace for pointers.
  uint32_t Base = 0;  ///< Buffer index for global pointers.
  int32_t Off = 0;    ///< Element offset.

  RtValue() : I(0) {}
};

/// A pre-lowered instruction: operand slots resolved, branch targets
/// resolved to code indices, global stores and local accesses numbered
/// for their accounting groups.
struct CInstr {
  irns::Opcode Op;
  irns::Builtin Callee = irns::Builtin::Barrier;
  uint32_t Result = NoSlot;
  uint32_t Ops[3] = {NoSlot, NoSlot, NoSlot};
  uint8_t NumOps = 0;
  uint32_t Target0 = 0; ///< Code index (Br/CondBr).
  uint32_t Target1 = 0;
  /// Phi: [PhiOff, PhiOff+PhiCount) indexes the executor's shared
  /// (predecessor block start index, value slot) pool. Phis take
  /// arbitrarily many operands, so they bypass Ops[]; an out-of-line
  /// pool keeps CInstr compact for the per-instruction dispatch loop.
  uint32_t PhiOff = 0;
  uint32_t PhiCount = 0;
  uint8_t Space = 0;      ///< Alloca / memory-op address space.
  uint32_t ArenaOff = 0;  ///< Alloca arena offset in words.
  uint32_t MemOpId = 0;   ///< Dense id among global stores (or local ops).
  bool ResultIsFloat = false; ///< Load: pointee kind.
  bool OperandIsFloat = false; ///< Arithmetic/builtin: float variant.
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
  //===--- Compilation to the flat form ------------------------------------//

  Error compile() {
    // Slot assignment: arguments, then constants, then instruction results.
    for (unsigned I = 0; I < F.numArguments(); ++I)
      Slot[F.argument(I)] = NextSlot++;

    // Walk operands to intern constants; assign instruction result slots.
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions())
        for (irns::Value *Op : I->operands())
          if (irns::isConstant(Op) && !Slot.count(Op))
            Slot[Op] = NextSlot++;
    SharedSlots = NextSlot;
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions())
        if (!I->type().isVoid())
          Slot[I.get()] = NextSlot++;

    // Arena layout for allocas.
    for (const auto &BB : F.blocks()) {
      for (const auto &I : BB->instructions()) {
        if (I->opcode() != irns::Opcode::Alloca)
          continue;
        if (I->allocaSpace() == irns::AddressSpace::Local) {
          LocalArenaOff[I.get()] = LocalWords;
          LocalWords += I->allocaCount();
        } else {
          PrivateArenaOff[I.get()] = PrivateWords;
          PrivateWords += I->allocaCount();
        }
      }
    }
    if (LocalWords * 4 > Device.LocalMemBytes)
      return makeError("launch: kernel '%s' needs %u bytes of local memory, "
                       "device provides %u",
                       F.name().c_str(), LocalWords * 4,
                       Device.LocalMemBytes);

    // Flatten blocks.
    std::unordered_map<const irns::BasicBlock *, uint32_t> BlockStart;
    uint32_t Index = 0;
    for (const auto &BB : F.blocks()) {
      BlockStart[BB.get()] = Index;
      Index += static_cast<uint32_t>(BB->size());
    }
    Code.reserve(Index);
    BlockOfPc.reserve(Index);
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions()) {
        Code.push_back(lower(*I, BlockStart));
        BlockOfPc.push_back(BlockStart.at(BB.get()));
      }
    return Error::success();
  }

  CInstr lower(const irns::Instruction &I,
               const std::unordered_map<const irns::BasicBlock *, uint32_t>
                   &BlockStart) {
    CInstr C;
    C.Op = I.opcode();
    if (I.opcode() == irns::Opcode::Phi) {
      // Phis take one operand per predecessor edge; they live in the
      // shared (pred block, slot) pool instead of the fixed Ops[] array.
      C.Result = Slot.at(&I);
      C.PhiOff = static_cast<uint32_t>(PhiPool.size());
      C.PhiCount = I.numIncoming();
      for (unsigned OI = 0; OI < I.numIncoming(); ++OI)
        PhiPool.emplace_back(BlockStart.at(I.incomingBlock(OI)),
                             Slot.at(I.operand(OI)));
      return C;
    }
    C.NumOps = static_cast<uint8_t>(I.numOperands());
    assert(C.NumOps <= 3 && "instruction with more than 3 operands");
    for (unsigned OI = 0; OI < I.numOperands(); ++OI) {
      auto It = Slot.find(I.operand(OI));
      assert(It != Slot.end() && "operand without slot");
      C.Ops[OI] = It->second;
    }
    if (!I.type().isVoid())
      C.Result = Slot.at(&I);

    switch (I.opcode()) {
    case irns::Opcode::Alloca:
      C.Space = static_cast<uint8_t>(I.allocaSpace());
      C.ArenaOff = I.allocaSpace() == irns::AddressSpace::Local
                       ? LocalArenaOff.at(&I)
                       : PrivateArenaOff.at(&I);
      break;
    case irns::Opcode::Load: {
      irns::Type PtrTy = I.operand(0)->type();
      C.Space = static_cast<uint8_t>(PtrTy.addressSpace());
      C.ResultIsFloat = I.type().isFloat();
      if (PtrTy.addressSpace() == irns::AddressSpace::Local)
        C.MemOpId = NumLocalOps++;
      break;
    }
    case irns::Opcode::Store: {
      irns::Type PtrTy = I.operand(1)->type();
      C.Space = static_cast<uint8_t>(PtrTy.addressSpace());
      C.OperandIsFloat = I.operand(0)->type().isFloat();
      if (PtrTy.addressSpace() == irns::AddressSpace::Global)
        C.MemOpId = NumGlobalStores++;
      else if (PtrTy.addressSpace() == irns::AddressSpace::Local)
        C.MemOpId = NumLocalOps++;
      break;
    }
    case irns::Opcode::Br:
      C.Target0 = BlockStart.at(I.branchTarget(0));
      break;
    case irns::Opcode::CondBr:
      C.Target0 = BlockStart.at(I.branchTarget(0));
      C.Target1 = BlockStart.at(I.branchTarget(1));
      break;
    case irns::Opcode::Call:
      C.Callee = I.callee();
      C.OperandIsFloat =
          I.numOperands() > 0 && I.operand(0)->type().isFloat();
      break;
    default:
      C.OperandIsFloat =
          I.numOperands() > 0 && I.operand(0)->type().isFloat();
      break;
    }
    return C;
  }

  //===--- Execution --------------------------------------------------------//

  /// Per-item resumable state.
  struct ItemState {
    uint32_t Pc = 0;
    /// Start index of the most recently exited block; selects phi
    /// incoming values. Survives barrier suspension (a barrier and the
    /// phis after it can share a block's successor chain).
    uint32_t PrevBlock = ~0u;
    StopReason Stop = StopReason::Returned;
  };

  Expected<SimReport> execute() {
    // Populate shared slots: arguments and constants.
    SharedVals.resize(SharedSlots);
    for (const auto &[V, S] : Slot) {
      if (S >= SharedSlots)
        continue;
      RtValue &RV = SharedVals[S];
      if (const auto *A = irns::dyn_cast<irns::Argument>(V)) {
        const KernelArg &Arg = Args[A->index()];
        switch (Arg.K) {
        case KernelArg::Kind::Int:
          RV.I = Arg.I;
          break;
        case KernelArg::Kind::Float:
          RV.F = Arg.F;
          break;
        case KernelArg::Kind::Buffer:
          RV.Space = static_cast<uint8_t>(irns::AddressSpace::Global);
          RV.Base = Arg.BufferIndex;
          RV.Off = 0;
          break;
        }
      } else if (const auto *CI = irns::dyn_cast<irns::ConstantInt>(V)) {
        RV.I = CI->value();
      } else if (const auto *CF = irns::dyn_cast<irns::ConstantFloat>(V)) {
        RV.F = CF->value();
      } else if (const auto *CB = irns::dyn_cast<irns::ConstantBool>(V)) {
        RV.I = CB->value() ? 1 : 0;
      }
    }

    unsigned GroupsX = Global.X / Local.X;
    unsigned GroupsY = Global.Y / Local.Y;
    unsigned NumItems = Local.count();
    unsigned RegSlots = NextSlot - SharedSlots;

    Regs.assign(static_cast<size_t>(NumItems) * RegSlots, RtValue());
    PrivArena.assign(static_cast<size_t>(NumItems) * PrivateWords, 0);
    LocalArena.assign(LocalWords, 0);
    States.assign(NumItems, ItemState());
    GlobalExec.assign(static_cast<size_t>(NumItems) * NumGlobalStores, 0);
    LocalExec.assign(static_cast<size_t>(NumItems) * NumLocalOps, 0);
    Acct.beginLaunch(NumItems, NumLocalOps, Args, Buffers);

    Counters Totals;
    double SumCycles = 0, SumCompute = 0, SumMemory = 0;

    for (unsigned GY = 0; GY < GroupsY && !Err; ++GY) {
      for (unsigned GX = 0; GX < GroupsX && !Err; ++GX) {
        if (Error E = runGroup(GX, GY, NumItems, RegSlots))
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
    if (Err)
      return std::move(*Err);
    return finalizeReport(Totals, SumCycles, SumCompute, SumMemory, Device);
  }

  Error runGroup(unsigned GX, unsigned GY, unsigned NumItems,
                 unsigned RegSlots) {
    // Reset per-group state. The private arena must be re-zeroed too:
    // mem2reg rewrites loads of never-stored private scalars to zero on
    // the strength of the documented zero-fill, so stale values from the
    // previous group's items must not be observable.
    std::fill(PrivArena.begin(), PrivArena.end(), 0u);
    std::fill(LocalArena.begin(), LocalArena.end(), 0u);
    std::fill(States.begin(), States.end(), ItemState());
    std::fill(GlobalExec.begin(), GlobalExec.end(), 0u);
    std::fill(LocalExec.begin(), LocalExec.end(), 0u);
    Acct.beginGroup();
    GroupX = GX;
    GroupY = GY;

    unsigned Alive = NumItems;
    bool First = true;
    while (Alive > 0) {
      uint32_t BarrierPc = ~0u;
      unsigned Stopped = 0, Returned = 0;
      for (unsigned Item = 0; Item < NumItems; ++Item) {
        ItemState &S = States[Item];
        if (!First && S.Stop == StopReason::Returned)
          continue;
        runItem(Item, RegSlots);
        if (Err)
          return std::move(*Err);
        if (States[Item].Stop == StopReason::Barrier) {
          if (BarrierPc == ~0u)
            BarrierPc = States[Item].Pc;
          else if (BarrierPc != States[Item].Pc)
            return makeError("kernel '%s': divergent barriers in work group "
                             "(%u,%u)",
                             F.name().c_str(), GX, GY);
          ++Stopped;
        } else {
          ++Returned;
        }
      }
      if (Stopped != 0 && Returned != 0 && !First)
        return makeError(
            "kernel '%s': barrier not reached by all items of group (%u,%u)",
            F.name().c_str(), GX, GY);
      if (Stopped != 0 && Returned != 0 && First) {
        // On the first phase every item starts, so a mix means divergence.
        return makeError(
            "kernel '%s': barrier not reached by all items of group (%u,%u)",
            F.name().c_str(), GX, GY);
      }
      Alive = Stopped;
      First = false;
    }
    return Error::success();
  }

  //===--- Per-item interpreter loop ----------------------------------------//

  void fault(const std::string &Message) {
    if (!Err)
      Err = Error(Message);
  }

  void runItem(unsigned Item, unsigned RegSlots) {
    RtValue *R = Regs.data() + static_cast<size_t>(Item) * RegSlots;
    uint32_t *Priv = PrivateWords
                         ? PrivArena.data() +
                               static_cast<size_t>(Item) * PrivateWords
                         : nullptr;
    unsigned Lx = Item % Local.X;
    unsigned Ly = Item / Local.X;
    unsigned Wavefront = Item / Device.WavefrontSize;
    uint32_t Pc = States[Item].Pc;
    uint32_t PrevBlock = States[Item].PrevBlock;

    auto val = [&](uint32_t S) -> const RtValue & {
      return S < SharedSlots ? SharedVals[S] : R[S - SharedSlots];
    };
    auto out = [&](uint32_t S) -> RtValue & {
      assert(S >= SharedSlots && "write to shared slot");
      return R[S - SharedSlots];
    };

    while (true) {
      const CInstr &C = Code[Pc];
      switch (C.Op) {
      case irns::Opcode::Alloca: {
        RtValue &RV = out(C.Result);
        RV.Space = C.Space;
        RV.Base = 0;
        RV.Off = static_cast<int32_t>(C.ArenaOff);
        break;
      }
      case irns::Opcode::Load: {
        const RtValue &P = val(C.Ops[0]);
        RtValue &RV = out(C.Result);
        switch (static_cast<irns::AddressSpace>(C.Space)) {
        case irns::AddressSpace::Global: {
          const BufferData &B = *Buffers[P.Base];
          if (P.Off < 0 || static_cast<size_t>(P.Off) >= B.size()) {
            fault(format("kernel '%s': global read out of bounds (buffer "
                         "%u, offset %d, size %zu)",
                         F.name().c_str(), P.Base, P.Off, B.size()));
            States[Item].Stop = StopReason::Fault;
            return;
          }
          RV.I = static_cast<int32_t>(B.word(static_cast<size_t>(P.Off)));
          ++Group.GlobalReads;
          Acct.noteRead(P.Base, static_cast<uint64_t>(P.Off), Wavefront);
          break;
        }
        case irns::AddressSpace::Local: {
          if (P.Off < 0 || static_cast<uint32_t>(P.Off) >= LocalWords) {
            fault(format("kernel '%s': local read out of bounds (offset %d, "
                         "size %u words)",
                         F.name().c_str(), P.Off, LocalWords));
            States[Item].Stop = StopReason::Fault;
            return;
          }
          RV.I = static_cast<int32_t>(LocalArena[P.Off]);
          ++Group.LocalAccesses;
          Acct.noteLocal(C.MemOpId,
                         nextExec(LocalExec, NumLocalOps, Item, C.MemOpId),
                         P.Off, Wavefront);
          break;
        }
        case irns::AddressSpace::Private: {
          if (P.Off < 0 || static_cast<uint32_t>(P.Off) >= PrivateWords) {
            fault(format("kernel '%s': private read out of bounds",
                         F.name().c_str()));
            States[Item].Stop = StopReason::Fault;
            return;
          }
          RV.I = static_cast<int32_t>(Priv[P.Off]);
          ++Group.PrivateAccesses;
          break;
        }
        }
        break;
      }
      case irns::Opcode::Store: {
        const RtValue &V = val(C.Ops[0]);
        const RtValue &P = val(C.Ops[1]);
        uint32_t Word = static_cast<uint32_t>(V.I);
        switch (static_cast<irns::AddressSpace>(C.Space)) {
        case irns::AddressSpace::Global: {
          BufferData &B = *Buffers[P.Base];
          if (P.Off < 0 || static_cast<size_t>(P.Off) >= B.size()) {
            fault(format("kernel '%s': global write out of bounds (buffer "
                         "%u, offset %d, size %zu)",
                         F.name().c_str(), P.Base, P.Off, B.size()));
            States[Item].Stop = StopReason::Fault;
            return;
          }
          B.setWord(static_cast<size_t>(P.Off), Word);
          ++Group.GlobalWrites;
          Acct.noteWrite(C.MemOpId,
                         nextExec(GlobalExec, NumGlobalStores, Item, C.MemOpId),
                         P.Base, static_cast<uint64_t>(P.Off), Wavefront);
          break;
        }
        case irns::AddressSpace::Local: {
          if (P.Off < 0 || static_cast<uint32_t>(P.Off) >= LocalWords) {
            fault(format("kernel '%s': local write out of bounds (offset "
                         "%d, size %u words)",
                         F.name().c_str(), P.Off, LocalWords));
            States[Item].Stop = StopReason::Fault;
            return;
          }
          LocalArena[P.Off] = Word;
          ++Group.LocalAccesses;
          Acct.noteLocal(C.MemOpId,
                         nextExec(LocalExec, NumLocalOps, Item, C.MemOpId),
                         P.Off, Wavefront);
          break;
        }
        case irns::AddressSpace::Private: {
          if (P.Off < 0 || static_cast<uint32_t>(P.Off) >= PrivateWords) {
            fault(format("kernel '%s': private write out of bounds",
                         F.name().c_str()));
            States[Item].Stop = StopReason::Fault;
            return;
          }
          Priv[P.Off] = Word;
          ++Group.PrivateAccesses;
          break;
        }
        }
        break;
      }
      case irns::Opcode::Gep: {
        const RtValue &P = val(C.Ops[0]);
        RtValue &RV = out(C.Result);
        RV.Space = P.Space;
        RV.Base = P.Base;
        RV.Off = P.Off + val(C.Ops[1]).I;
        ++Group.AluOps;
        break;
      }
      case irns::Opcode::Add:
      case irns::Opcode::Sub:
      case irns::Opcode::Mul:
      case irns::Opcode::Div:
      case irns::Opcode::Rem: {
        const RtValue &L = val(C.Ops[0]);
        const RtValue &Rv = val(C.Ops[1]);
        RtValue &RV = out(C.Result);
        ++Group.AluOps;
        if (C.OperandIsFloat) {
          switch (C.Op) {
          case irns::Opcode::Add:
            RV.F = L.F + Rv.F;
            break;
          case irns::Opcode::Sub:
            RV.F = L.F - Rv.F;
            break;
          case irns::Opcode::Mul:
            RV.F = L.F * Rv.F;
            break;
          case irns::Opcode::Div:
            RV.F = L.F / Rv.F;
            break;
          default:
            RV.F = 0;
            break;
          }
        } else {
          if ((C.Op == irns::Opcode::Div || C.Op == irns::Opcode::Rem) &&
              Rv.I == 0) {
            fault(format("kernel '%s': integer division by zero",
                         F.name().c_str()));
            States[Item].Stop = StopReason::Fault;
            return;
          }
          switch (C.Op) {
          case irns::Opcode::Add:
            RV.I = L.I + Rv.I;
            break;
          case irns::Opcode::Sub:
            RV.I = L.I - Rv.I;
            break;
          case irns::Opcode::Mul:
            RV.I = L.I * Rv.I;
            break;
          case irns::Opcode::Div:
            RV.I = irns::wrapIntDiv(L.I, Rv.I);
            break;
          case irns::Opcode::Rem:
            RV.I = irns::wrapIntRem(L.I, Rv.I);
            break;
          default:
            break;
          }
        }
        break;
      }
      case irns::Opcode::CmpEq:
      case irns::Opcode::CmpNe:
      case irns::Opcode::CmpLt:
      case irns::Opcode::CmpLe:
      case irns::Opcode::CmpGt:
      case irns::Opcode::CmpGe: {
        const RtValue &L = val(C.Ops[0]);
        const RtValue &Rv = val(C.Ops[1]);
        bool Res;
        if (C.OperandIsFloat) {
          switch (C.Op) {
          case irns::Opcode::CmpEq:
            Res = L.F == Rv.F;
            break;
          case irns::Opcode::CmpNe:
            Res = L.F != Rv.F;
            break;
          case irns::Opcode::CmpLt:
            Res = L.F < Rv.F;
            break;
          case irns::Opcode::CmpLe:
            Res = L.F <= Rv.F;
            break;
          case irns::Opcode::CmpGt:
            Res = L.F > Rv.F;
            break;
          default:
            Res = L.F >= Rv.F;
            break;
          }
        } else {
          switch (C.Op) {
          case irns::Opcode::CmpEq:
            Res = L.I == Rv.I;
            break;
          case irns::Opcode::CmpNe:
            Res = L.I != Rv.I;
            break;
          case irns::Opcode::CmpLt:
            Res = L.I < Rv.I;
            break;
          case irns::Opcode::CmpLe:
            Res = L.I <= Rv.I;
            break;
          case irns::Opcode::CmpGt:
            Res = L.I > Rv.I;
            break;
          default:
            Res = L.I >= Rv.I;
            break;
          }
        }
        out(C.Result).I = Res ? 1 : 0;
        ++Group.AluOps;
        break;
      }
      case irns::Opcode::LogicalAnd:
        out(C.Result).I = (val(C.Ops[0]).I != 0 && val(C.Ops[1]).I != 0);
        ++Group.AluOps;
        break;
      case irns::Opcode::LogicalOr:
        out(C.Result).I = (val(C.Ops[0]).I != 0 || val(C.Ops[1]).I != 0);
        ++Group.AluOps;
        break;
      case irns::Opcode::LogicalNot:
        out(C.Result).I = val(C.Ops[0]).I == 0 ? 1 : 0;
        ++Group.AluOps;
        break;
      case irns::Opcode::Neg:
        if (C.OperandIsFloat)
          out(C.Result).F = -val(C.Ops[0]).F;
        else
          out(C.Result).I = -val(C.Ops[0]).I;
        ++Group.AluOps;
        break;
      case irns::Opcode::IntToFloat:
        out(C.Result).F = static_cast<float>(val(C.Ops[0]).I);
        ++Group.AluOps;
        break;
      case irns::Opcode::FloatToInt:
        out(C.Result).I = static_cast<int32_t>(val(C.Ops[0]).F);
        ++Group.AluOps;
        break;
      case irns::Opcode::Select: {
        const RtValue &Chosen =
            val(C.Ops[0]).I != 0 ? val(C.Ops[1]) : val(C.Ops[2]);
        out(C.Result) = Chosen;
        ++Group.AluOps;
        break;
      }
      case irns::Opcode::Phi: {
        // All phis at a block head read their incoming values as one
        // parallel copy on the just-traversed edge (a phi may feed a
        // sibling phi; the old values must be read before any write).
        // Phis cost nothing: real codegen coalesces them into the
        // register moves of the predecessors.
        uint32_t End = Pc;
        while (End < Code.size() && Code[End].Op == irns::Opcode::Phi)
          ++End;
        PhiTmp.clear();
        for (uint32_t P = Pc; P < End; ++P) {
          uint32_t Slot = NoSlot;
          const CInstr &PC = Code[P];
          for (uint32_t E = PC.PhiOff; E < PC.PhiOff + PC.PhiCount; ++E)
            if (PhiPool[E].first == PrevBlock) {
              Slot = PhiPool[E].second;
              break;
            }
          if (Slot == NoSlot) {
            fault(format("kernel '%s': phi has no incoming value for the "
                         "executed edge",
                         F.name().c_str()));
            States[Item].Stop = StopReason::Fault;
            return;
          }
          PhiTmp.push_back(val(Slot));
        }
        for (uint32_t P = Pc; P < End; ++P)
          out(Code[P].Result) = PhiTmp[P - Pc];
        Pc = End;
        continue;
      }
      case irns::Opcode::Call:
        if (C.Callee == irns::Builtin::Barrier) {
          ++Group.Barriers;
          States[Item].Pc = Pc + 1;
          States[Item].PrevBlock = PrevBlock;
          States[Item].Stop = StopReason::Barrier;
          return;
        }
        execCall(C, Lx, Ly, val, out);
        break;
      case irns::Opcode::Br:
        PrevBlock = BlockOfPc[Pc];
        Pc = C.Target0;
        ++Group.AluOps;
        continue;
      case irns::Opcode::CondBr:
        PrevBlock = BlockOfPc[Pc];
        Pc = val(C.Ops[0]).I != 0 ? C.Target0 : C.Target1;
        ++Group.AluOps;
        continue;
      case irns::Opcode::Ret:
        States[Item].Stop = StopReason::Returned;
        return;
      }
      ++Pc;
    }
  }

  template <typename ValFn, typename OutFn>
  void execCall(const CInstr &C, unsigned Lx, unsigned Ly, ValFn &val,
                OutFn &out) {
    auto dimQuery = [&](unsigned XVal, unsigned YVal) {
      int32_t D = val(C.Ops[0]).I;
      out(C.Result).I =
          D == 0 ? static_cast<int32_t>(XVal) : static_cast<int32_t>(YVal);
    };
    switch (C.Callee) {
    case irns::Builtin::GetGlobalId:
      dimQuery(GroupX * Local.X + Lx, GroupY * Local.Y + Ly);
      break;
    case irns::Builtin::GetLocalId:
      dimQuery(Lx, Ly);
      break;
    case irns::Builtin::GetGroupId:
      dimQuery(GroupX, GroupY);
      break;
    case irns::Builtin::GetLocalSize:
      dimQuery(Local.X, Local.Y);
      break;
    case irns::Builtin::GetGlobalSize:
      dimQuery(Global.X, Global.Y);
      break;
    case irns::Builtin::GetNumGroups:
      dimQuery(Global.X / Local.X, Global.Y / Local.Y);
      break;
    case irns::Builtin::Min:
      if (C.OperandIsFloat)
        out(C.Result).F = std::min(val(C.Ops[0]).F, val(C.Ops[1]).F);
      else
        out(C.Result).I = std::min(val(C.Ops[0]).I, val(C.Ops[1]).I);
      break;
    case irns::Builtin::Max:
      if (C.OperandIsFloat)
        out(C.Result).F = std::max(val(C.Ops[0]).F, val(C.Ops[1]).F);
      else
        out(C.Result).I = std::max(val(C.Ops[0]).I, val(C.Ops[1]).I);
      break;
    case irns::Builtin::Clamp:
      if (C.OperandIsFloat)
        out(C.Result).F = std::min(std::max(val(C.Ops[0]).F,
                                            val(C.Ops[1]).F),
                                   val(C.Ops[2]).F);
      else
        out(C.Result).I = std::min(std::max(val(C.Ops[0]).I,
                                            val(C.Ops[1]).I),
                                   val(C.Ops[2]).I);
      break;
    case irns::Builtin::Abs:
      if (C.OperandIsFloat)
        out(C.Result).F = std::fabs(val(C.Ops[0]).F);
      else
        out(C.Result).I = std::abs(val(C.Ops[0]).I);
      break;
    case irns::Builtin::Sqrt:
      out(C.Result).F = std::sqrt(val(C.Ops[0]).F);
      break;
    case irns::Builtin::Exp:
      out(C.Result).F = std::exp(val(C.Ops[0]).F);
      break;
    case irns::Builtin::Log:
      out(C.Result).F = std::log(val(C.Ops[0]).F);
      break;
    case irns::Builtin::Pow:
      out(C.Result).F = std::pow(val(C.Ops[0]).F, val(C.Ops[1]).F);
      break;
    case irns::Builtin::Floor:
      out(C.Result).F = std::floor(val(C.Ops[0]).F);
      break;
    case irns::Builtin::Barrier:
      break; // Handled by the caller.
    }
    // Transcendentals cost more than simple ALU operations.
    switch (C.Callee) {
    case irns::Builtin::Sqrt:
    case irns::Builtin::Exp:
    case irns::Builtin::Log:
    case irns::Builtin::Pow:
      Group.AluOps += 4;
      break;
    default:
      ++Group.AluOps;
      break;
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
  std::unordered_map<const irns::Instruction *, uint32_t> LocalArenaOff;
  std::unordered_map<const irns::Instruction *, uint32_t> PrivateArenaOff;
  uint32_t NextSlot = 0;
  uint32_t SharedSlots = 0;
  uint32_t LocalWords = 0;
  uint32_t PrivateWords = 0;
  uint32_t NumGlobalStores = 0;
  uint32_t NumLocalOps = 0;
  std::vector<CInstr> Code;
  std::vector<uint32_t> BlockOfPc; ///< Block start index per code index.
  std::vector<RtValue> PhiTmp;     ///< Parallel-copy staging buffer.
  /// Shared (pred block start, value slot) pool for all phis; CInstr
  /// references a [PhiOff, PhiOff+PhiCount) range of it.
  std::vector<std::pair<uint32_t, uint32_t>> PhiPool;

  std::vector<RtValue> SharedVals;
  std::vector<RtValue> Regs;
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
