//===- gpusim/Bytecode.cpp -------------------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "gpusim/Bytecode.h"

#include "gpusim/ExecCommon.h"
#include "ir/DivergenceAnalysis.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <queue>
#include <unordered_map>

using namespace kperf;
using namespace kperf::sim;
using namespace kperf::sim::bc;
namespace irns = kperf::ir;

namespace {

/// Fixed-width bitset over the function's SSA values, for the liveness
/// fixpoint. One instance per block and set kind.
class ValueSet {
public:
  explicit ValueSet(size_t N = 0) : Words((N + 63) / 64, 0) {}

  void insert(uint32_t I) { Words[I / 64] |= uint64_t(1) << (I % 64); }
  bool contains(uint32_t I) const {
    return (Words[I / 64] >> (I % 64)) & 1;
  }
  /// *this |= O; returns true if anything changed.
  bool unionWith(const ValueSet &O) {
    uint64_t Changed = 0;
    for (size_t W = 0; W < Words.size(); ++W) {
      uint64_t Next = Words[W] | O.Words[W];
      Changed |= Next ^ Words[W];
      Words[W] = Next;
    }
    return Changed != 0;
  }
  /// *this |= (O - Minus); returns true if anything changed.
  bool unionWithout(const ValueSet &O, const ValueSet &Minus) {
    uint64_t Changed = 0;
    for (size_t W = 0; W < Words.size(); ++W) {
      uint64_t Next = Words[W] | (O.Words[W] & ~Minus.Words[W]);
      Changed |= Next ^ Words[W];
      Words[W] = Next;
    }
    return Changed != 0;
  }
  template <typename Fn> void forEach(Fn F) const {
    for (size_t W = 0; W < Words.size(); ++W) {
      uint64_t Bits = Words[W];
      while (Bits) {
        unsigned B = __builtin_ctzll(Bits);
        F(static_cast<uint32_t>(W * 64 + B));
        Bits &= Bits - 1;
      }
    }
  }

private:
  std::vector<uint64_t> Words;
};

class Compiler {
public:
  explicit Compiler(const irns::Function &F)
      : F(F), Div(irns::DivergenceAnalysis::compute(F)) {}

  Expected<Program> run() {
    if (Error E = assignSharedRegisters())
      return E;
    layout();
    if (Error E = numberValues())
      return E;
    computeLiveness();
    buildIntervals();
    linearScan();
    if (Error E = emit())
      return E;
    fusePeephole();
    uint64_t TotalRegs = uint64_t(P.NumShared) + NextReg + ScratchMax;
    if (TotalRegs > 65535)
      return makeError("bytecode: kernel '%s' needs %llu virtual registers, "
                       "exceeding the 16-bit register budget",
                       F.name().c_str(),
                       static_cast<unsigned long long>(TotalRegs));
    P.NumRegs = static_cast<uint32_t>(TotalRegs);
    return std::move(P);
  }

private:
  //===--- Shared registers: arguments, then interned constants -----------===//

  Error assignSharedRegisters() {
    for (unsigned I = 0; I < F.numArguments(); ++I) {
      SharedReg[F.argument(I)] = static_cast<uint16_t>(P.SharedInits.size());
      SharedInit SI;
      SI.K = SharedInit::Kind::Arg;
      SI.ArgIndex = I;
      P.SharedInits.push_back(SI);
    }
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions())
        for (irns::Value *Op : I->operands()) {
          if (!irns::isConstant(Op) || SharedReg.count(Op))
            continue;
          if (P.SharedInits.size() >= 65535)
            return makeError("bytecode: kernel '%s' exceeds the shared "
                             "register budget",
                             F.name().c_str());
          SharedReg[Op] = static_cast<uint16_t>(P.SharedInits.size());
          SharedInit SI;
          if (const auto *CI = irns::dyn_cast<irns::ConstantInt>(Op)) {
            SI.K = SharedInit::Kind::ConstInt;
            SI.I = CI->value();
          } else if (const auto *CF =
                         irns::dyn_cast<irns::ConstantFloat>(Op)) {
            SI.K = SharedInit::Kind::ConstFloat;
            SI.F = CF->value();
          } else {
            SI.K = SharedInit::Kind::ConstInt;
            SI.I = irns::cast<irns::ConstantBool>(Op)->value() ? 1 : 0;
          }
          P.SharedInits.push_back(SI);
        }
    P.NumShared = static_cast<uint32_t>(P.SharedInits.size());
    return Error::success();
  }

  //===--- Code layout and arena layout -----------------------------------===//

  /// Phis are lowered to edge copies, so a block's code is its non-phi
  /// instructions; every block keeps at least its terminator. Arena
  /// offsets are assigned in the same walk order as the tree walker.
  void layout() {
    uint32_t Pc = 0;
    for (const auto &BB : F.blocks()) {
      StartPc[BB.get()] = Pc;
      for (const auto &I : BB->instructions()) {
        if (I->opcode() == irns::Opcode::Phi)
          continue;
        InstrPc[I.get()] = Pc++;
        if (I->opcode() == irns::Opcode::Alloca) {
          if (I->allocaSpace() == irns::AddressSpace::Local) {
            ArenaOff[I.get()] = P.LocalWords;
            P.LocalWords += I->allocaCount();
          } else {
            ArenaOff[I.get()] = P.PrivateWords;
            P.PrivateWords += I->allocaCount();
          }
        }
      }
      TermPc[BB.get()] = Pc - 1;
    }
    CodeLen = Pc;
  }

  //===--- Value numbering -------------------------------------------------//

  Error numberValues() {
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions())
        if (!I->type().isVoid()) {
          ValueId[I.get()] = NumValues++;
          Values.push_back(I.get());
        }
    // Sanity-check phis up front so liveness/emission can rely on them.
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions())
        if (I->opcode() == irns::Opcode::Phi &&
            I->numIncoming() == 0)
          return makeError("bytecode: phi '%s' in kernel '%s' has no "
                           "incoming values",
                           I->name().c_str(), F.name().c_str());
    return Error::success();
  }

  /// Value id of \p V if it is an SSA instruction value, else ~0u.
  uint32_t idOf(const irns::Value *V) const {
    auto It = ValueId.find(V);
    return It == ValueId.end() ? ~0u : It->second;
  }

  //===--- Liveness ---------------------------------------------------------//

  /// Backward dataflow over the CFG. Phi operands are uses on the
  /// incoming edge (live-out of the predecessor, not live-in of the phi's
  /// block); phi results are defs at their block's head.
  void computeLiveness() {
    size_t NB = F.numBlocks();
    LiveIn.assign(NB, ValueSet(NumValues));
    LiveOut.assign(NB, ValueSet(NumValues));
    std::vector<ValueSet> Use(NB, ValueSet(NumValues));
    std::vector<ValueSet> Def(NB, ValueSet(NumValues));
    PhiDefs.assign(NB, ValueSet(NumValues));

    for (size_t BI = 0; BI < NB; ++BI) {
      const irns::BasicBlock *BB = F.block(BI);
      for (const auto &I : BB->instructions()) {
        if (I->opcode() != irns::Opcode::Phi)
          for (irns::Value *Op : I->operands()) {
            uint32_t Id = idOf(Op);
            if (Id != ~0u && !Def[BI].contains(Id))
              Use[BI].insert(Id);
          }
        uint32_t Id = idOf(I.get());
        if (Id != ~0u) {
          Def[BI].insert(Id);
          if (I->opcode() == irns::Opcode::Phi)
            PhiDefs[BI].insert(Id);
        }
      }
    }

    // Successors and the phi uses each edge carries.
    std::vector<std::vector<size_t>> Succ(NB);
    std::vector<ValueSet> EdgeUses(NB, ValueSet(NumValues)); // per pred
    for (size_t BI = 0; BI < NB; ++BI) {
      const irns::Instruction *T = F.block(BI)->terminator();
      assert(T && "unterminated block");
      if (T->opcode() == irns::Opcode::Br)
        Succ[BI].push_back(F.blockIndex(T->branchTarget(0)));
      else if (T->opcode() == irns::Opcode::CondBr) {
        Succ[BI].push_back(F.blockIndex(T->branchTarget(0)));
        Succ[BI].push_back(F.blockIndex(T->branchTarget(1)));
      }
    }
    for (size_t BI = 0; BI < NB; ++BI) {
      const irns::BasicBlock *BB = F.block(BI);
      for (const auto &I : BB->instructions()) {
        if (I->opcode() != irns::Opcode::Phi)
          break;
        for (unsigned In = 0; In < I->numIncoming(); ++In) {
          uint32_t Id = idOf(I->incomingValue(In));
          if (Id != ~0u)
            EdgeUses[F.blockIndex(I->incomingBlock(In))].insert(Id);
        }
      }
    }

    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (size_t BI = NB; BI-- > 0;) {
        for (size_t S : Succ[BI])
          Changed |= LiveOut[BI].unionWithout(LiveIn[S], PhiDefs[S]);
        Changed |= LiveOut[BI].unionWith(EdgeUses[BI]);
        Changed |= LiveIn[BI].unionWith(Use[BI]);
        Changed |= LiveIn[BI].unionWithout(LiveOut[BI], Def[BI]);
      }
    }
  }

  //===--- Conservative linear intervals -----------------------------------//

  /// Interval rules (pc space is the linear code layout):
  ///  * a normal def starts at its pc; a phi def starts at the earliest
  ///    of its block head and every incoming edge's terminator pc (the
  ///    copy writes it there) and stays live through the latest such
  ///    terminator -- that is what keeps an edge copy's destination from
  ///    aliasing another copy's still-needed source;
  ///  * operand uses extend to the use pc; phi operands to the incoming
  ///    terminator's pc (where the edge copy reads them);
  ///  * a value live-in/live-out of a block covers that block's span.
  void buildIntervals() {
    IntervalS.assign(NumValues, 0);
    IntervalE.assign(NumValues, 0);
    for (uint32_t Id = 0; Id < NumValues; ++Id) {
      const irns::Instruction *I = Values[Id];
      uint32_t DefPc = I->opcode() == irns::Opcode::Phi
                           ? StartPc.at(I->parent())
                           : InstrPc.at(I);
      IntervalS[Id] = DefPc;
      IntervalE[Id] = DefPc;
    }
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions()) {
        if (I->opcode() == irns::Opcode::Phi) {
          uint32_t Id = ValueId.at(I.get());
          for (unsigned In = 0; In < I->numIncoming(); ++In) {
            uint32_t EdgePc = TermPc.at(I->incomingBlock(In));
            IntervalS[Id] = std::min(IntervalS[Id], EdgePc);
            IntervalE[Id] = std::max(IntervalE[Id], EdgePc);
            uint32_t SrcId = idOf(I->incomingValue(In));
            if (SrcId != ~0u)
              IntervalE[SrcId] = std::max(IntervalE[SrcId], EdgePc);
          }
          continue;
        }
        uint32_t Pc = InstrPc.at(I.get());
        for (irns::Value *Op : I->operands()) {
          uint32_t Id = idOf(Op);
          if (Id != ~0u)
            IntervalE[Id] = std::max(IntervalE[Id], Pc);
        }
      }
    for (size_t BI = 0; BI < F.numBlocks(); ++BI) {
      uint32_t Head = StartPc.at(F.block(BI));
      uint32_t Tail = TermPc.at(F.block(BI));
      LiveIn[BI].forEach([&](uint32_t Id) {
        IntervalS[Id] = std::min(IntervalS[Id], Head);
        IntervalE[Id] = std::max(IntervalE[Id], Head);
      });
      LiveOut[BI].forEach([&](uint32_t Id) {
        IntervalE[Id] = std::max(IntervalE[Id], Tail);
      });
    }
  }

  //===--- Linear-scan register assignment ---------------------------------//

  void linearScan() {
    RegOf.assign(NumValues, 0);
    std::vector<uint32_t> Order(NumValues);
    for (uint32_t Id = 0; Id < NumValues; ++Id)
      Order[Id] = Id;
    std::stable_sort(Order.begin(), Order.end(),
                     [&](uint32_t A, uint32_t B) {
                       return IntervalS[A] < IntervalS[B];
                     });
    // Active intervals as a min-heap on end pc; free registers as a
    // min-heap so register numbers stay dense.
    using ActiveEntry = std::pair<uint32_t, uint32_t>; // (end, reg)
    std::priority_queue<ActiveEntry, std::vector<ActiveEntry>,
                        std::greater<ActiveEntry>>
        Active;
    std::priority_queue<uint32_t, std::vector<uint32_t>,
                        std::greater<uint32_t>>
        Free;
    for (uint32_t Id : Order) {
      while (!Active.empty() && Active.top().first < IntervalS[Id]) {
        Free.push(Active.top().second);
        Active.pop();
      }
      uint32_t Reg;
      if (!Free.empty()) {
        Reg = Free.top();
        Free.pop();
      } else {
        Reg = NextReg++;
      }
      RegOf[Id] = Reg;
      Active.push({IntervalE[Id], Reg});
      P.MaxLive =
          std::max(P.MaxLive, static_cast<uint32_t>(Active.size()));
    }
  }

  /// Bytecode register of \p V: shared for arguments/constants, the
  /// allocated register for SSA values.
  uint16_t regOf(const irns::Value *V) const {
    auto Sh = SharedReg.find(V);
    if (Sh != SharedReg.end())
      return Sh->second;
    return static_cast<uint16_t>(P.NumShared + RegOf[ValueId.at(V)]);
  }

  uint16_t scratchReg(unsigned K) {
    ScratchMax = std::max(ScratchMax, K + 1);
    return static_cast<uint16_t>(P.NumShared + NextReg + K);
  }

  //===--- Edge copy lists --------------------------------------------------//

  /// Builds the sequentialized copy list of the edge \p Pred -> \p Tgt;
  /// returns NoCopyList when the target has no phis (or only identity
  /// copies). The phis' incoming values are read in parallel: a move is
  /// only emitted once its destination is no longer needed as a source,
  /// and cycles are broken by saving one clobbered register to a scratch.
  Expected<uint32_t> edgeCopies(const irns::BasicBlock *Pred,
                                const irns::BasicBlock *Tgt) {
    std::vector<Copy> Pending;
    for (const auto &I : Tgt->instructions()) {
      if (I->opcode() != irns::Opcode::Phi)
        break;
      irns::Value *In = I->incomingValueFor(Pred);
      if (!In)
        return makeError("bytecode: phi '%s' in kernel '%s' has no "
                         "incoming value for predecessor '%s'",
                         I->name().c_str(), F.name().c_str(),
                         Pred->name().c_str());
      Copy C{regOf(I.get()), regOf(In)};
      if (C.Dst != C.Src)
        Pending.push_back(C);
    }
    if (Pending.empty())
      return NoCopyList;

    std::vector<Copy> Seq;
    unsigned ScratchUsed = 0;
    while (!Pending.empty()) {
      bool Progress = false;
      for (size_t I = 0; I < Pending.size(); ++I) {
        bool DstIsSrc = false;
        for (size_t J = 0; J < Pending.size(); ++J)
          if (J != I && Pending[J].Src == Pending[I].Dst) {
            DstIsSrc = true;
            break;
          }
        if (!DstIsSrc) {
          Seq.push_back(Pending[I]);
          Pending.erase(Pending.begin() + static_cast<ptrdiff_t>(I));
          Progress = true;
          break;
        }
      }
      if (Progress)
        continue;
      // Cycle: save the first copy's destination, retarget its readers,
      // then the copy itself is safe to emit.
      Copy C = Pending.front();
      Pending.erase(Pending.begin());
      uint16_t T = scratchReg(ScratchUsed++);
      Seq.push_back({T, C.Dst});
      for (Copy &Rest : Pending)
        if (Rest.Src == C.Dst)
          Rest.Src = T;
      Seq.push_back(C);
    }

    CopyRange R;
    R.Begin = static_cast<uint32_t>(P.CopyPool.size());
    R.Count = static_cast<uint32_t>(Seq.size());
    P.CopyPool.insert(P.CopyPool.end(), Seq.begin(), Seq.end());
    P.CopyRanges.push_back(R);
    return static_cast<uint32_t>(P.CopyRanges.size() - 1);
  }

  //===--- Superinstruction fusion ------------------------------------------//

  /// Collapses each pair planFusedPairs() (gpusim/ExecCommon.h) marked
  /// in the emitted code into its fused opcode and remaps every branch
  /// target. Only block heads are jump targets and a consumer is never a
  /// block head, so no branch can land between the two halves of a pair.
  void fusePeephole() {
    std::vector<Instr> NewCode;
    NewCode.reserve(P.Code.size());
    std::vector<uint32_t> NewPc(P.Code.size());
    for (uint32_t Pc = 0; Pc < P.Code.size(); ++Pc) {
      NewPc[Pc] = static_cast<uint32_t>(NewCode.size());
      FusedPair K = FuseAtPc[Pc];
      if (K == FusedPair::None) {
        NewCode.push_back(P.Code[Pc]);
        continue;
      }
      const Instr &A = P.Code[Pc], &B = P.Code[Pc + 1];
      Instr FI = B;
      switch (K) {
      case FusedPair::None:
        break;
      case FusedPair::GepLoad:
        FI.Opc = B.Opc == Op::LdG   ? Op::LdGX
                 : B.Opc == Op::LdL ? Op::LdLX
                                    : Op::LdPX;
        FI.A = A.A; // Pointer.
        FI.B = A.B; // Index.
        break;
      case FusedPair::GepStore:
        FI.Opc = B.Opc == Op::StG   ? Op::StGX
                 : B.Opc == Op::StL ? Op::StLX
                                    : Op::StPX;
        FI.B = A.A; // Pointer (A stays the stored value).
        FI.C = A.B; // Index.
        break;
      case FusedPair::CmpBr: {
        bool FltCmp = A.Opc >= Op::CmpEqF && A.Opc <= Op::CmpGeF;
        FI.Opc = FltCmp ? Op::JmpCmpF : Op::JmpCmpI;
        FI.Sub = static_cast<uint8_t>(
            static_cast<unsigned>(A.Opc) -
            static_cast<unsigned>(FltCmp ? Op::CmpEqF : Op::CmpEqI));
        FI.A = A.A;
        FI.B = A.B;
        break;
      }
      case FusedPair::MulAdd:
        FI.Opc = B.Opc == Op::AddF ? Op::MulAddF : Op::MulAddI;
        FI.C = B.A == A.Dst ? B.B : B.A; // The non-product addend.
        FI.A = A.A;
        FI.B = A.B;
        break;
      }
      NewCode.push_back(FI);
      NewPc[Pc + 1] = NewPc[Pc]; // The consumer shares the fused slot.
      ++Pc;
    }
    for (Instr &I : NewCode)
      switch (I.Opc) {
      case Op::Jmp:
        I.Imm = static_cast<int32_t>(NewPc[static_cast<uint32_t>(I.Imm)]);
        break;
      case Op::JmpIf:
      case Op::JmpCmpI:
      case Op::JmpCmpF:
        I.Imm = static_cast<int32_t>(NewPc[static_cast<uint32_t>(I.Imm)]);
        I.Aux = NewPc[I.Aux];
        break;
      default:
        break;
      }
    P.Code.swap(NewCode);
  }

  //===--- Emission ----------------------------------------------------------//

  Error emit() {
    P.Code.reserve(CodeLen);
    FuseAtPc.assign(CodeLen, FusedPair::None);
    std::vector<FusedPair> Pairs = planFusedPairs(F);
    size_t K = 0;
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions()) {
        FusedPair Pair = Pairs[K++];
        if (I->opcode() == irns::Opcode::Phi)
          continue;
        FuseAtPc[P.Code.size()] = Pair;
        Expected<Instr> BI = lower(*I);
        if (!BI)
          return BI.takeError();
        P.Code.push_back(*BI);
      }
    assert(P.Code.size() == CodeLen && "layout/emission mismatch");
    return Error::success();
  }

  Expected<Instr> lower(const irns::Instruction &I) {
    Instr B;
    if (I.numOperands() > 3)
      return makeError("bytecode: instruction with %u operands in kernel "
                       "'%s'",
                       I.numOperands(), F.name().c_str());
    uint16_t Ops[3] = {0, 0, 0};
    for (unsigned OI = 0; OI < I.numOperands(); ++OI)
      Ops[OI] = regOf(I.operand(OI));
    if (!I.type().isVoid())
      B.Dst = regOf(&I);
    bool Flt = I.numOperands() > 0 && I.operand(0)->type().isFloat();

    switch (I.opcode()) {
    case irns::Opcode::Alloca:
      B.Opc = I.allocaSpace() == irns::AddressSpace::Local ? Op::AllocaL
                                                           : Op::AllocaP;
      B.Imm = static_cast<int32_t>(ArenaOff.at(&I));
      break;
    case irns::Opcode::Load: {
      irns::AddressSpace Space = I.operand(0)->type().addressSpace();
      B.A = Ops[0];
      if (Space == irns::AddressSpace::Global) {
        B.Opc = Op::LdG;
        B.Aux = P.NumGlobalOps++;
      } else if (Space == irns::AddressSpace::Local) {
        B.Opc = Op::LdL;
        B.Aux = P.NumLocalOps++;
      } else {
        B.Opc = Op::LdP;
      }
      break;
    }
    case irns::Opcode::Store: {
      irns::AddressSpace Space = I.operand(1)->type().addressSpace();
      B.A = Ops[0];
      B.B = Ops[1];
      if (Space == irns::AddressSpace::Global) {
        B.Opc = Op::StG;
        B.Aux = P.NumGlobalOps++;
      } else if (Space == irns::AddressSpace::Local) {
        B.Opc = Op::StL;
        B.Aux = P.NumLocalOps++;
      } else {
        B.Opc = Op::StP;
      }
      break;
    }
    case irns::Opcode::Gep:
      B.Opc = Op::Gep;
      B.A = Ops[0];
      B.B = Ops[1];
      break;
    case irns::Opcode::Add:
      B.Opc = Flt ? Op::AddF : Op::AddI;
      B.A = Ops[0];
      B.B = Ops[1];
      break;
    case irns::Opcode::Sub:
      B.Opc = Flt ? Op::SubF : Op::SubI;
      B.A = Ops[0];
      B.B = Ops[1];
      break;
    case irns::Opcode::Mul:
      B.Opc = Flt ? Op::MulF : Op::MulI;
      B.A = Ops[0];
      B.B = Ops[1];
      break;
    case irns::Opcode::Div:
      B.Opc = Flt ? Op::DivF : Op::DivI;
      B.A = Ops[0];
      B.B = Ops[1];
      break;
    case irns::Opcode::Rem:
      B.Opc = Flt ? Op::RemF : Op::RemI;
      B.A = Ops[0];
      B.B = Ops[1];
      break;
    case irns::Opcode::CmpEq:
      B.Opc = Flt ? Op::CmpEqF : Op::CmpEqI;
      B.A = Ops[0];
      B.B = Ops[1];
      break;
    case irns::Opcode::CmpNe:
      B.Opc = Flt ? Op::CmpNeF : Op::CmpNeI;
      B.A = Ops[0];
      B.B = Ops[1];
      break;
    case irns::Opcode::CmpLt:
      B.Opc = Flt ? Op::CmpLtF : Op::CmpLtI;
      B.A = Ops[0];
      B.B = Ops[1];
      break;
    case irns::Opcode::CmpLe:
      B.Opc = Flt ? Op::CmpLeF : Op::CmpLeI;
      B.A = Ops[0];
      B.B = Ops[1];
      break;
    case irns::Opcode::CmpGt:
      B.Opc = Flt ? Op::CmpGtF : Op::CmpGtI;
      B.A = Ops[0];
      B.B = Ops[1];
      break;
    case irns::Opcode::CmpGe:
      B.Opc = Flt ? Op::CmpGeF : Op::CmpGeI;
      B.A = Ops[0];
      B.B = Ops[1];
      break;
    case irns::Opcode::LogicalAnd:
      B.Opc = Op::AndB;
      B.A = Ops[0];
      B.B = Ops[1];
      break;
    case irns::Opcode::LogicalOr:
      B.Opc = Op::OrB;
      B.A = Ops[0];
      B.B = Ops[1];
      break;
    case irns::Opcode::LogicalNot:
      B.Opc = Op::NotB;
      B.A = Ops[0];
      break;
    case irns::Opcode::Neg:
      B.Opc = Flt ? Op::NegF : Op::NegI;
      B.A = Ops[0];
      break;
    case irns::Opcode::IntToFloat:
      B.Opc = Op::I2F;
      B.A = Ops[0];
      break;
    case irns::Opcode::FloatToInt:
      B.Opc = Op::F2I;
      B.A = Ops[0];
      break;
    case irns::Opcode::Select:
      B.Opc = Op::Sel;
      B.Sub = I.type().isPointer() ? 0 : 1; // 1: scalar, value plane only
      B.A = Ops[0];
      B.B = Ops[1];
      B.C = Ops[2];
      break;
    case irns::Opcode::Call:
      return lowerCall(I, Ops, B);
    case irns::Opcode::Br: {
      B.Opc = Op::Jmp;
      B.Imm = static_cast<int32_t>(StartPc.at(I.branchTarget(0)));
      Expected<uint32_t> CL = edgeCopies(I.parent(), I.branchTarget(0));
      if (!CL)
        return CL.takeError();
      B.CL0 = *CL;
      break;
    }
    case irns::Opcode::CondBr: {
      B.Opc = Op::JmpIf;
      if (Div.isUniform(I.operand(0)))
        B.Flags = FlagUniformCond;
      B.A = Ops[0];
      B.Imm = static_cast<int32_t>(StartPc.at(I.branchTarget(0)));
      B.Aux = StartPc.at(I.branchTarget(1));
      Expected<uint32_t> CL0 = edgeCopies(I.parent(), I.branchTarget(0));
      if (!CL0)
        return CL0.takeError();
      B.CL0 = *CL0;
      Expected<uint32_t> CL1 = edgeCopies(I.parent(), I.branchTarget(1));
      if (!CL1)
        return CL1.takeError();
      B.CL1 = *CL1;
      break;
    }
    case irns::Opcode::Ret:
      B.Opc = Op::Ret;
      break;
    case irns::Opcode::Phi:
      assert(false && "phi reached emission");
      break;
    }
    return B;
  }

  Expected<Instr> lowerCall(const irns::Instruction &I,
                            const uint16_t Ops[3], Instr B) {
    bool Flt = I.numOperands() > 0 && I.operand(0)->type().isFloat();
    B.A = Ops[0];
    B.B = Ops[1];
    B.C = Ops[2];
    switch (I.callee()) {
    case irns::Builtin::GetGlobalId:
    case irns::Builtin::GetLocalId:
    case irns::Builtin::GetGroupId:
    case irns::Builtin::GetLocalSize:
    case irns::Builtin::GetGlobalSize:
    case irns::Builtin::GetNumGroups:
      B.Opc = Op::DimQuery;
      B.Sub = static_cast<uint8_t>(I.callee());
      break;
    case irns::Builtin::Barrier:
      B.Opc = Op::Bar;
      break;
    case irns::Builtin::Min:
      B.Opc = Flt ? Op::MinF : Op::MinI;
      break;
    case irns::Builtin::Max:
      B.Opc = Flt ? Op::MaxF : Op::MaxI;
      break;
    case irns::Builtin::Clamp:
      B.Opc = Flt ? Op::ClampF : Op::ClampI;
      break;
    case irns::Builtin::Abs:
      B.Opc = Flt ? Op::AbsF : Op::AbsI;
      break;
    case irns::Builtin::Sqrt:
      B.Opc = Op::SqrtF;
      break;
    case irns::Builtin::Exp:
      B.Opc = Op::ExpF;
      break;
    case irns::Builtin::Log:
      B.Opc = Op::LogF;
      break;
    case irns::Builtin::Pow:
      B.Opc = Op::PowF;
      break;
    case irns::Builtin::Floor:
      B.Opc = Op::FloorF;
      break;
    }
    return B;
  }

  //===--- Members -----------------------------------------------------------//

  const irns::Function &F;
  /// Uniform/divergent facts for the uniform-branch flag on JmpIf; the
  /// fusion pass copies the whole Instr, so JmpCmp inherits it.
  const irns::DivergenceAnalysis Div;
  Program P;

  std::unordered_map<const irns::Value *, uint16_t> SharedReg;
  std::unordered_map<const irns::BasicBlock *, uint32_t> StartPc;
  std::unordered_map<const irns::BasicBlock *, uint32_t> TermPc;
  std::unordered_map<const irns::Instruction *, uint32_t> InstrPc;
  std::unordered_map<const irns::Instruction *, uint32_t> ArenaOff;
  uint32_t CodeLen = 0;

  std::unordered_map<const irns::Value *, uint32_t> ValueId;
  std::vector<const irns::Instruction *> Values;
  uint32_t NumValues = 0;

  std::vector<ValueSet> LiveIn, LiveOut, PhiDefs;
  std::vector<uint32_t> IntervalS, IntervalE;
  std::vector<uint32_t> RegOf;
  uint32_t NextReg = 0;
  unsigned ScratchMax = 0;

  /// The pair each pc of the emitted (pre-fusion) code opens.
  std::vector<FusedPair> FuseAtPc;
};

} // namespace

Expected<Program> bc::compile(const ir::Function &F) {
  return Compiler(F).run();
}
