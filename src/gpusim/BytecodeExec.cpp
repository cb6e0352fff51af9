//===- gpusim/BytecodeExec.cpp ---------------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The batched execution tier: each instruction runs across a whole work
// group. The register file is stored as structure-of-arrays value / base /
// offset planes, so ALU handlers are dense contiguous loops the compiler
// auto-vectorizes; work-group fragments stay as [First, First+N) ranges
// while control flow is uniform and fall back to sorted item lists only
// across divergent branches, re-densifying on reconvergence.
//
// Each address space has one access path, a member template that the
// plain and the gep-folded load and store opcodes instantiate, so every
// bounds check, fault text and accounting call exists once per space.
// Memory accounting is shared with the tree walker (gpusim/MemAccounting.h)
// and fed per lane. Two per-chunk shortcuts sit inside the access paths:
// the global path's fragment reading one buffer in bounds fetches its read
// bitmap once, and the local path's full wavefront at one exec instance
// folds its bank histogram on the stack (in closed form for consecutive
// offsets) and reports the whole access group at once. The lane-wise ALU
// ops come from one table, and both branch forms share one take, skip or
// split path.
//
//===----------------------------------------------------------------------===//

#include "gpusim/BytecodeExec.h"

#include "gpusim/CostModel.h"
#include "gpusim/ExecCommon.h"
#include "gpusim/MemAccounting.h"
#include "ir/InstructionUtils.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace kperf;
using namespace kperf::sim;
namespace irns = kperf::ir;

namespace {

/// One cell of the batched tier's value plane; base/offset live in their
/// own planes so ALU loops touch only 4 bytes per item.
union Val32 {
  int32_t I;
  float F;
};

/// The lane-wise ALU ops of the batched tier: opcode, AluOps charged per
/// item, the result's Val32 field, and the result computed from the
/// item's operands X, Y and Z (the values of registers A, B and C). The
/// fused MulAdd ops round the product and the sum separately: this file
/// is built without FMA contraction.
#define KPERF_BC_LANE_OPS(OP)                                                  \
  OP(AddI, 1, I, irns::wrapIntAdd(X.I, Y.I))                                   \
  OP(SubI, 1, I, irns::wrapIntSub(X.I, Y.I))                                   \
  OP(MulI, 1, I, irns::wrapIntMul(X.I, Y.I))                                   \
  OP(MulAddI, 2, I, irns::wrapIntAdd(irns::wrapIntMul(X.I, Y.I), Z.I))         \
  OP(AddF, 1, F, X.F + Y.F) OP(SubF, 1, F, X.F - Y.F)                          \
  OP(MulF, 1, F, X.F * Y.F) OP(DivF, 1, F, X.F / Y.F)                          \
  OP(MulAddF, 2, F, X.F * Y.F + Z.F)                                           \
  OP(RemF, 1, F, 0.0f) /* Float remainder is not modeled. */                   \
  OP(AndB, 1, I, X.I != 0 && Y.I != 0) OP(OrB, 1, I, X.I != 0 || Y.I != 0)     \
  OP(NotB, 1, I, X.I == 0)                                                     \
  OP(NegI, 1, I, irns::wrapIntNeg(X.I)) OP(NegF, 1, F, -X.F)                   \
  OP(I2F, 1, F, static_cast<float>(X.I))                                       \
  OP(F2I, 1, I, irns::wrapFloatToInt(X.F))                                     \
  OP(MinI, 1, I, std::min(X.I, Y.I)) OP(MinF, 1, F, std::min(X.F, Y.F))        \
  OP(MaxI, 1, I, std::max(X.I, Y.I)) OP(MaxF, 1, F, std::max(X.F, Y.F))        \
  OP(ClampI, 1, I, std::min(std::max(X.I, Y.I), Z.I))                          \
  OP(ClampF, 1, F, std::min(std::max(X.F, Y.F), Z.F))                          \
  OP(AbsI, 1, I, irns::wrapIntAbs(X.I)) OP(AbsF, 1, F, std::fabs(X.F))         \
  OP(SqrtF, 4, F, std::sqrt(X.F)) OP(ExpF, 4, F, std::exp(X.F))                \
  OP(LogF, 4, F, std::log(X.F)) OP(PowF, 4, F, std::pow(X.F, Y.F))             \
  OP(FloorF, 1, F, std::floor(X.F))

/// The compares, which the fused compare-and-branch ops evaluate too:
/// opcode, the Val32 field compared, and the relation (the result is 1
/// or 0).
#define KPERF_BC_CMPS(CMP)                                                     \
  CMP(CmpEqI, I, ==) CMP(CmpNeI, I, !=) CMP(CmpLtI, I, <)                      \
  CMP(CmpLeI, I, <=) CMP(CmpGtI, I, >) CMP(CmpGeI, I, >=)                      \
  CMP(CmpEqF, F, ==) CMP(CmpNeF, F, !=) CMP(CmpLtF, F, <)                      \
  CMP(CmpLeF, F, <=) CMP(CmpGtF, F, >) CMP(CmpGeF, F, >=)

class BcExecutor {
public:
  BcExecutor(const bc::Program &Prog, const irns::Function &F, Range2 Global,
             Range2 Local, const std::vector<KernelArg> &Args,
             std::vector<BufferData *> Buffers, const DeviceConfig &Device)
      : Prog(Prog), F(F), Global(Global), Local(Local), Args(Args),
        Buffers(std::move(Buffers)), Device(Device), Acct(Device, Group) {}

  Expected<SimReport> run() {
    if (Error E = validateLaunch(F, Global, Local, Args, Buffers))
      return E;
    // Same gate and text as the tree walker's compile step.
    if (Prog.LocalWords * 4 > Device.LocalMemBytes)
      return makeError("launch: kernel '%s' needs %u bytes of local memory, "
                       "device provides %u",
                       F.name().c_str(), Prog.LocalWords * 4,
                       Device.LocalMemBytes);

    BN = Local.count();

    // Raw views: buffer contents and per-item geometry are read on every
    // memory access, so snapshot them out of their owning objects once.
    // Only the slots the arguments name (validated non-null above) are
    // read: the rest of a session's bank may be null (released) or be
    // re-created by another thread while this launch runs.
    Bufs.assign(Buffers.size(), BufRef{});
    for (const KernelArg &Arg : Args)
      if (Arg.K == KernelArg::Kind::Buffer) {
        BufferData *B = Buffers[Arg.BufferIndex];
        Bufs[Arg.BufferIndex] = BufRef{B->data(), B->size()};
      }
    LxA.resize(BN);
    LyA.resize(BN);
    WfA.resize(BN);
    CondRow.resize(BN);
    for (unsigned Item = 0; Item < BN; ++Item) {
      LxA[Item] = Item % Local.X;
      LyA[Item] = Item / Local.X;
      WfA[Item] = Item / Device.WavefrontSize;
    }

    initRegisters();
    PrivArena.assign(static_cast<size_t>(BN) * Prog.PrivateWords, 0);
    LocalArena.assign(Prog.LocalWords, 0);
    GlobalExec.assign(static_cast<size_t>(BN) * Prog.NumGlobalOps, 0);
    LocalExec.assign(static_cast<size_t>(BN) * Prog.NumLocalOps, 0);
    Acct.beginLaunch(BN, Prog.NumLocalOps, Args, Buffers);

    unsigned GroupsX = Global.X / Local.X;
    unsigned GroupsY = Global.Y / Local.Y;
    Counters Totals;
    double SumCycles = 0, SumCompute = 0, SumMemory = 0;

    for (unsigned GY = 0; GY < GroupsY; ++GY) {
      for (unsigned GX = 0; GX < GroupsX; ++GX) {
        if (Error E = runGroup(GX, GY))
          return E;
        Group.WorkGroups = 1;
        Group.WorkItems = BN;
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

private:
  //===--- Register file setup ---------------------------------------------//

  /// Shared registers (arguments and constants) are read-only; they are
  /// materialized once per launch. Non-shared registers are deliberately
  /// NOT re-zeroed between groups: SSA dominance guarantees every read
  /// follows a write in the same item run, exactly as in the tree walker.
  void initRegisters() {
    // Structure of arrays: register r of item i lives at plane[r*BN+i].
    size_t Cells = static_cast<size_t>(Prog.NumRegs) * BN;
    BVal.assign(Cells, Val32{0});
    BBase.assign(Cells, 0);
    BOff.assign(Cells, 0);
    for (uint32_t S = 0; S < Prog.NumShared; ++S) {
      const bc::SharedInit &SI = Prog.SharedInits[S];
      Val32 V{0};
      uint32_t Base = 0;
      switch (SI.K) {
      case bc::SharedInit::Kind::Arg: {
        const KernelArg &Arg = Args[SI.ArgIndex];
        switch (Arg.K) {
        case KernelArg::Kind::Int:
          V.I = Arg.I;
          break;
        case KernelArg::Kind::Float:
          V.F = Arg.F;
          break;
        case KernelArg::Kind::Buffer:
          Base = Arg.BufferIndex;
          break;
        }
        break;
      }
      case bc::SharedInit::Kind::ConstInt:
        V.I = SI.I;
        break;
      case bc::SharedInit::Kind::ConstFloat:
        V.F = SI.F;
        break;
      }
      size_t Row = static_cast<size_t>(S) * BN;
      std::fill_n(BVal.begin() + Row, BN, V);
      std::fill_n(BBase.begin() + Row, BN, Base);
    }
  }

  //===--- Group orchestration ----------------------------------------------//

  Error runGroup(unsigned GX, unsigned GY) {
    std::fill(PrivArena.begin(), PrivArena.end(), 0u);
    std::fill(LocalArena.begin(), LocalArena.end(), 0u);
    std::fill(GlobalExec.begin(), GlobalExec.end(), 0u);
    std::fill(LocalExec.begin(), LocalExec.end(), 0u);
    Acct.beginGroup();
    GroupX = GX;
    GroupY = GY;
    return runGroupBatched();
  }

  /// (x, y) of a dimension builtin whose value is the same for every
  /// item of the group; the per-item ids are computed in the DimQuery
  /// handler itself.
  void uniformDims(irns::Builtin B, unsigned &X, unsigned &Y) const {
    switch (B) {
    case irns::Builtin::GetGroupId:
      X = GroupX;
      Y = GroupY;
      break;
    case irns::Builtin::GetLocalSize:
      X = Local.X;
      Y = Local.Y;
      break;
    case irns::Builtin::GetGlobalSize:
      X = Global.X;
      Y = Global.Y;
      break;
    case irns::Builtin::GetNumGroups:
      X = Global.X / Local.X;
      Y = Global.Y / Local.Y;
      break;
    default:
      X = 0;
      Y = 0;
      break;
    }
  }

  //===--- Batched tier: one instruction across the whole fragment ----------//

  /// Bank-count cap for the on-stack local accounting histogram; devices
  /// with more banks than this take the table-based path.
  static constexpr uint32_t MaxFastBanks = 64;

  /// A maximal contiguous range of items inside a sparse fragment.
  struct Run {
    uint32_t First = 0;
    uint32_t Len = 0;
  };

  /// A set of items at the same pc. While control flow is uniform the set
  /// is the dense range [First, First+N) and the handlers run contiguous
  /// auto-vectorizable loops; divergent branches fall back to ascending
  /// run lists (row-structured divergence like the perforation row parity
  /// splits into long runs, so the inner loops stay vectorizable), and the
  /// scheduler re-densifies contiguous merges.
  struct Frag {
    uint32_t Pc = 0;
    uint32_t First = 0;
    uint32_t N = 0;              ///< Dense size; unused when sparse.
    uint32_t Count = 0;          ///< Total sparse items; unused when dense.
    std::vector<Run> Runs;       ///< Sparse runs; empty means dense.

    bool dense() const { return Runs.empty(); }
    size_t size() const { return dense() ? N : Count; }
    /// The lowest item.
    uint32_t first() const { return dense() ? First : Runs[0].First; }
  };

  Val32 *valRow(uint16_t Reg) {
    return BVal.data() + static_cast<size_t>(Reg) * BN;
  }
  uint32_t *baseRow(uint16_t Reg) {
    return BBase.data() + static_cast<size_t>(Reg) * BN;
  }
  int32_t *offRow(uint16_t Reg) {
    return BOff.data() + static_cast<size_t>(Reg) * BN;
  }

  /// Divergent branches retire and mint run lists at a high rate, so
  /// their heap buffers cycle through a free pool instead of the
  /// allocator.
  std::vector<Run> takeRuns() {
    if (RunPool.empty())
      return {};
    std::vector<Run> V = std::move(RunPool.back());
    RunPool.pop_back();
    V.clear();
    return V;
  }

  void recycleRuns(std::vector<Run> &&V) {
    if (V.capacity() != 0)
      RunPool.push_back(std::move(V));
  }

  void materialize(Frag &Fr) {
    if (!Fr.dense())
      return;
    Fr.Runs = takeRuns();
    Fr.Runs.push_back(Run{Fr.First, Fr.N});
    Fr.Count = Fr.N;
    Fr.N = 0;
  }

  /// Absorbs \p Other (same pc) into \p Cur, keeping runs ascending and
  /// coalesced and returning to the dense representation when the union
  /// is one contiguous range. Run lists from a branch split are disjoint.
  void mergeFrag(Frag &Cur, Frag &Other) {
    if (Cur.dense() && Other.dense()) {
      if (Cur.First + Cur.N == Other.First) {
        Cur.N += Other.N;
        return;
      }
      if (Other.First + Other.N == Cur.First) {
        Cur.First = Other.First;
        Cur.N += Other.N;
        return;
      }
    }
    materialize(Cur);
    materialize(Other);
    MergeTmp.clear();
    auto Push = [this](Run R) {
      if (!MergeTmp.empty() &&
          MergeTmp.back().First + MergeTmp.back().Len == R.First)
        MergeTmp.back().Len += R.Len;
      else
        MergeTmp.push_back(R);
    };
    size_t AI = 0, BI = 0;
    while (AI < Cur.Runs.size() && BI < Other.Runs.size())
      Push(Cur.Runs[AI].First < Other.Runs[BI].First ? Cur.Runs[AI++]
                                                     : Other.Runs[BI++]);
    while (AI < Cur.Runs.size())
      Push(Cur.Runs[AI++]);
    while (BI < Other.Runs.size())
      Push(Other.Runs[BI++]);
    Cur.Runs.swap(MergeTmp);
    Cur.Count += Other.Count;
    if (Cur.Runs.size() == 1) {
      Cur.First = Cur.Runs[0].First;
      Cur.N = Cur.Runs[0].Len;
      recycleRuns(std::move(Cur.Runs));
      Cur.Runs.clear();
      Cur.Count = 0;
    }
  }

  void runCopiesBatched(uint32_t CL, const Frag &Cur) {
    if (CL == bc::NoCopyList)
      return;
    const bc::CopyRange &CR = Prog.CopyRanges[CL];
    for (uint32_t CI = CR.Begin; CI < CR.Begin + CR.Count; ++CI) {
      uint16_t DR = Prog.CopyPool[CI].Dst, SR = Prog.CopyPool[CI].Src;
      Val32 *DV = valRow(DR);
      const Val32 *SV = valRow(SR);
      uint32_t *DB = baseRow(DR);
      const uint32_t *SB = baseRow(SR);
      int32_t *DO_ = offRow(DR);
      const int32_t *SO = offRow(SR);
      if (Cur.dense()) {
        size_t Begin = Cur.First, Count = Cur.N;
        std::memcpy(DV + Begin, SV + Begin, Count * sizeof(Val32));
        std::memcpy(DB + Begin, SB + Begin, Count * sizeof(uint32_t));
        std::memcpy(DO_ + Begin, SO + Begin, Count * sizeof(int32_t));
      } else {
        for (const Run &R : Cur.Runs) {
          std::memcpy(DV + R.First, SV + R.First, R.Len * sizeof(Val32));
          std::memcpy(DB + R.First, SB + R.First, R.Len * sizeof(uint32_t));
          std::memcpy(DO_ + R.First, SO + R.First, R.Len * sizeof(int32_t));
        }
      }
    }
  }

// Walks one contiguous item range [B, E) as subranges split at wavefront
// boundaries. `Full` marks a subrange that is an entire wavefront (so the
// fragment owns every item of that wavefront for this instruction).
#define WF_CHUNK_WALK(B, E, CB, CE, Full, ...)                                 \
  for (uint32_t CB = (B), ChunkEnd_ = (E); CB < ChunkEnd_;) {                  \
    uint32_t WfEnd_ = std::min((CB / WfSize + 1) * WfSize,                     \
                               static_cast<uint32_t>(BN));                     \
    uint32_t CE = std::min(WfEnd_, ChunkEnd_);                                 \
    bool Full = CB % WfSize == 0 && CE == WfEnd_;                              \
    { __VA_ARGS__ }                                                            \
    CB = CE;                                                                   \
  }

// Iterates the current fragment as wavefront-split chunks (see above).
#define FOR_WF_CHUNKS(CB, CE, Full, ...)                                       \
  if (Cur.dense()) {                                                           \
    WF_CHUNK_WALK(Cur.First, Cur.First + Cur.N, CB, CE, Full, __VA_ARGS__)     \
  } else {                                                                     \
    for (const Run &Run_ : Cur.Runs) {                                         \
      WF_CHUNK_WALK(Run_.First, Run_.First + Run_.Len, CB, CE, Full,           \
                    __VA_ARGS__)                                               \
    }                                                                          \
  }

// Iterates the current fragment's items; both arms are contiguous
// counted loops the compiler unrolls and vectorizes -- a sparse fragment
// is a list of runs, so only the per-run setup is scalar.
#define FOR_ITEMS(It, ...)                                                     \
  if (Cur.dense()) {                                                           \
    for (uint32_t It = Cur.First, ItEnd_ = Cur.First + Cur.N; It < ItEnd_;     \
         ++It) {                                                               \
      __VA_ARGS__                                                              \
    }                                                                          \
  } else {                                                                     \
    for (const Run &Run_ : Cur.Runs)                                           \
      for (uint32_t It = Run_.First, ItEnd_ = Run_.First + Run_.Len;           \
           It < ItEnd_; ++It) {                                                \
        __VA_ARGS__                                                            \
      }                                                                        \
  }

// Returns a fault, first adding the AluOps counted so far to the group.
#define BT_FAULT(...)                                                          \
  do {                                                                         \
    Group.AluOps += Alu;                                                       \
    return makeError(__VA_ARGS__);                                             \
  } while (0)

  //===--- Memory accesses: one path per address space -----------------------//
  //
  // A gep-folded op (Folded) adds the gep's index to the pointer's offset
  // and charges the gep's AluOp for every item whose address it computes,
  // as the unfused Gep would.

  /// The planes a load or store reads and writes: its pointer's base and
  /// offset, the gep index a folded op adds, and the value it loads into
  /// or stores from.
  template <bool Folded, bool Store> struct Access {
    const uint32_t *Base;
    const int32_t *Off;
    const Val32 *Idx;
    Val32 *Val;

    int32_t offset(uint32_t It) const {
      if constexpr (Folded)
        return irns::wrapIntAdd(Off[It], Idx[It].I);
      return Off[It];
    }
    /// Moves item \p It's value to or from \p Word.
    void move(uint32_t &Word, uint32_t It) const {
      if constexpr (Store)
        Word = static_cast<uint32_t>(Val[It].I);
      else
        Val[It].I = static_cast<int32_t>(Word);
    }
  };

  /// Loads are Dst = *(A + B), stores *(B + C) = A (B or C the folded
  /// gep's index).
  template <bool Folded, bool Store>
  Access<Folded, Store> accessOf(const bc::Instr &I) {
    uint16_t Ptr = Store ? I.B : I.A;
    return {baseRow(Ptr), offRow(Ptr), Folded ? valRow(Store ? I.C : I.B)
                                              : nullptr,
            valRow(Store ? I.A : I.Dst)};
  }

  template <bool Folded, bool Store>
  Error accessGlobal(const bc::Instr &I, const Frag &Cur, uint64_t &Alu) {
    const Access<Folded, Store> P = accessOf<Folded, Store>(I);
    if constexpr (!Store) {
      // A fragment whose pointers all carry the same in-bounds buffer
      // (the common case: the chain descends from one buffer argument)
      // hoists the per-buffer transaction bitmap and folds the wavefront
      // id per chunk; anything else -- mixed bases or a potential fault --
      // takes the per-item loop below.
      uint32_t Base0 = P.Base[Cur.first()];
      const BufRef &Bf = Bufs[Base0];
      bool OneBuffer = true;
      FOR_ITEMS(It, {
        int32_t Off = P.offset(It);
        OneBuffer &= P.Base[It] == Base0 && Off >= 0 &&
                     static_cast<size_t>(Off) < Bf.Size;
      })
      if (OneBuffer) {
        if constexpr (Folded)
          Alu += Cur.size();
        uint32_t *Seen = Acct.readBitmap(Base0);
        const uint32_t WfSize = Device.WavefrontSize;
        FOR_WF_CHUNKS(CB, CE, Full, {
          (void)Full;
          const unsigned WfIdx = CB / WfSize;
          for (uint32_t It = CB; It < CE; ++It) {
            int32_t Off = P.offset(It);
            P.move(Bf.Data[Off], It);
            Acct.markRead(Seen, static_cast<uint64_t>(Off), WfIdx);
          }
        })
        Group.GlobalReads += Cur.size();
        return Error::success();
      }
    }
    uint32_t *ExecRow = GlobalExec.data() + static_cast<size_t>(I.Aux) * BN;
    FOR_ITEMS(It, {
      if constexpr (Folded)
        ++Alu;
      uint32_t Base = P.Base[It];
      const BufRef &B = Bufs[Base];
      int32_t Off = P.offset(It);
      if (Off < 0 || static_cast<size_t>(Off) >= B.Size)
        BT_FAULT("kernel '%s': global %s out of bounds (buffer %u, offset "
                 "%d, size %zu)",
                 F.name().c_str(), Store ? "write" : "read", Base, Off,
                 B.Size);
      P.move(B.Data[Off], It);
      if constexpr (Store)
        Acct.noteWrite(I.Aux, ExecRow[It]++, Base, static_cast<uint64_t>(Off),
                       WfA[It]);
      else
        Acct.noteRead(Base, static_cast<uint64_t>(Off), WfA[It]);
    })
    (Store ? Group.GlobalWrites : Group.GlobalReads) += Cur.size();
    return Error::success();
  }

  template <bool Folded, bool Store>
  Error accessLocal(const bc::Instr &I, const Frag &Cur, uint64_t &Alu) {
    const Access<Folded, Store> P = accessOf<Folded, Store>(I);
    uint32_t *Lds = LocalArena.data();
    uint32_t *ExecRow = LocalExec.data() + static_cast<size_t>(I.Aux) * BN;
    const uint32_t WfSize = Device.WavefrontSize;
    const uint32_t Banks = Device.NumLocalBanks;
    FOR_WF_CHUNKS(CB, CE, Full, {
      // A chunk that owns its whole wavefront with one shared exec
      // instance owns the (op, exec, wavefront) accounting key outright:
      // fold it on a stack histogram and never touch the persistent
      // tables (the key cannot recur -- exec advances). Devices with more
      // banks than the histogram holds take the tables.
      bool Fold = false;
      if (Full && Banks <= MaxFastBanks) {
        uint32_t E0 = ExecRow[CB];
        uint32_t Off0 = static_cast<uint32_t>(P.offset(CB));
        uint32_t Bad = 0, NonCon = 0;
        for (uint32_t It = CB; It < CE; ++It) {
          uint32_t Off = static_cast<uint32_t>(P.offset(It));
          Bad |= (ExecRow[It] ^ E0) | (Off >= Prog.LocalWords ? 1u : 0u);
          NonCon |= Off ^ (Off0 + (It - CB));
        }
        Fold = Bad == 0;
        if (Fold) {
          uint32_t Max = 0;
          if (NonCon == 0) {
            // Consecutive offsets cycle through the banks, so the
            // conflict profile is closed-form and the move is one
            // straight copy.
            size_t Bytes = (CE - CB) * sizeof(uint32_t);
            if constexpr (Store)
              std::memcpy(Lds + Off0, P.Val + CB, Bytes);
            else
              std::memcpy(P.Val + CB, Lds + Off0, Bytes);
            Max = (CE - CB + Banks - 1) / Banks;
          } else {
            uint32_t Hist[MaxFastBanks];
            std::fill_n(Hist, Banks, 0u);
            for (uint32_t It = CB; It < CE; ++It) {
              int32_t Off = P.offset(It);
              P.move(Lds[Off], It);
              Max = std::max(Max, ++Hist[Acct.bankOf(Off)]);
            }
          }
          std::fill(ExecRow + CB, ExecRow + CE, E0 + 1);
          if constexpr (Folded)
            Alu += CE - CB;
          Acct.noteLocalGroup(Max);
        }
      }
      if (!Fold) {
        for (uint32_t It = CB; It < CE; ++It) {
          if constexpr (Folded)
            ++Alu;
          int32_t Off = P.offset(It);
          if (Off < 0 || static_cast<uint32_t>(Off) >= Prog.LocalWords)
            BT_FAULT("kernel '%s': local %s out of bounds (offset %d, size "
                     "%u words)",
                     F.name().c_str(), Store ? "write" : "read", Off,
                     Prog.LocalWords);
          P.move(Lds[Off], It);
          Acct.noteLocal(I.Aux, ExecRow[It]++, Off, WfA[It]);
        }
      }
    })
    Group.LocalAccesses += Cur.size();
    return Error::success();
  }

  template <bool Folded, bool Store>
  Error accessPrivate(const bc::Instr &I, const Frag &Cur, uint64_t &Alu) {
    const Access<Folded, Store> P = accessOf<Folded, Store>(I);
    uint32_t *Priv = PrivArena.data();
    FOR_ITEMS(It, {
      if constexpr (Folded)
        ++Alu;
      int32_t Off = P.offset(It);
      if (Off < 0 || static_cast<uint32_t>(Off) >= Prog.PrivateWords)
        BT_FAULT("kernel '%s': private %s out of bounds", F.name().c_str(),
                 Store ? "write" : "read");
      P.move(Priv[static_cast<size_t>(It) * Prog.PrivateWords + Off], It);
    })
    Group.PrivateAccesses += Cur.size();
    return Error::success();
  }

  //===--- Branches ----------------------------------------------------------//

  /// Writes compare \p Cmp of planes \p A and \p B to \p D for each item
  /// of \p Cur.
  void compare(bc::Op Cmp, const Frag &Cur, Val32 *D, const Val32 *A,
               const Val32 *B) {
    switch (Cmp) {
#define KPERF_CMP_CASE(Name, Field, Rel)                                       \
  case bc::Op::Name:                                                           \
    FOR_ITEMS(It, D[It].I = A[It].Field Rel B[It].Field;)                      \
    break;
      KPERF_BC_CMPS(KPERF_CMP_CASE)
#undef KPERF_CMP_CASE
    default:
      break;
    }
  }

  /// Sends the items of \p Cur down the edges of branch \p I (JmpIf or a
  /// fused JmpCmp): all of them along one edge, where Cur stays whole, or
  /// split into a taken and a not-taken fragment appended to \p Frags.
  /// Returns whether Cur stays. A fused compare is evaluated for every
  /// item before any edge copy can clobber an operand register. A
  /// condition ir::DivergenceAnalysis proved uniform (bc::FlagUniformCond)
  /// is read, or its compare evaluated, for the first item only, and the
  /// per-item scan and split are skipped.
  bool branch(const bc::Instr &I, Frag &Cur, std::vector<Frag> &Frags) {
    const bool Uniform = I.Flags & bc::FlagUniformCond;
    const Val32 *Cond = valRow(I.A);
    if (I.Opc != bc::Op::JmpIf) {
      Frag Lead;
      Lead.First = Cur.first();
      Lead.N = 1;
      bc::Op Base = I.Opc == bc::Op::JmpCmpF ? bc::Op::CmpEqF : bc::Op::CmpEqI;
      compare(static_cast<bc::Op>(static_cast<unsigned>(Base) + I.Sub),
              Uniform ? Lead : Cur, CondRow.data(), valRow(I.A), valRow(I.B));
      Cond = CondRow.data();
    }
    size_t Taken = 0;
    if (Uniform) {
      Taken = Cond[Cur.first()].I != 0 ? Cur.size() : 0;
    } else {
      FOR_ITEMS(It, Taken += Cond[It].I != 0 ? 1 : 0;)
    }
    if (Taken == Cur.size()) {
      runCopiesBatched(I.CL0, Cur);
      Cur.Pc = static_cast<uint32_t>(I.Imm);
      return true;
    }
    if (Taken == 0) {
      runCopiesBatched(I.CL1, Cur);
      Cur.Pc = I.Aux;
      return true;
    }
    Frag FT, FN;
    FT.Runs = takeRuns();
    FN.Runs = takeRuns();
    auto Append = [](Frag &Fr, uint32_t It) {
      if (!Fr.Runs.empty() && Fr.Runs.back().First + Fr.Runs.back().Len == It)
        ++Fr.Runs.back().Len;
      else
        Fr.Runs.push_back({It, 1});
      ++Fr.Count;
    };
    FOR_ITEMS(It, Append(Cond[It].I != 0 ? FT : FN, It);)
    FT.Pc = static_cast<uint32_t>(I.Imm);
    FN.Pc = I.Aux;
    runCopiesBatched(I.CL0, FT);
    runCopiesBatched(I.CL1, FN);
    Frags.push_back(std::move(FT));
    Frags.push_back(std::move(FN));
    return false;
  }

  //===--- The group's instruction loop --------------------------------------//

  Error runGroupBatched() {
    uint64_t Alu = 0;
    unsigned Alive = BN;
    uint32_t PhasePc = 0;
    std::vector<Frag> Frags;

    while (Alive > 0) {
      // Phase entry: a successful phase ends with every item stopped at
      // the same barrier or every item returned, so each phase starts
      // with the full dense group at a common pc.
      Frag Init;
      Init.First = 0;
      Init.N = BN;
      Init.Pc = PhasePc;
      for (Frag &Fr : Frags)
        recycleRuns(std::move(Fr.Runs));
      Frags.clear();
      Frags.push_back(std::move(Init));

      std::vector<uint32_t> BarPcs;
      unsigned Stopped = 0, Returned = 0;

      while (!Frags.empty()) {
        // Pick the lowest-pc fragment and absorb every fragment already
        // at the same pc, so paths reconverge before executing it.
        size_t MinIdx = 0;
        for (size_t FI = 1; FI < Frags.size(); ++FI)
          if (Frags[FI].Pc < Frags[MinIdx].Pc)
            MinIdx = FI;
        Frag Cur = std::move(Frags[MinIdx]);
        Frags.erase(Frags.begin() + static_cast<ptrdiff_t>(MinIdx));
        for (size_t FI = 0; FI < Frags.size();) {
          if (Frags[FI].Pc != Cur.Pc) {
            ++FI;
            continue;
          }
          mergeFrag(Cur, Frags[FI]);
          recycleRuns(std::move(Frags[FI].Runs));
          Frags.erase(Frags.begin() + static_cast<ptrdiff_t>(FI));
        }

      // While no other fragment is pending (control flow is uniform --
      // the common case), keep executing Cur without round-tripping it
      // through the fragment list; the executed instruction sequence is
      // identical to the general path's.
      ExecuteCur:
        const bc::Instr &I = Prog.Code[Cur.Pc];
        bool Reinsert = true;

        switch (I.Opc) {
        case bc::Op::AllocaP:
        case bc::Op::AllocaL: {
          uint32_t *DB = baseRow(I.Dst);
          int32_t *DO_ = offRow(I.Dst);
          FOR_ITEMS(It, DB[It] = 0; DO_[It] = I.Imm;)
          ++Cur.Pc;
          break;
        }
#define KPERF_ACCESS_CASE(Name, Space, Folded, Store)                          \
  case bc::Op::Name:                                                           \
    if (Error E = access##Space<Folded, Store>(I, Cur, Alu))                   \
      return E;                                                                \
    ++Cur.Pc;                                                                  \
    break;
        KPERF_ACCESS_CASE(LdG, Global, false, false)
        KPERF_ACCESS_CASE(LdGX, Global, true, false)
        KPERF_ACCESS_CASE(StG, Global, false, true)
        KPERF_ACCESS_CASE(StGX, Global, true, true)
        KPERF_ACCESS_CASE(LdL, Local, false, false)
        KPERF_ACCESS_CASE(LdLX, Local, true, false)
        KPERF_ACCESS_CASE(StL, Local, false, true)
        KPERF_ACCESS_CASE(StLX, Local, true, true)
        KPERF_ACCESS_CASE(LdP, Private, false, false)
        KPERF_ACCESS_CASE(LdPX, Private, true, false)
        KPERF_ACCESS_CASE(StP, Private, false, true)
        KPERF_ACCESS_CASE(StPX, Private, true, true)
#undef KPERF_ACCESS_CASE
        case bc::Op::Gep: {
          const uint32_t *PB = baseRow(I.A);
          const int32_t *PO = offRow(I.A);
          const Val32 *Idx = valRow(I.B);
          uint32_t *DB = baseRow(I.Dst);
          int32_t *DO_ = offRow(I.Dst);
          FOR_ITEMS(It, DB[It] = PB[It];
                    DO_[It] = irns::wrapIntAdd(PO[It], Idx[It].I);)
          Alu += Cur.size();
          ++Cur.Pc;
          break;
        }

        // Lane-wise ops: each item's result from its own operands.
#define KPERF_LANE_CASE(Name, AluOps, Field, Expr)                             \
  case bc::Op::Name: {                                                         \
    const Val32 *RA = valRow(I.A), *RB = valRow(I.B), *RC = valRow(I.C);       \
    Val32 *D = valRow(I.Dst);                                                  \
    FOR_ITEMS(It, {                                                            \
      [[maybe_unused]] const Val32 X = RA[It], Y = RB[It], Z = RC[It];         \
      D[It].Field = (Expr);                                                    \
    })                                                                         \
    Alu += (AluOps) * Cur.size();                                              \
    ++Cur.Pc;                                                                  \
    break;                                                                     \
  }
#define KPERF_CMP_LANE_CASE(Name, Field, Rel)                                  \
  KPERF_LANE_CASE(Name, 1, I, X.Field Rel Y.Field)
        KPERF_BC_LANE_OPS(KPERF_LANE_CASE)
        KPERF_BC_CMPS(KPERF_CMP_LANE_CASE)
#undef KPERF_CMP_LANE_CASE
#undef KPERF_LANE_CASE

        case bc::Op::DivI:
        case bc::Op::RemI: {
          const Val32 *A = valRow(I.A), *B = valRow(I.B);
          Val32 *D = valRow(I.Dst);
          // One vectorized scan classifies the fragment: a zero divisor
          // forces the faulting per-item loop (AluOps must stop at the
          // faulting item), while a uniform divisor -- the common shape,
          // index arithmetic by a constant -- divides in double
          // precision, which auto-vectorizes where hardware integer
          // division cannot. Exact: the quotient's rounding error is
          // below 1/|b| whenever |a|*|b| < 2^52, so truncation recovers
          // the integer result.
          int32_t B0 = B[Cur.first()].I;
          uint32_t ZeroAcc = 0, NonUni = 0;
          FOR_ITEMS(It, {
            ZeroAcc |= B[It].I == 0 ? 1u : 0u;
            NonUni |= static_cast<uint32_t>(B[It].I ^ B0);
          })
          bool Uniform = NonUni == 0;
          if (ZeroAcc != 0) {
            FOR_ITEMS(It, {
              ++Alu;
              if (B[It].I == 0)
                BT_FAULT("kernel '%s': integer division by zero",
                         F.name().c_str());
              D[It].I = I.Opc == bc::Op::DivI
                            ? ir::wrapIntDiv(A[It].I, B[It].I)
                            : ir::wrapIntRem(A[It].I, B[It].I);
            })
          } else if (Uniform && B0 != -1) {
            const double Dv = B0;
            if (I.Opc == bc::Op::DivI) {
              FOR_ITEMS(It, D[It].I = static_cast<int32_t>(A[It].I / Dv);)
            } else {
              FOR_ITEMS(It, {
                int32_t Q = static_cast<int32_t>(A[It].I / Dv);
                D[It].I = A[It].I - Q * B0;
              })
            }
            Alu += Cur.size();
          } else if (I.Opc == bc::Op::DivI) {
            FOR_ITEMS(It, D[It].I = ir::wrapIntDiv(A[It].I, B[It].I);)
            Alu += Cur.size();
          } else {
            FOR_ITEMS(It, D[It].I = ir::wrapIntRem(A[It].I, B[It].I);)
            Alu += Cur.size();
          }
          ++Cur.Pc;
          break;
        }
        case bc::Op::Sel: {
          const Val32 *C = valRow(I.A);
          const Val32 *AV = valRow(I.B), *BV = valRow(I.C);
          Val32 *DV = valRow(I.Dst);
          if (I.Sub != 0) { // Scalar select: pointer planes are dead.
            FOR_ITEMS(It, DV[It] = C[It].I != 0 ? AV[It] : BV[It];)
          } else {
            const uint32_t *AB = baseRow(I.B), *BB = baseRow(I.C);
            const int32_t *AO = offRow(I.B), *BO = offRow(I.C);
            uint32_t *DB = baseRow(I.Dst);
            int32_t *DO_ = offRow(I.Dst);
            FOR_ITEMS(It, {
              bool T = C[It].I != 0;
              DV[It] = T ? AV[It] : BV[It];
              DB[It] = T ? AB[It] : BB[It];
              DO_[It] = T ? AO[It] : BO[It];
            })
          }
          Alu += Cur.size();
          ++Cur.Pc;
          break;
        }
        case bc::Op::DimQuery: {
          const Val32 *A = valRow(I.A);
          Val32 *D = valRow(I.Dst);
          irns::Builtin B = static_cast<irns::Builtin>(I.Sub);
          if (B == irns::Builtin::GetGlobalId) {
            int32_t BaseX = static_cast<int32_t>(GroupX * Local.X);
            int32_t BaseY = static_cast<int32_t>(GroupY * Local.Y);
            FOR_ITEMS(It, D[It].I = A[It].I == 0
                                        ? BaseX + static_cast<int32_t>(LxA[It])
                                        : BaseY + static_cast<int32_t>(LyA[It]);)
          } else if (B == irns::Builtin::GetLocalId) {
            FOR_ITEMS(It, D[It].I = A[It].I == 0
                                        ? static_cast<int32_t>(LxA[It])
                                        : static_cast<int32_t>(LyA[It]);)
          } else {
            unsigned X = 0, Y = 0;
            uniformDims(B, X, Y);
            FOR_ITEMS(It, D[It].I = A[It].I == 0 ? static_cast<int32_t>(X)
                                                 : static_cast<int32_t>(Y);)
          }
          Alu += Cur.size();
          ++Cur.Pc;
          break;
        }
        case bc::Op::Bar: {
          Group.Barriers += Cur.size();
          uint32_t ResumePc = Cur.Pc + 1;
          if (std::find(BarPcs.begin(), BarPcs.end(), ResumePc) ==
              BarPcs.end())
            BarPcs.push_back(ResumePc);
          Stopped += Cur.size();
          Reinsert = false;
          break;
        }
        case bc::Op::Jmp: {
          runCopiesBatched(I.CL0, Cur);
          Alu += Cur.size();
          Cur.Pc = static_cast<uint32_t>(I.Imm);
          break;
        }
        case bc::Op::JmpIf:
        case bc::Op::JmpCmpI:
        case bc::Op::JmpCmpF:
          // A fused compare charges its own AluOp besides the branch's.
          Alu += (I.Opc == bc::Op::JmpIf ? 1 : 2) * Cur.size();
          Reinsert = branch(I, Cur, Frags);
          break;
        case bc::Op::Ret: {
          Returned += Cur.size();
          Reinsert = false;
          break;
        }
        }

        if (Reinsert) {
          if (Frags.empty())
            goto ExecuteCur;
          Frags.push_back(std::move(Cur));
        } else {
          recycleRuns(std::move(Cur.Runs));
        }
      }

      if (BarPcs.size() > 1) {
        Group.AluOps += Alu;
        return makeError("kernel '%s': divergent barriers in work group "
                         "(%u,%u)",
                         F.name().c_str(), GroupX, GroupY);
      }
      if (Stopped != 0 && Returned != 0) {
        Group.AluOps += Alu;
        return makeError(
            "kernel '%s': barrier not reached by all items of group (%u,%u)",
            F.name().c_str(), GroupX, GroupY);
      }
      Alive = Stopped;
      if (Stopped != 0)
        PhasePc = BarPcs[0];
    }
    Group.AluOps += Alu;
    return Error::success();
  }

#undef FOR_ITEMS
#undef FOR_WF_CHUNKS
#undef WF_CHUNK_WALK
#undef BT_FAULT

  //===--- Members -----------------------------------------------------------//

  const bc::Program &Prog;
  const irns::Function &F;
  Range2 Global, Local;
  const std::vector<KernelArg> &Args;
  std::vector<BufferData *> Buffers;
  const DeviceConfig &Device;

  /// Raw snapshot of one buffer (data pointer and size in words).
  struct BufRef {
    uint32_t *Data = nullptr;
    size_t Size = 0;
  };

  unsigned BN = 0; ///< Items per work group.
  std::vector<BufRef> Bufs;
  std::vector<uint32_t> LxA, LyA, WfA; ///< Per-item geometry.

  std::vector<Val32> BVal; ///< Register value plane (SoA).
  std::vector<uint32_t> BBase;
  std::vector<int32_t> BOff;

  std::vector<uint32_t> PrivArena;
  std::vector<uint32_t> LocalArena;
  /// Per-item exec instance counters, laid out [op*items+item] so one
  /// instruction's row is contiguous. Only writes maintain the global
  /// table (read keys carry no exec instance).
  std::vector<uint32_t> GlobalExec;
  std::vector<uint32_t> LocalExec;

  std::vector<Run> MergeTmp;
  std::vector<std::vector<Run>> RunPool; ///< Retired run lists for reuse.
  std::vector<Val32> CondRow; ///< A fused compare's per-item results.

  unsigned GroupX = 0, GroupY = 0;
  Counters Group;
  MemAccounting Acct;
};

} // namespace

Expected<SimReport> sim::launchBytecode(
    const bc::Program &Prog, const ir::Function &F, Range2 Global,
    Range2 Local, const std::vector<KernelArg> &Args,
    const std::vector<BufferData *> &Buffers, const DeviceConfig &Device) {
  return BcExecutor(Prog, F, Global, Local, Args, Buffers, Device).run();
}

//===--- Tier selection -----------------------------------------------------//

const char *sim::execTierName(ExecTier Tier) {
  return Tier == ExecTier::Batched ? "batched" : "tree";
}

bool sim::parseExecTier(const std::string &Name, ExecTier &Tier) {
  if (Name == "tree")
    Tier = ExecTier::Tree;
  else if (Name == "batched")
    Tier = ExecTier::Batched;
  else
    return false;
  return true;
}

ExecTier sim::defaultExecTier() {
  ExecTier Tier = ExecTier::Tree;
  const char *Env = std::getenv("KPERF_EXEC_TIER");
  if (Env && !parseExecTier(Env, Tier)) {
    static std::atomic<bool> Warned{false};
    if (!Warned.exchange(true))
      std::fprintf(stderr,
                   "kperf: unknown KPERF_EXEC_TIER '%s' (expected "
                   "tree|batched); using tree\n",
                   Env);
  }
  return Tier;
}

Expected<SimReport> sim::launchKernel(const ir::Function &F, Range2 Global,
                                      Range2 Local,
                                      const std::vector<KernelArg> &Args,
                                      const std::vector<BufferData *> &Buffers,
                                      const DeviceConfig &Device,
                                      const LaunchOptions &Options) {
  if (Options.Tier == ExecTier::Tree)
    return launchKernel(F, Global, Local, Args, Buffers, Device);
  if (Options.Program)
    return launchBytecode(*Options.Program, F, Global, Local, Args, Buffers,
                          Device);
  Expected<bc::Program> Prog = bc::compile(F);
  if (!Prog)
    return Prog.takeError();
  return launchBytecode(*Prog, F, Global, Local, Args, Buffers, Device);
}
