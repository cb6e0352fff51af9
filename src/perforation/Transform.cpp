//===- perforation/Transform.cpp -------------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "perforation/Transform.h"

#include "ir/Clone.h"
#include "ir/Passes.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <functional>

using namespace kperf;
using namespace kperf::perf;
namespace irns = kperf::ir;

namespace {

/// Translates an access summary of the original kernel into the clone:
/// every IR handle (loads, GEPs, row/column values, buffer and width
/// arguments) is pushed through the clone map. This is what lets the
/// analysis itself be cached on the original function while each variant
/// rewrites its own copy.
KernelAccessInfo remapAccessInfo(const KernelAccessInfo &Orig,
                                 const irns::CloneMap &Map) {
  auto MapArg = [&](const irns::Argument *A) {
    return irns::cast<irns::Argument>(Map.lookup(A));
  };
  auto MapInstr = [&](const irns::Instruction *I) {
    return irns::cast<irns::Instruction>(Map.lookup(I));
  };
  // Copy wholesale, then rewrite only the IR handles: fields added to
  // the analysis structs later stay correct on this path automatically.
  KernelAccessInfo Out = Orig;
  for (BufferAccess &A : Out.Inputs) {
    A.Buffer = MapArg(A.Buffer);
    A.WidthArg = MapArg(A.WidthArg);
    for (LoadSite &L : A.Loads) {
      L.Load = MapInstr(L.Load);
      L.Gep = MapInstr(L.Gep);
      L.RowVal = Map.lookup(L.RowVal);
      L.ColVal = Map.lookup(L.ColVal);
    }
  }
  for (StoreSite &S : Out.Outputs) {
    S.Store = MapInstr(S.Store);
    S.Gep = MapInstr(S.Gep);
    S.RowVal = Map.lookup(S.RowVal);
    S.ColVal = Map.lookup(S.ColVal);
    S.StoredValue = Map.lookup(S.StoredValue);
    S.Buffer = MapArg(S.Buffer);
    S.WidthArg = MapArg(S.WidthArg);
  }
  return Out;
}

/// Builds the perforated kernel. The preamble CFG (loader loops, barrier,
/// reconstruction loops, barrier) is emitted into fresh blocks inserted
/// before the cloned original entry; the body rewrite then redirects the
/// matched loads into the tiles.
class TransformImpl {
public:
  TransformImpl(irns::Module &M, irns::Function &F,
                const PerforationPlan &Plan, const std::string &NewName,
                irns::AnalysisManager *AM)
      : M(M), OrigF(F), Plan(Plan), NewName(NewName), AM(AM), B(M) {}

  Expected<TransformResult> run() {
    if (Plan.TileX == 0 || Plan.TileY == 0)
      return makeError("perforation: zero tile size");
    if ((Plan.Scheme.Kind == SchemeKind::Rows ||
         Plan.Scheme.Kind == SchemeKind::Cols ||
         Plan.Scheme.Kind == SchemeKind::Grid) &&
        Plan.Scheme.Period < 2)
      return makeError(
          "perforation: rows/cols/grid scheme needs period >= 2");

    // Reject kernels that already orchestrate local memory themselves.
    for (const auto &BB : OrigF.blocks())
      for (const auto &I : BB->instructions()) {
        if (I->opcode() == irns::Opcode::Alloca &&
            I->allocaSpace() == irns::AddressSpace::Local)
          return makeError("perforation: kernel '%s' already uses local "
                           "memory",
                           OrigF.name().c_str());
        if (I->opcode() == irns::Opcode::Call &&
            I->callee() == irns::Builtin::Barrier)
          return makeError("perforation: kernel '%s' already uses barriers",
                           OrigF.name().c_str());
      }

    // Validate the cleanup pipeline before any IR is created.
    Expected<irns::PassPipeline> Pipeline =
        irns::PassPipeline::parse(Plan.PipelineSpec);
    if (!Pipeline)
      return Pipeline.takeError();

    // Analyze the original (cached across variants when the caller
    // passes an analysis manager), pick the targets and check their
    // tiles, all before any IR is created: a refused plan leaves the
    // module as it was.
    irns::AnalysisManager LocalAM;
    Expected<const KernelAccessInfo *> InfoOr =
        analyzeKernelAccessesCached(AM ? *AM : LocalAM, OrigF);
    if (!InfoOr)
      return InfoOr.takeError();
    const KernelAccessInfo &OrigInfo = **InfoOr;

    std::vector<size_t> TargetIdx;
    if (Plan.BufferArgs.empty()) {
      for (size_t I = 0; I < OrigInfo.Inputs.size(); ++I)
        TargetIdx.push_back(I);
    } else {
      for (unsigned ArgIndex : Plan.BufferArgs) {
        const BufferAccess *A = OrigInfo.inputForArg(ArgIndex);
        if (!A)
          return makeError("perforation: argument %u of '%s' is not a "
                           "recognized 2-D input buffer",
                           ArgIndex, OrigF.name().c_str());
        TargetIdx.push_back(static_cast<size_t>(A - OrigInfo.Inputs.data()));
      }
    }
    if (TargetIdx.empty())
      return makeError("perforation: no perforatable input buffer in '%s'",
                       OrigF.name().c_str());
    for (size_t I : TargetIdx)
      if (Error E = checkPeriodFitsTile(OrigInfo.Inputs[I]))
        return E;

    // Translate the summary into the clone.
    irns::CloneMap Map;
    F = irns::cloneFunction(M, OrigF, NewName, Map);
    Info = remapAccessInfo(OrigInfo, Map);
    std::vector<const BufferAccess *> Targets;
    for (size_t I : TargetIdx)
      Targets.push_back(&Info.Inputs[I]);

    buildPreambleSkeleton();
    // Materialize all tiles and origins in the entry block before any
    // loader terminates it.
    for (const BufferAccess *A : Targets)
      tileFor(*A);
    for (const BufferAccess *A : Targets)
      emitLoader(*A);
    emitBarrier();
    bool AnyRecon = false;
    for (const BufferAccess *A : Targets)
      AnyRecon |= emitReconstruction(*A);
    if (AnyRecon)
      emitBarrier();
    finishPreamble();
    for (const BufferAccess *A : Targets)
      rewriteBody(*A);

    // The generated kernel is fresh, so the cleanup pipeline runs with
    // its own analysis state.
    irns::PassRunOptions RunOpts;
    RunOpts.VerifyEach = Plan.VerifyEach;
    Expected<irns::PipelineStats> Stats = Pipeline->run(*F, M, RunOpts);
    if (!Stats)
      return Stats.takeError();
    TransformResult Result;
    Result.PassStats = Stats.takeValue();
    if (Error E = irns::verifyFunction(*F))
      return E;

    Result.Kernel = F;
    Result.LocalX = Plan.TileX;
    Result.LocalY = Plan.TileY;
    Result.LocalMemWords = LocalWords;
    return Result;
  }

private:
  /// Per-buffer tile bookkeeping.
  struct TileInfo {
    irns::Value *Tile = nullptr;    ///< Local alloca.
    irns::Value *OriginX = nullptr; ///< Global coordinate of tile col 0.
    irns::Value *OriginY = nullptr;
    unsigned TileW = 0;
    unsigned TileH = 0;
    unsigned HaloX = 0;
    unsigned HaloY = 0;
  };

  /// Refuses a period longer than \p A's tile on a perforated axis. The
  /// tile spans the work-group edge plus a halo on each side; with fewer
  /// lines than the period, some tiles hold no loaded line at all, and
  /// reconstructing them would read outside the tile.
  Error checkPeriodFitsTile(const BufferAccess &A) const {
    SchemeKind K = Plan.Scheme.Kind;
    unsigned Period = Plan.Scheme.Period;
    unsigned HaloY = static_cast<unsigned>(A.haloY());
    unsigned HaloX = static_cast<unsigned>(A.haloX());
    unsigned Rows = Plan.TileY + 2 * HaloY;
    unsigned Cols = Plan.TileX + 2 * HaloX;
    bool PerfRows = K == SchemeKind::Rows || K == SchemeKind::Grid;
    bool PerfCols = K == SchemeKind::Cols || K == SchemeKind::Grid;
    if (PerfRows && Period > Rows)
      return makeError("perforation: period %u exceeds the %u rows of the "
                       "%ux%u tile of '%s' (halo %u above and below)",
                       Period, Rows, Plan.TileX, Plan.TileY,
                       A.Buffer->name().c_str(), HaloY);
    if (PerfCols && Period > Cols)
      return makeError("perforation: period %u exceeds the %u columns of "
                       "the %ux%u tile of '%s' (halo %u left and right)",
                       Period, Cols, Plan.TileX, Plan.TileY,
                       A.Buffer->name().c_str(), HaloX);
    return Error::success();
  }

  /// Creates a fresh block placed before the original blocks and after the
  /// previously created preamble blocks.
  irns::BasicBlock *newBlock(const std::string &Name) {
    return F->createBlockAt(NextBlockPos++, Name);
  }

  void buildPreambleSkeleton() {
    irns::BasicBlock *Entry = newBlock("perf.entry");
    B.setInsertPoint(Entry);
    Lx = B.createCall(irns::Builtin::GetLocalId, {B.getInt(0)}, "lx");
    Ly = B.createCall(irns::Builtin::GetLocalId, {B.getInt(1)}, "ly");
    GlobalW =
        B.createCall(irns::Builtin::GetGlobalSize, {B.getInt(0)}, "gw");
    GlobalH =
        B.createCall(irns::Builtin::GetGlobalSize, {B.getInt(1)}, "gh");
    irns::Value *Gx0 = B.createMul(
        B.createCall(irns::Builtin::GetGroupId, {B.getInt(0)}, "grpx"),
        B.getInt(static_cast<int32_t>(Plan.TileX)), "gx0");
    irns::Value *Gy0 = B.createMul(
        B.createCall(irns::Builtin::GetGroupId, {B.getInt(1)}, "grpy"),
        B.getInt(static_cast<int32_t>(Plan.TileY)), "gy0");
    GroupOriginX = Gx0;
    GroupOriginY = Gy0;
    Lin = B.createAdd(
        B.createMul(Ly, B.getInt(static_cast<int32_t>(Plan.TileX))), Lx,
        "lin");
    EntryBlock = Entry;
  }

  /// Allocates the tile for \p A and records its geometry.
  TileInfo &tileFor(const BufferAccess &A) {
    auto It = Tiles.find(A.Buffer);
    if (It != Tiles.end())
      return It->second;
    TileInfo T;
    T.HaloX = static_cast<unsigned>(A.haloX());
    T.HaloY = static_cast<unsigned>(A.haloY());
    T.TileW = Plan.TileX + 2 * T.HaloX;
    T.TileH = Plan.TileY + 2 * T.HaloY;

    irns::IRBuilder EB(M);
    EB.setInsertPoint(EntryBlock, 0);
    T.Tile = EB.createAlloca(A.Buffer->type().scalarKind(),
                             T.TileW * T.TileH, irns::AddressSpace::Local,
                             "tile." + A.Buffer->name());
    LocalWords += T.TileW * T.TileH;

    B.setInsertPoint(EntryBlock); // Origins appended after lin etc.
    T.OriginX = B.createSub(GroupOriginX,
                            B.getInt(static_cast<int32_t>(T.HaloX)),
                            "originx." + A.Buffer->name());
    T.OriginY = B.createSub(GroupOriginY,
                            B.getInt(static_cast<int32_t>(T.HaloY)),
                            "originy." + A.Buffer->name());
    return Tiles.emplace(A.Buffer, T).first->second;
  }

  /// Emits `for (t = lin; t < Count; t += WgSize) Body(t)` as explicit CFG,
  /// in SSA form: t is the phi `<Tag>.t` heading the condition block.
  /// On return the builder is positioned in the exit block.
  void emitStridedLoop(irns::Value *Count, const std::string &Tag,
                       const std::function<void(irns::Value *)> &Body) {
    irns::BasicBlock *Preheader = B.insertBlock();
    irns::BasicBlock *CondBB = newBlock(Tag + ".cond");
    irns::BasicBlock *BodyBB = newBlock(Tag + ".body");
    irns::BasicBlock *ExitBB = newBlock(Tag + ".exit");

    B.createBr(CondBB);

    B.setInsertPoint(CondBB);
    irns::Instruction *T = B.createPhi(irns::Type::intTy(), Tag + ".t");
    B.createCondBr(B.createCmp(irns::Opcode::CmpLt, T, Count), BodyBB,
                   ExitBB);

    B.setInsertPoint(BodyBB);
    Body(T);
    irns::Value *Next = B.createAdd(
        T, B.getInt(static_cast<int32_t>(Plan.TileX * Plan.TileY)));
    T->addIncoming(Lin, Preheader);
    T->addIncoming(Next, B.insertBlock()); // The latch.
    B.createBr(CondBB);

    B.setInsertPoint(ExitBB);
  }

  /// firstLoad: smallest r >= 0 with (origin + r) % Period == 0.
  irns::Value *emitFirstLoad(irns::Value *Origin, unsigned Period,
                             const std::string &Tag) {
    irns::Value *P = B.getInt(static_cast<int32_t>(Period));
    irns::Value *M0 = B.createRem(Origin, P);
    irns::Value *M0p = B.createRem(B.createAdd(M0, P), P);
    return B.createRem(B.createSub(P, M0p), P, Tag + ".firstload");
  }

  /// Loads in[clamp(Gr)*w + clamp(Gc)] and stores it to tile slot
  /// [R*tileW + C].
  void emitTileFill(const BufferAccess &A, const TileInfo &T,
                    irns::Value *R, irns::Value *C, irns::Value *Gr,
                    irns::Value *Gc) {
    irns::Value *GrC = B.createClampInt(
        Gr, B.getInt(0), B.createSub(GlobalH, B.getInt(1)));
    irns::Value *GcC = B.createClampInt(
        Gc, B.getInt(0), B.createSub(GlobalW, B.getInt(1)));
    irns::Value *W = const_cast<irns::Argument *>(A.WidthArg);
    irns::Value *SrcIdx =
        B.createAdd(B.createMul(GrC, W), GcC);
    irns::Value *Val = B.createLoad(
        B.createGep(const_cast<irns::Argument *>(A.Buffer), SrcIdx));
    irns::Value *DstIdx = B.createAdd(
        B.createMul(R, B.getInt(static_cast<int32_t>(T.TileW))), C);
    B.createStore(Val, B.createGep(T.Tile, DstIdx));
  }

  void emitLoader(const BufferAccess &A) {
    TileInfo &T = tileFor(A);
    const std::string Tag = "load." + A.Buffer->name();
    switch (Plan.Scheme.Kind) {
    case SchemeKind::None:
      emitRowLoader(A, T, /*Period=*/1, Tag);
      break;
    case SchemeKind::Rows:
      emitRowLoader(A, T, Plan.Scheme.Period, Tag);
      break;
    case SchemeKind::Cols:
      emitColLoader(A, T, Plan.Scheme.Period, Tag);
      break;
    case SchemeKind::Stencil:
      emitStencilLoader(A, T);
      break;
    case SchemeKind::Grid:
      emitGridLoader(A, T, Plan.Scheme.Period, Tag);
      break;
    }
  }

  void emitRowLoader(const BufferAccess &A, TileInfo &T, unsigned Period,
                     const std::string &Tag) {
    irns::Value *FL = Period == 1 ? static_cast<irns::Value *>(B.getInt(0))
                                  : emitFirstLoad(T.OriginY, Period, Tag);
    // numLoadRows = (tileH - FL + Period - 1) / Period
    irns::Value *NumRows = B.createDiv(
        B.createAdd(B.createSub(B.getInt(static_cast<int32_t>(T.TileH)),
                                FL),
                    B.getInt(static_cast<int32_t>(Period - 1))),
        B.getInt(static_cast<int32_t>(Period)), Tag + ".numrows");
    irns::Value *Count = B.createMul(
        NumRows, B.getInt(static_cast<int32_t>(T.TileW)), Tag + ".count");
    irns::Value *PeriodV = B.getInt(static_cast<int32_t>(Period));
    emitStridedLoop(Count, Tag, [&](irns::Value *TIdx) {
      irns::Value *Lr = B.createDiv(
          TIdx, B.getInt(static_cast<int32_t>(T.TileW)), Tag + ".lr");
      irns::Value *C = B.createSub(
          TIdx,
          B.createMul(Lr, B.getInt(static_cast<int32_t>(T.TileW))),
          Tag + ".c");
      irns::Value *R =
          B.createAdd(FL, B.createMul(Lr, PeriodV), Tag + ".r");
      irns::Value *Gr = B.createAdd(T.OriginY, R);
      irns::Value *Gc = B.createAdd(T.OriginX, C);
      emitTileFill(A, T, R, C, Gr, Gc);
    });
  }

  void emitColLoader(const BufferAccess &A, TileInfo &T, unsigned Period,
                     const std::string &Tag) {
    irns::Value *FL = emitFirstLoad(T.OriginX, Period, Tag);
    irns::Value *NumCols = B.createDiv(
        B.createAdd(B.createSub(B.getInt(static_cast<int32_t>(T.TileW)),
                                FL),
                    B.getInt(static_cast<int32_t>(Period - 1))),
        B.getInt(static_cast<int32_t>(Period)), Tag + ".numcols");
    irns::Value *Count = B.createMul(
        NumCols, B.getInt(static_cast<int32_t>(T.TileH)), Tag + ".count");
    irns::Value *PeriodV = B.getInt(static_cast<int32_t>(Period));
    // Row-major over (row, loaded-column) so consecutive work items touch
    // the same row: this is exactly the poorly coalescing access pattern a
    // column perforation produces on real hardware.
    emitStridedLoop(Count, Tag, [&](irns::Value *TIdx) {
      irns::Value *R = B.createDiv(TIdx, NumCols, Tag + ".r");
      irns::Value *K =
          B.createSub(TIdx, B.createMul(R, NumCols), Tag + ".k");
      irns::Value *C =
          B.createAdd(FL, B.createMul(K, PeriodV), Tag + ".c");
      irns::Value *Gr = B.createAdd(T.OriginY, R);
      irns::Value *Gc = B.createAdd(T.OriginX, C);
      emitTileFill(A, T, R, C, Gr, Gc);
    });
  }

  /// numLoad = ceil((NumLines - FL) / Period) for one axis.
  irns::Value *emitNumLoaded(irns::Value *FL, unsigned NumLines,
                             unsigned Period, const std::string &Name) {
    return B.createDiv(
        B.createAdd(
            B.createSub(B.getInt(static_cast<int32_t>(NumLines)), FL),
            B.getInt(static_cast<int32_t>(Period - 1))),
        B.getInt(static_cast<int32_t>(Period)), Name);
  }

  void emitGridLoader(const BufferAccess &A, TileInfo &T, unsigned Period,
                      const std::string &Tag) {
    irns::Value *FLy = emitFirstLoad(T.OriginY, Period, Tag + ".y");
    irns::Value *FLx = emitFirstLoad(T.OriginX, Period, Tag + ".x");
    irns::Value *NumRows =
        emitNumLoaded(FLy, T.TileH, Period, Tag + ".numrows");
    irns::Value *NumCols =
        emitNumLoaded(FLx, T.TileW, Period, Tag + ".numcols");
    irns::Value *Count = B.createMul(NumRows, NumCols, Tag + ".count");
    irns::Value *PeriodV = B.getInt(static_cast<int32_t>(Period));
    // Row-major over (loaded row, loaded column): consecutive items load
    // column-strided elements of one row, like a strided gather.
    emitStridedLoop(Count, Tag, [&](irns::Value *TIdx) {
      irns::Value *Lr = B.createDiv(TIdx, NumCols, Tag + ".lr");
      irns::Value *Lc =
          B.createSub(TIdx, B.createMul(Lr, NumCols), Tag + ".lc");
      irns::Value *R =
          B.createAdd(FLy, B.createMul(Lr, PeriodV), Tag + ".r");
      irns::Value *C =
          B.createAdd(FLx, B.createMul(Lc, PeriodV), Tag + ".c");
      irns::Value *Gr = B.createAdd(T.OriginY, R);
      irns::Value *Gc = B.createAdd(T.OriginX, C);
      emitTileFill(A, T, R, C, Gr, Gc);
    });
  }

  void emitStencilLoader(const BufferAccess &A, TileInfo &T) {
    // One element per work item: the item's own pixel, placed at the tile
    // center. The halo ring is reconstructed later.
    irns::Value *R = B.createAdd(
        Ly, B.getInt(static_cast<int32_t>(T.HaloY)), "st.r");
    irns::Value *C = B.createAdd(
        Lx, B.getInt(static_cast<int32_t>(T.HaloX)), "st.c");
    irns::Value *Gr = B.createAdd(GroupOriginY, Ly);
    irns::Value *Gc = B.createAdd(GroupOriginX, Lx);
    emitTileFill(A, T, R, C, Gr, Gc);
  }

  void emitBarrier() { B.createCall(irns::Builtin::Barrier, {}); }

  /// Emits reconstruction; returns false if the scheme needs none.
  bool emitReconstruction(const BufferAccess &A) {
    TileInfo &T = Tiles.at(A.Buffer);
    const std::string Tag = "recon." + A.Buffer->name();
    switch (Plan.Scheme.Kind) {
    case SchemeKind::None:
      return false;
    case SchemeKind::Rows:
      emitAxisReconstruction(A, T, /*RowAxis=*/true, Tag);
      return true;
    case SchemeKind::Cols:
      emitAxisReconstruction(A, T, /*RowAxis=*/false, Tag);
      return true;
    case SchemeKind::Stencil:
      if (T.HaloX == 0 && T.HaloY == 0)
        return false;
      emitStencilReconstruction(A, T, Tag);
      return true;
    case SchemeKind::Grid:
      // Two passes: first complete the loaded rows along x, then fill
      // the skipped rows along y from the (now complete) loaded rows.
      emitGridStage1(A, T, Tag + ".x");
      emitBarrier();
      emitAxisReconstruction(A, T, /*RowAxis=*/true, Tag + ".yy");
      return true;
    }
    return false;
  }

  /// Reconstruction geometry of one skipped line/element on an axis.
  struct SkipMap {
    irns::Value *Pos = nullptr;      ///< Tile coordinate of the skipped line.
    irns::Value *Mm = nullptr;       ///< Distance to previous loaded line.
    irns::Value *Prev = nullptr;
    irns::Value *Next = nullptr;
    irns::Value *HavePrev = nullptr;
    irns::Value *HaveNext = nullptr;
  };

  /// Maps the \p SkipIdx-th skipped line (0-based among skipped lines) to
  /// its tile coordinate and bracketing loaded lines.
  SkipMap emitSkipMapping(irns::Value *SkipIdx, irns::Value *FL,
                          irns::Value *Origin, unsigned Period,
                          unsigned NumLines, const std::string &Tag) {
    irns::Value *P = B.getInt(static_cast<int32_t>(Period));
    // Sr < FL  -> leading skipped run: Pos = Sr.
    // Sr >= FL -> blocks of (Period-1) skipped lines after each loaded:
    //   Pos = FL + q*Period + 1 + rem.
    irns::Value *SrAdj = B.createSub(SkipIdx, FL);
    irns::Value *Pm1 = B.getInt(static_cast<int32_t>(Period - 1));
    irns::Value *SrPos =
        B.createCall(irns::Builtin::Max, {SrAdj, B.getInt(0)});
    irns::Value *Q = B.createDiv(SrPos, Pm1);
    irns::Value *Rem = B.createSub(SrPos, B.createMul(Q, Pm1));
    irns::Value *PosTail = B.createAdd(
        B.createAdd(FL, B.createMul(Q, P)),
        B.createAdd(B.getInt(1), Rem));
    SkipMap Map;
    Map.Pos = B.createSelect(
        B.createCmp(irns::Opcode::CmpLt, SkipIdx, FL), SkipIdx, PosTail,
        Tag + ".pos");
    irns::Value *MRaw = B.createRem(B.createAdd(Origin, Map.Pos), P);
    Map.Mm = B.createRem(B.createAdd(MRaw, P), P, Tag + ".m");
    Map.Prev = B.createSub(Map.Pos, Map.Mm, Tag + ".prev");
    Map.Next = B.createAdd(Map.Prev, P, Tag + ".next");
    Map.HavePrev =
        B.createCmp(irns::Opcode::CmpGe, Map.Prev, B.getInt(0));
    Map.HaveNext = B.createCmp(
        irns::Opcode::CmpLt, Map.Next,
        B.getInt(static_cast<int32_t>(NumLines)));
    return Map;
  }

  /// Emits the reconstructed value for a skipped position: NN picks the
  /// nearer existing loaded line; LI interpolates with weight m/Period
  /// and falls back to the available line at tile edges (paper 5.1).
  /// \p LineLoad reads the tile value on a given loaded line.
  irns::Value *
  emitReconValue(const SkipMap &Map, bool IsFloat, unsigned Period,
                 const std::string &Tag,
                 const std::function<irns::Value *(irns::Value *)>
                     &LineLoad) {
    irns::Value *P = B.getInt(static_cast<int32_t>(Period));
    if (Plan.Scheme.Recon == ReconstructionKind::NearestNeighbor ||
        !IsFloat) {
      irns::Value *UsePrev = B.createCmp(
          irns::Opcode::CmpLe, B.createMul(Map.Mm, B.getInt(2)), P);
      irns::Value *Choice = B.createSelect(UsePrev, Map.Prev, Map.Next);
      Choice = B.createSelect(Map.HavePrev, Choice, Map.Next);
      Choice = B.createSelect(Map.HaveNext, Choice, Map.Prev);
      return LineLoad(Choice);
    }
    irns::Value *PSrc = B.createSelect(Map.HavePrev, Map.Prev, Map.Next);
    irns::Value *NSrc = B.createSelect(Map.HaveNext, Map.Next, PSrc);
    irns::Value *VP = LineLoad(PSrc);
    irns::Value *VN = LineLoad(NSrc);
    irns::Value *Both = B.createLogical(irns::Opcode::LogicalAnd,
                                        Map.HavePrev, Map.HaveNext);
    irns::Value *WNum = B.createSelect(
        Both, Map.Mm, B.createSelect(Map.HavePrev, B.getInt(0), P));
    irns::Value *Wf = B.createDiv(
        B.createIntToFloat(WNum), B.getFloat(static_cast<float>(Period)),
        Tag + ".w");
    return B.createAdd(VP, B.createMul(B.createSub(VN, VP), Wf),
                       Tag + ".li");
  }

  /// Grid stage 1: on every *loaded* row, reconstruct the skipped
  /// columns from the loaded grid points of that row.
  void emitGridStage1(const BufferAccess &A, TileInfo &T,
                      const std::string &Tag) {
    unsigned Period = Plan.Scheme.Period;
    irns::Value *FLy = emitFirstLoad(T.OriginY, Period, Tag + ".fy");
    irns::Value *FLx = emitFirstLoad(T.OriginX, Period, Tag + ".fx");
    irns::Value *NumRows =
        emitNumLoaded(FLy, T.TileH, Period, Tag + ".numrows");
    irns::Value *NumCols =
        emitNumLoaded(FLx, T.TileW, Period, Tag + ".numcols");
    irns::Value *NumSkipCols = B.createSub(
        B.getInt(static_cast<int32_t>(T.TileW)), NumCols,
        Tag + ".numskip");
    irns::Value *Count =
        B.createMul(NumRows, NumSkipCols, Tag + ".count");
    bool IsFloat =
        A.Buffer->type().scalarKind() == irns::ScalarKind::Float;

    emitStridedLoop(Count, Tag, [&](irns::Value *TIdx) {
      irns::Value *K = B.createDiv(TIdx, NumSkipCols, Tag + ".k");
      irns::Value *S =
          B.createSub(TIdx, B.createMul(K, NumSkipCols), Tag + ".s");
      irns::Value *Row = B.createAdd(
          FLy, B.createMul(K, B.getInt(static_cast<int32_t>(Period))),
          Tag + ".row");
      SkipMap Map =
          emitSkipMapping(S, FLx, T.OriginX, Period, T.TileW, Tag);
      irns::Value *Val = emitReconValue(
          Map, IsFloat, Period, Tag, [&](irns::Value *Col) {
            return emitTileLoad(T, Row, Col);
          });
      irns::Value *DstIdx = B.createAdd(
          B.createMul(Row, B.getInt(static_cast<int32_t>(T.TileW))),
          Map.Pos);
      B.createStore(Val, B.createGep(T.Tile, DstIdx));
    });
  }

  /// Reads tile[R*tileW + C] (axis-aware) as the element scalar type.
  irns::Value *emitTileLoad(const TileInfo &T, irns::Value *R,
                            irns::Value *C) {
    irns::Value *Idx = B.createAdd(
        B.createMul(R, B.getInt(static_cast<int32_t>(T.TileW))), C);
    return B.createLoad(B.createGep(T.Tile, Idx));
  }

  /// Rows/Cols reconstruction: for every skipped line, interpolate (LI) or
  /// copy (NN) from the enclosing loaded lines; tile edges fall back to
  /// the single available line.
  void emitAxisReconstruction(const BufferAccess &A, TileInfo &T,
                              bool RowAxis, const std::string &Tag) {
    unsigned Period = Plan.Scheme.Period;
    unsigned LineLen = RowAxis ? T.TileW : T.TileH; // Elements per line.
    unsigned NumLines = RowAxis ? T.TileH : T.TileW;
    irns::Value *Origin = RowAxis ? T.OriginY : T.OriginX;

    irns::Value *P = B.getInt(static_cast<int32_t>(Period));
    irns::Value *FL = emitFirstLoad(Origin, Period, Tag);
    irns::Value *NumLoad = B.createDiv(
        B.createAdd(
            B.createSub(B.getInt(static_cast<int32_t>(NumLines)), FL),
            B.getInt(static_cast<int32_t>(Period - 1))),
        P, Tag + ".numload");
    irns::Value *NumSkip = B.createSub(
        B.getInt(static_cast<int32_t>(NumLines)), NumLoad, Tag + ".numskip");
    irns::Value *Count = B.createMul(
        NumSkip, B.getInt(static_cast<int32_t>(LineLen)), Tag + ".count");

    bool IsFloat =
        A.Buffer->type().scalarKind() == irns::ScalarKind::Float;
    emitStridedLoop(Count, Tag, [&](irns::Value *TIdx) {
      irns::Value *Sr = B.createDiv(
          TIdx, B.getInt(static_cast<int32_t>(LineLen)), Tag + ".sr");
      irns::Value *C = B.createSub(
          TIdx, B.createMul(Sr, B.getInt(static_cast<int32_t>(LineLen))),
          Tag + ".c");
      SkipMap Map = emitSkipMapping(Sr, FL, Origin, Period, NumLines, Tag);
      irns::Value *Val = emitReconValue(
          Map, IsFloat, Period, Tag, [&](irns::Value *Line) {
            return RowAxis ? emitTileLoad(T, Line, C)
                           : emitTileLoad(T, C, Line);
          });
      irns::Value *DstIdx =
          RowAxis
              ? B.createAdd(
                    B.createMul(Map.Pos,
                                B.getInt(static_cast<int32_t>(T.TileW))),
                    C)
              : B.createAdd(
                    B.createMul(C,
                                B.getInt(static_cast<int32_t>(T.TileW))),
                    Map.Pos);
      B.createStore(Val, B.createGep(T.Tile, DstIdx));
    });
  }

  /// Stencil reconstruction: every halo element copies its nearest center
  /// element (NN toward the tile interior).
  void emitStencilReconstruction(const BufferAccess &A, TileInfo &T,
                                 const std::string &Tag) {
    (void)A;
    unsigned TileElems = T.TileW * T.TileH;
    emitStridedLoop(
        B.getInt(static_cast<int32_t>(TileElems)), Tag,
        [&](irns::Value *TIdx) {
          irns::Value *R = B.createDiv(
              TIdx, B.getInt(static_cast<int32_t>(T.TileW)), Tag + ".r");
          irns::Value *C = B.createSub(
              TIdx,
              B.createMul(R, B.getInt(static_cast<int32_t>(T.TileW))),
              Tag + ".c");
          irns::Value *Sr = B.createClampInt(
              R, B.getInt(static_cast<int32_t>(T.HaloY)),
              B.getInt(static_cast<int32_t>(T.HaloY + Plan.TileY - 1)));
          irns::Value *Sc = B.createClampInt(
              C, B.getInt(static_cast<int32_t>(T.HaloX)),
              B.getInt(static_cast<int32_t>(T.HaloX + Plan.TileX - 1)));
          irns::Value *IsHalo = B.createLogical(
              irns::Opcode::LogicalOr,
              B.createCmp(irns::Opcode::CmpNe, R, Sr),
              B.createCmp(irns::Opcode::CmpNe, C, Sc));

          irns::BasicBlock *FillBB = newBlock(Tag + ".fill");
          irns::BasicBlock *ContBB = newBlock(Tag + ".cont");
          B.createCondBr(IsHalo, FillBB, ContBB);
          B.setInsertPoint(FillBB);
          irns::Value *Val = emitTileLoad(T, Sr, Sc);
          irns::Value *DstIdx = B.createAdd(
              B.createMul(R, B.getInt(static_cast<int32_t>(T.TileW))), C);
          B.createStore(Val, B.createGep(T.Tile, DstIdx));
          B.createBr(ContBB);
          B.setInsertPoint(ContBB);
        });
  }

  /// Jumps from the last preamble block into the original entry.
  void finishPreamble() {
    B.createBr(F->block(NextBlockPos));
  }

  /// Redirects every matched load of \p A from global memory into the
  /// tile: newIdx = (row - originY) * tileW + (col - originX).
  void rewriteBody(const BufferAccess &A) {
    const TileInfo &T = Tiles.at(A.Buffer);
    for (const LoadSite &L : A.Loads) {
      irns::BasicBlock *BB = L.Gep->parent();
      size_t Pos = BB->indexOf(L.Gep);
      irns::IRBuilder RB(M);
      RB.setInsertPoint(BB, Pos);
      irns::Value *NR = RB.createSub(L.RowVal, T.OriginY);
      irns::Value *NC = RB.createSub(L.ColVal, T.OriginX);
      irns::Value *NIdx = RB.createAdd(
          RB.createMul(NR, RB.getInt(static_cast<int32_t>(T.TileW))), NC);
      irns::Value *NGep = RB.createGep(T.Tile, NIdx);
      L.Load->setOperand(0, NGep);
    }
  }

  irns::Module &M;
  irns::Function &OrigF;
  const PerforationPlan &Plan;
  std::string NewName;
  irns::AnalysisManager *AM;
  irns::IRBuilder B;

  irns::Function *F = nullptr;
  KernelAccessInfo Info;
  std::map<const irns::Argument *, TileInfo> Tiles;
  irns::BasicBlock *EntryBlock = nullptr;
  irns::Value *Lx = nullptr;
  irns::Value *Ly = nullptr;
  irns::Value *Lin = nullptr;
  irns::Value *GlobalW = nullptr;
  irns::Value *GlobalH = nullptr;
  irns::Value *GroupOriginX = nullptr;
  irns::Value *GroupOriginY = nullptr;
  size_t NextBlockPos = 0;
  unsigned LocalWords = 0;
};

} // namespace

Expected<TransformResult>
perf::applyInputPerforation(ir::Module &M, ir::Function &F,
                            const PerforationPlan &Plan,
                            const std::string &NewName,
                            ir::AnalysisManager *AM) {
  return TransformImpl(M, F, Plan, NewName, AM).run();
}
