//===- ir/LoopInfo.h - Natural loops and induction variables -----*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The natural loops of a kernel, found once for the three loop passes
/// (licm, unroll, perforate-loop) and the perforation access analysis,
/// plus the induction-variable matcher and trip simulator the unroller,
/// the perforator and the access analysis share.
///
/// A back edge is an edge from a reachable block to a block dominating
/// it. Its natural loop is the header plus every block that reaches the
/// back edge's source without passing through the header; back edges
/// sharing a header form one loop. Each pass keeps only its own legality
/// checks: LICM needs a preheader, while the unroller and the perforator
/// also need a single latch, the header exit and an induction variable.
///
/// LoopInfo records CFG facts only -- blocks and branch edges -- so it is
/// valid exactly as long as the dominator tree it was computed from, and
/// AnalysisManager caches and drops the two together. Instruction facts
/// (the induction phi, the header comparison) are re-derived on every
/// findInduction query, because CFG-preserving passes such as dce, gvn
/// and licm may delete or replace them.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_IR_LOOPINFO_H
#define KPERF_IR_LOOPINFO_H

#include "ir/Function.h"

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

namespace kperf {
namespace ir {

class DominatorTree;

/// One natural loop.
struct Loop {
  BasicBlock *Header = nullptr;
  /// Sources of the back edges into Header, in layout order.
  std::vector<BasicBlock *> Latches;
  /// Header and body blocks, in layout order.
  std::vector<BasicBlock *> Blocks;
  /// Membership set of Blocks.
  std::unordered_set<const BasicBlock *> Members;
  /// The unique out-of-loop predecessor of Header, when it ends in an
  /// unconditional branch (code placed there runs iff the loop is
  /// entered); null otherwise.
  BasicBlock *Preheader = nullptr;
  /// The header's out-of-loop and in-loop successors. Set only when the
  /// header's conditional branch is the loop's only exit: every other
  /// block ends in a branch whose targets stay inside the loop.
  BasicBlock *Exit = nullptr;
  BasicBlock *BodyEntry = nullptr;

  bool contains(const BasicBlock *BB) const {
    return Members.count(BB) != 0;
  }

  /// The latch of a single-back-edge loop; null when several back edges
  /// share the header.
  BasicBlock *latch() const {
    return Latches.size() == 1 ? Latches.front() : nullptr;
  }

  /// True when the header branch enters the body on its true edge.
  /// Requires Exit to be set.
  bool bodyOnTrueEdge() const {
    return Header->terminator()->branchTarget(0) == BodyEntry;
  }
};

/// The natural loops of one function.
class LoopInfo {
public:
  /// Finds the loops of \p F from its dominator tree \p DT. Back edges
  /// whose source is unreachable are ignored.
  static LoopInfo compute(const Function &F, const DominatorTree &DT);

  /// Every loop once, innermost first: ordered by block count, then by
  /// the header's layout position.
  const std::vector<Loop> &loops() const { return Loops; }

private:
  std::vector<Loop> Loops;
};

/// A loop's induction variable: `Phi = phi [Init, preheader], [Next,
/// latch]` with `Next = Phi + C`, `C + Phi` or `Phi - C` for a constant
/// C, tested by the header comparison Cond against Bound.
struct Induction {
  Instruction *Phi = nullptr;
  Instruction *Next = nullptr;
  Instruction *Cond = nullptr;
  Value *Init = nullptr;
  Value *Bound = nullptr;
  int64_t Step = 0;     ///< Signed per-iteration advance.
  bool IvOnLhs = false; ///< Cond is `Phi REL Bound`, else `Bound REL Phi`.
};

/// Matches the induction variable of \p L: the header's conditional
/// branch tests a comparison computed in the header, one operand of
/// which (the left tried first) is an int phi of the header advanced by
/// a constant step inside the loop. Requires a preheader, a single latch
/// and the header exit; nullopt when nothing matches.
std::optional<Induction> findInduction(const Loop &L);

/// Trip count of an induction variable starting at \p Init and advancing
/// by \p Step while `iv CmpOp Bound` (or `Bound CmpOp iv` when \p IvOnLhs
/// is false) selects the body edge, evaluated exactly as the simulator
/// executes it. nullopt when the loop runs more than \p MaxTrips times or
/// the induction value leaves int32.
std::optional<unsigned> simulateTrips(int64_t Init, int64_t Step,
                                      Opcode CmpOp, bool IvOnLhs,
                                      int64_t Bound, bool TrueIsBody,
                                      unsigned MaxTrips);

/// The value of \p V when it is an integer constant.
std::optional<int64_t> asConstInt(const Value *V);

} // namespace ir
} // namespace kperf

#endif // KPERF_IR_LOOPINFO_H
