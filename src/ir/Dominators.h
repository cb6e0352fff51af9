//===- ir/Dominators.h - Dominator tree ---------------------------*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree over a function's CFG (Cooper-Harvey-Kennedy iterative
/// algorithm), dominance frontiers derived from it, and the small CFG
/// helpers both need. ir::LoopInfo finds natural loops from the tree's
/// back edges; the frontier drives mem2reg's phi placement.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_IR_DOMINATORS_H
#define KPERF_IR_DOMINATORS_H

#include "ir/Function.h"

#include <unordered_map>
#include <vector>

namespace kperf {
namespace ir {

/// Returns \p BB's CFG successors (0, 1, or 2 blocks, from the
/// terminator). An unterminated block has none.
std::vector<BasicBlock *> successors(const BasicBlock *BB);

/// Returns the predecessor lists of every block in \p F.
std::unordered_map<const BasicBlock *, std::vector<BasicBlock *>>
predecessors(const Function &F);

/// Immediate-dominator tree. Blocks unreachable from the entry have no
/// entry in the tree and are reported as dominated by nothing.
class DominatorTree {
public:
  /// Computes the tree for \p F.
  static DominatorTree compute(const Function &F);

  /// Returns the immediate dominator of \p BB (null for the entry block
  /// and for unreachable blocks).
  const BasicBlock *idom(const BasicBlock *BB) const {
    auto It = IDom.find(BB);
    if (It == IDom.end() || It->second == BB)
      return nullptr; // Entry self-maps internally; unreachable absent.
    return It->second;
  }

  /// Returns true if \p A dominates \p B (reflexive). Unreachable blocks
  /// dominate nothing and are dominated by nothing.
  bool dominates(const BasicBlock *A, const BasicBlock *B) const;

  /// Returns true if \p BB is reachable from the entry.
  bool isReachable(const BasicBlock *BB) const {
    return PostOrderIndex.count(BB) != 0;
  }

private:
  /// Immediate dominators; the entry maps to itself internally.
  std::unordered_map<const BasicBlock *, const BasicBlock *> IDom;
  /// Postorder numbers of reachable blocks (used by the intersect walk
  /// and by dominates()).
  std::unordered_map<const BasicBlock *, unsigned> PostOrderIndex;
  const BasicBlock *Entry = nullptr;
};

/// Dominance frontiers (Cooper-Harvey-Kennedy "runner" walk): DF(B) is
/// the set of blocks where B's dominance ends -- exactly where mem2reg
/// must merge values defined in B with values from other paths. Only
/// reachable blocks have entries.
class DominanceFrontier {
public:
  /// Computes the frontiers of \p F from its dominator tree \p DT.
  static DominanceFrontier compute(const Function &F,
                                   const DominatorTree &DT);

  /// Returns DF(BB); empty for unreachable blocks and blocks whose
  /// dominance never ends (e.g. ones dominating the whole exit path).
  const std::vector<const BasicBlock *> &frontier(const BasicBlock *BB)
      const {
    auto It = Frontiers.find(BB);
    return It == Frontiers.end() ? Empty : It->second;
  }

private:
  /// Frontier sets in deterministic (function block) order.
  std::unordered_map<const BasicBlock *,
                     std::vector<const BasicBlock *>>
      Frontiers;
  std::vector<const BasicBlock *> Empty;
};

} // namespace ir
} // namespace kperf

#endif // KPERF_IR_DOMINATORS_H
