//===- ir/AnalysisManager.h - Cached per-function analyses -------*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Caches analysis results keyed by function, in the spirit of LLVM's
/// new-pass-manager FunctionAnalysisManager reduced to what this project
/// needs. Three kinds of entries are held per function:
///
///  * the CFG-level analyses -- the DominatorTree, its frontiers and the
///    LoopInfo derived from it -- with dedicated accessors and
///    hit/compute counters (the pass pipeline asserts the tree is
///    computed at most once per fixpoint round, not once per LICM
///    invocation);
///  * MemorySSA, derived from the tree and frontier, shared by the
///    memory-widened passes (gvn, memopt-dse, licm) within a round;
///  * a typed generic cache for results owned by higher layers -- the
///    perforation access-analysis summaries live here without ir/ having
///    to know their type.
///
/// Invalidation is explicit: after a pass mutates a function, the pass
/// manager calls invalidate(F, CFGPreserved). CFG-level analyses (the
/// DominatorTree, frontiers and LoopInfo) survive mutations that keep the
/// block set and branch edges intact (GVN, MemOpt, DCE, LICM); MemorySSA,
/// the range and divergence analyses and everything in the
/// generic cache are instruction-sensitive and dropped on any mutation.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_IR_ANALYSISMANAGER_H
#define KPERF_IR_ANALYSISMANAGER_H

#include "ir/DivergenceAnalysis.h"
#include "ir/Dominators.h"
#include "ir/Function.h"
#include "ir/LoopInfo.h"
#include "ir/MemorySSA.h"
#include "ir/RangeAnalysis.h"

#include <memory>
#include <typeindex>
#include <unordered_map>

namespace kperf {
namespace ir {

class AnalysisManager {
public:
  /// CFG-analysis cache accounting, asserted by the pipeline tests.
  struct Counters {
    unsigned DomTreeComputes = 0;     ///< Cache misses (fresh computations).
    unsigned DomTreeHits = 0;         ///< Cache hits.
    unsigned DomFrontierComputes = 0; ///< Frontier cache misses.
    unsigned DomFrontierHits = 0;     ///< Frontier cache hits.
    unsigned LoopComputes = 0;        ///< LoopInfo cache misses.
    unsigned LoopHits = 0;            ///< LoopInfo cache hits.
    unsigned MemSSAComputes = 0;      ///< Memory-SSA cache misses.
    unsigned MemSSAHits = 0;          ///< Memory-SSA cache hits.
    unsigned RangeComputes = 0;       ///< Range-analysis cache misses.
    unsigned RangeHits = 0;           ///< Range-analysis cache hits.
    unsigned DivComputes = 0;         ///< Divergence cache misses.
    unsigned DivHits = 0;             ///< Divergence cache hits.

    /// One-line cache accounting, "domtree 3/12, frontier 1/4, ..."
    /// (computes/hits per analysis), for --time-passes and tools.
    std::string str() const;
  };

  /// Returns the dominator tree of \p F, computing it on a cache miss.
  /// The reference stays valid until the entry is invalidated.
  const DominatorTree &getDominatorTree(const Function &F);

  /// Returns the dominance frontiers of \p F (computing the dominator
  /// tree first if needed). Invalidated together with the tree: both are
  /// pure CFG analyses.
  const DominanceFrontier &getDominanceFrontier(const Function &F);

  /// Returns the natural loops of \p F (computing the dominator tree
  /// first if needed). Invalidated together with the tree: LoopInfo
  /// records only blocks and branch edges.
  const LoopInfo &getLoopInfo(const Function &F);

  /// Returns the memory SSA of \p F (computing the dominator tree and
  /// frontier first if needed). Dropped on *any* invalidation -- memory
  /// SSA is instruction-sensitive, so CFG-preserving mutations stale it
  /// too.
  const MemorySSA &getMemorySSA(const Function &F);

  /// Returns the interval analysis of \p F seeded with \p Bounds. Cached
  /// per function *and* bounds: a query under different launch bounds
  /// recomputes (and recounts as a compute). Instruction-sensitive,
  /// dropped on any invalidation.
  const RangeAnalysis &getRangeAnalysis(
      const Function &F, const NDRangeBounds &Bounds = NDRangeBounds());

  /// Returns the divergence analysis of \p F. Instruction-sensitive,
  /// dropped on any invalidation.
  const DivergenceAnalysis &getDivergenceAnalysis(const Function &F);

  /// Returns the cached result of type \p T for \p F, or null if absent.
  template <typename T> const T *lookup(const Function &F) const {
    auto FIt = Entries.find(&F);
    if (FIt == Entries.end())
      return nullptr;
    auto It = FIt->second.Generic.find(std::type_index(typeid(T)));
    if (It == FIt->second.Generic.end())
      return nullptr;
    return static_cast<const T *>(It->second.get());
  }

  /// Caches \p Value as the result of type \p T for \p F, replacing any
  /// previous entry, and returns a reference to the stored copy.
  template <typename T> const T &cache(const Function &F, T Value) {
    auto Stored = std::make_shared<T>(std::move(Value));
    const T &Ref = *Stored;
    Entries[&F].Generic[std::type_index(typeid(T))] = std::move(Stored);
    return Ref;
  }

  /// Drops cached results for \p F after a mutation. When
  /// \p CFGPreserved is true the CFG-level analyses are kept (block set
  /// and branch edges unchanged); the rest is always dropped.
  void invalidate(const Function &F, bool CFGPreserved = false);

  /// Drops every cached result.
  void invalidateAll();

  const Counters &counters() const { return C; }
  void resetCounters() { C = Counters(); }

private:
  struct FunctionEntry {
    std::unique_ptr<DominatorTree> DomTree;
    std::unique_ptr<DominanceFrontier> DomFrontier;
    std::unique_ptr<LoopInfo> Loops;
    std::unique_ptr<MemorySSA> MemSSA;
    std::unique_ptr<RangeAnalysis> Range;
    NDRangeBounds RangeBounds; ///< Seeds the cached Range was built with.
    std::unique_ptr<DivergenceAnalysis> Div;
    std::unordered_map<std::type_index, std::shared_ptr<void>> Generic;
  };

  std::unordered_map<const Function *, FunctionEntry> Entries;
  Counters C;
};

} // namespace ir
} // namespace kperf

#endif // KPERF_IR_ANALYSISMANAGER_H
