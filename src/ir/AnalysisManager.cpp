//===- ir/AnalysisManager.cpp ----------------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "ir/AnalysisManager.h"

#include "support/StringUtils.h"

using namespace kperf;
using namespace kperf::ir;

const DominatorTree &AnalysisManager::getDominatorTree(const Function &F) {
  FunctionEntry &E = Entries[&F];
  if (E.DomTree) {
    ++C.DomTreeHits;
    return *E.DomTree;
  }
  ++C.DomTreeComputes;
  E.DomTree = std::make_unique<DominatorTree>(DominatorTree::compute(F));
  return *E.DomTree;
}

const DominanceFrontier &
AnalysisManager::getDominanceFrontier(const Function &F) {
  // Query the tree first: a stale frontier can never outlive the tree it
  // was derived from because both reset together in invalidate().
  const DominatorTree &DT = getDominatorTree(F);
  FunctionEntry &E = Entries[&F];
  if (E.DomFrontier) {
    ++C.DomFrontierHits;
    return *E.DomFrontier;
  }
  ++C.DomFrontierComputes;
  E.DomFrontier =
      std::make_unique<DominanceFrontier>(DominanceFrontier::compute(F, DT));
  return *E.DomFrontier;
}

const LoopInfo &AnalysisManager::getLoopInfo(const Function &F) {
  const DominatorTree &DT = getDominatorTree(F);
  FunctionEntry &E = Entries[&F];
  if (E.Loops) {
    ++C.LoopHits;
    return *E.Loops;
  }
  ++C.LoopComputes;
  E.Loops = std::make_unique<LoopInfo>(LoopInfo::compute(F, DT));
  return *E.Loops;
}

const MemorySSA &AnalysisManager::getMemorySSA(const Function &F) {
  // Derive through the cached tree and frontier so the three analyses
  // can never disagree about the CFG they describe.
  const DominatorTree &DT = getDominatorTree(F);
  const DominanceFrontier &DF = getDominanceFrontier(F);
  FunctionEntry &E = Entries[&F];
  if (E.MemSSA) {
    ++C.MemSSAHits;
    return *E.MemSSA;
  }
  ++C.MemSSAComputes;
  E.MemSSA = std::make_unique<MemorySSA>(MemorySSA::compute(F, DT, DF));
  return *E.MemSSA;
}

const RangeAnalysis &
AnalysisManager::getRangeAnalysis(const Function &F,
                                  const NDRangeBounds &Bounds) {
  const DominatorTree &DT = getDominatorTree(F);
  FunctionEntry &E = Entries[&F];
  if (E.Range && E.RangeBounds == Bounds) {
    ++C.RangeHits;
    return *E.Range;
  }
  ++C.RangeComputes;
  E.Range =
      std::make_unique<RangeAnalysis>(RangeAnalysis::compute(F, DT, Bounds));
  E.RangeBounds = Bounds;
  return *E.Range;
}

const DivergenceAnalysis &
AnalysisManager::getDivergenceAnalysis(const Function &F) {
  FunctionEntry &E = Entries[&F];
  if (E.Div) {
    ++C.DivHits;
    return *E.Div;
  }
  ++C.DivComputes;
  E.Div =
      std::make_unique<DivergenceAnalysis>(DivergenceAnalysis::compute(F));
  return *E.Div;
}

std::string AnalysisManager::Counters::str() const {
  return format("domtree %u/%u, frontier %u/%u, loops %u/%u, memssa %u/%u, "
                "range %u/%u, divergence %u/%u (computes/hits)",
                DomTreeComputes, DomTreeHits, DomFrontierComputes,
                DomFrontierHits, LoopComputes, LoopHits, MemSSAComputes,
                MemSSAHits, RangeComputes, RangeHits, DivComputes, DivHits);
}

void AnalysisManager::invalidate(const Function &F, bool CFGPreserved) {
  auto It = Entries.find(&F);
  if (It == Entries.end())
    return;
  It->second.Generic.clear();
  It->second.MemSSA.reset(); // Instruction-sensitive: always dropped.
  It->second.Range.reset();  // Likewise.
  It->second.Div.reset();
  if (!CFGPreserved) {
    It->second.DomTree.reset();
    It->second.DomFrontier.reset();
    It->second.Loops.reset();
  }
}

void AnalysisManager::invalidateAll() { Entries.clear(); }
