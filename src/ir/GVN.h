//===- ir/GVN.h - Global value numbering --------------------------*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Value numbering over SSA, scoped by the dominator tree: the one pass
/// that merges recomputations, within a block and across blocks alike.
/// Pure expressions are hash-consed into leader tables that follow a
/// preorder walk of the dominator tree: an expression computed in a
/// dominating block is the leader for every recomputation after it there
/// and in every block below it, so address arithmetic that the
/// perforation transform clones into the loader, the reconstruction, and
/// the rewritten body collapses to one computation per dominance region.
///
/// Phi-aware: two phis at the head of the same block whose incoming
/// values match per predecessor are merged. Loads are numbered over
/// memory SSA (ir/MemorySSA.h): a load's key is its pointer plus its
/// *clobbering access* -- the nearest memory state that may actually
/// change the loaded location -- so two loads of one pointer merge
/// exactly when no may-aliasing write or barrier separates them.
/// Locations that are immutable for the whole launch (const global
/// buffers, never-stored allocas) clobber at LiveOnEntry and therefore
/// merge across joins and barriers; mutable locations merge within
/// their clobber region, which still subsumes the old const-arg and
/// never-stored-alloca rules.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_IR_GVN_H
#define KPERF_IR_GVN_H

#include "ir/Function.h"

namespace kperf {
namespace ir {

class DominatorTree;
class MemorySSA;

/// Runs global value numbering over \p F using \p DT, deriving a local
/// memory SSA for load numbering. \returns the number of operand uses
/// rewritten to a dominating leader (0 = untouched; the dead duplicates
/// are left for DCE). Never changes the block set or branch edges.
unsigned numberValuesGlobally(Function &F, const DominatorTree &DT);

/// Variant reusing a precomputed memory SSA for \p F (the pass pipeline
/// hands in the AnalysisManager-cached one).
unsigned numberValuesGlobally(Function &F, const DominatorTree &DT,
                              const MemorySSA &MSSA);

} // namespace ir
} // namespace kperf

#endif // KPERF_IR_GVN_H
