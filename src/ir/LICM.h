//===- ir/LICM.h - Loop-invariant code motion ---------------------*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Conservative loop-invariant code motion over the natural loops of a
/// kernel (ir/LoopInfo.h finds them). In the default pipeline LICM runs after mem2reg/sroa have
/// promoted private scalars and constant-indexed arrays to SSA values,
/// so its main job is hoisting the invariant *arithmetic* those values
/// feed (address computations, clamp chains) out of the filter-window
/// loops. The load rule below still matters for what promotion must
/// leave in memory form -- runtime-indexed arrays, local tiles -- and
/// for pipelines that run without promotion.
///
/// Hoisting is speculation-safe by construction -- the simulated device
/// faults on out-of-bounds accesses, so only never-faulting instructions
/// move:
///  * pure arithmetic/casts/comparisons/selects/GEPs with loop-invariant
///    operands (Div/Rem only when the divisor is a nonzero constant;
///    INT32_MIN / -1 wraps rather than faults);
///  * pure builtin calls (math and work-item queries);
///  * loads whose location is an *alloca element with a provably
///    in-bounds constant index* (private or local; argument buffers have
///    no statically known extent) defined outside the loop, and whose
///    clobber set is loop-invariant: memory SSA certifies no clobber
///    since function entry, or no store/barrier in the loop body may
///    clobber the location (barriers clobber local allocas -- other
///    work items' tile writes become visible -- never private ones).
///
/// The one legality check on the loop itself: loops without a preheader
/// (a unique out-of-loop predecessor of the header ending in an
/// unconditional branch) are skipped. Back edges sharing a header are
/// one loop here.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_IR_LICM_H
#define KPERF_IR_LICM_H

#include "ir/Function.h"

namespace kperf {
namespace ir {

class AnalysisManager;

/// Hoists loop-invariant instructions in \p F until a fixpoint, reading
/// the loops and memory SSA through \p AM. Hoisting moves instructions
/// between existing blocks and never moves a store or barrier, so both
/// stay valid across its own mutations. \returns the number of
/// instructions moved.
unsigned hoistLoopInvariants(Function &F, AnalysisManager &AM);

} // namespace ir
} // namespace kperf

#endif // KPERF_IR_LICM_H
