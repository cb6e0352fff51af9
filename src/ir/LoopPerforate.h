//===- ir/LoopPerforate.h - Generalized loop perforation ---------*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loop perforation as a registered IR pass (`perforate-loop(stride)`):
/// where the paper's schemes skip input loads at the tile boundary layer,
/// this pass skips whole *iterations* of eligible interior loops -- the
/// filter-window loops the fixed schemes never touch -- by advancing the
/// loop's induction phi by `stride` times its original step.
///
/// Loops come from ir::LoopInfo and their induction variable from
/// ir::findInduction, which requires a preheader, a single latch and the
/// header's branch as the only exit. A loop qualifies when its induction
/// phi advances by a nonzero constant step and three legality proofs
/// hold:
///
///  * **exit test** (RangeAnalysis): the header comparison is an order
///    relation (<, <=, >, >=; equality tests could be hopped over) that
///    the strided step still drives toward termination, and the strided
///    induction value provably stays inside int32 -- the bound's
///    interval plus the new step must not reach the wraparound edge;
///  * **memory** (MemorySSA): skipped iterations must not write memory
///    that later reads would observe un-reconstructed. Every store must
///    hit a private alloca -- a kernel *output* store refuses outright,
///    since a skipped output pixel stays unwritten forever -- and every
///    load whose clobbering access is that store must sit in the same
///    iteration (inside the body, dominated by the store,
///    must-overwritten element) -- same-iteration scratch is fine,
///    anything escaping the iteration refuses;
///  * **shape**: no barriers in the body (work items would diverge on
///    synchronization).
///
/// Escaping float add-reduction phis are rescaled: a header phi whose
/// loop-carried value is a chain of float adds rooted at the phi (the
/// `acc += ...` shape mem2reg produces) gets its out-of-loop uses
/// rewritten to `phi * (orig_trips / perforated_trips)`, so a mean over
/// a third of the window samples still estimates the full-window mean
/// instead of a third of it. Other escaping values are left to the
/// quality metrics, which is the perforation contract.
///
/// `stride <= 1` is a structural no-op (the function is untouched and
/// the pass reports zero changes), which is what lets the pipeline
/// oracle pin `perforate-loop(1)` byte-identical to the empty pipeline.
/// Already-perforated loops are recognized (the rewritten increment is
/// tagged `.perf`) and skipped, so the pass is stable under fixpoint
/// groups instead of compounding the stride each round.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_IR_LOOPPERFORATE_H
#define KPERF_IR_LOOPPERFORATE_H

#include "ir/AnalysisManager.h"
#include "ir/Function.h"

namespace kperf {
namespace ir {

/// Rewrites every eligible natural loop of \p F to advance its induction
/// variable by \p Stride times the original step. \p M interns the new
/// step and rescale constants; analyses are read through \p AM.
/// \returns the number of loops perforated (0 when Stride <= 1, so a
/// unit stride is a structural no-op).
unsigned perforateLoops(Function &F, Module &M, AnalysisManager &AM,
                        unsigned Stride);

} // namespace ir
} // namespace kperf

#endif // KPERF_IR_LOOPPERFORATE_H
