//===- ir/LoopUnroll.h - Constant-trip full loop unrolling --------*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Full unrolling of constant-trip natural loops under an IR-size budget,
/// targeting the 3x3/5x5 filter-window loops of the perforation apps.
/// Loops, their preheader, latch and header exit come from ir::LoopInfo;
/// the induction variable from ir::findInduction. A loop qualifies when:
///
///  * it has a preheader and a single latch, and the header's
///    conditional branch is its only exit;
///  * its body holds no alloca, and the layout keeps definitions before
///    uses once the copies replace it: the header leads the body, the
///    preheader and the body's outside operands sit before it, the exit
///    after it, and only header values escape the loop;
///  * its induction variable starts at a constant and is compared
///    against a constant bound;
///  * the trip count -- found by ir::simulateTrips, which runs the
///    induction arithmetic exactly as the interpreter would -- times the
///    loop's instruction count fits the budget.
///
/// The body (including the header's non-phi instructions) is cloned once
/// per iteration with the induction phi collapsed to the iteration's
/// constant, loop-carried phis threaded through the copies, and a final
/// header copy computing the loop-exit values. Afterwards straight-line
/// block chains are merged, so a fully unrolled loop nest becomes one
/// block that the block-local passes (store forwarding, DSE) can see
/// whole, and simplify/GVN fold the now-constant induction arithmetic.
///
/// Runs until no more loops qualify, so inner window loops unroll first
/// and the enclosing loop -- now straight-line -- unrolls next.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_IR_LOOPUNROLL_H
#define KPERF_IR_LOOPUNROLL_H

#include "ir/Function.h"

namespace kperf {
namespace ir {

/// Default IR-size budget: a loop unrolls when trip count x loop size
/// stays within this many instructions (sized so a perforated 5x5
/// filter-window nest flattens fully).
constexpr unsigned DefaultUnrollBudget = 2048;

/// Fully unrolls every qualifying constant-trip loop of \p F whose
/// unrolled size fits \p Budget, then merges straight-line block chains.
/// \p M interns the collapsed induction constants. \returns the number
/// of loops unrolled plus blocks merged (0 = untouched).
unsigned unrollConstantLoops(Function &F, Module &M,
                             unsigned Budget = DefaultUnrollBudget);

} // namespace ir
} // namespace kperf

#endif // KPERF_IR_LOOPUNROLL_H
