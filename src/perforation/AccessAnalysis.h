//===- perforation/AccessAnalysis.h - Stencil footprint analysis -*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Detects, per input buffer of a kernel, the 2-D stencil access footprint
/// needed to plan a perforation (paper section 4: which data a work-group
/// tile must load, and how large its halo is).
///
/// The analysis pattern-matches every load from a `global const` pointer
/// argument whose address is structurally
///
/// \code
///   buf[ rowExpr * width + colExpr ]
/// \endcode
///
/// (modulo operand order), where `width` is an int kernel argument, and
/// `rowExpr`/`colExpr` are *affine* in get_global_id(1)/get_global_id(0)
/// with unit coefficient, integer constants, and loop induction
/// variables of constant range. clamp(x, lo, hi) is looked through. From
/// the affine forms it derives the footprint rectangle
/// [DyMin,DyMax] x [DxMin,DxMax] relative to the work item.
///
/// It reads promoted IR, as rt::Session hands it out in Kernel::F: scalar
/// variables are SSA values, and a loop's induction variable is the phi
/// ir::findInduction matches on an ir::LoopInfo loop, with a constant
/// init and bound. Its range is the values ir::simulateTrips says the
/// loop body sees, so it counts only at loads inside that body; a load
/// after the loop or in its header stays unmatched. On alloca-form IR an
/// address computed from a private variable's load stays unmatched.
///
/// Stores to non-const global pointer arguments are matched the same way
/// for the output-approximation (Paraprox) transform.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_PERFORATION_ACCESSANALYSIS_H
#define KPERF_PERFORATION_ACCESSANALYSIS_H

#include "ir/AnalysisManager.h"
#include "ir/Function.h"
#include "support/Error.h"

#include <vector>

namespace kperf {
namespace perf {

/// One matched load: handles into the IR that the transform rewrites.
struct LoadSite {
  ir::Instruction *Load = nullptr; ///< The load instruction.
  ir::Instruction *Gep = nullptr;  ///< Its address computation.
  ir::Value *RowVal = nullptr;     ///< IR value of the accessed row.
  ir::Value *ColVal = nullptr;     ///< IR value of the accessed column.
  int DyMin = 0, DyMax = 0;        ///< Row offset range vs. gid1.
  int DxMin = 0, DxMax = 0;        ///< Column offset range vs. gid0.
};

/// One matched store (output site).
struct StoreSite {
  ir::Instruction *Store = nullptr;
  ir::Instruction *Gep = nullptr;
  ir::Value *RowVal = nullptr;
  ir::Value *ColVal = nullptr;
  ir::Value *StoredValue = nullptr;
  const ir::Argument *Buffer = nullptr;
  const ir::Argument *WidthArg = nullptr;
};

/// Aggregated footprint of one input buffer.
struct BufferAccess {
  const ir::Argument *Buffer = nullptr;
  const ir::Argument *WidthArg = nullptr;
  std::vector<LoadSite> Loads;
  int DyMin = 0, DyMax = 0;
  int DxMin = 0, DxMax = 0;

  /// Halo sizes implied by the footprint.
  int haloY() const { return std::max(-DyMin, DyMax); }
  int haloX() const { return std::max(-DxMin, DxMax); }
};

/// Full analysis result for a kernel.
struct KernelAccessInfo {
  std::vector<BufferAccess> Inputs;
  std::vector<StoreSite> Outputs;
  /// Loads from const global buffers that did not match the 2-D pattern.
  unsigned UnmatchedInputLoads = 0;

  /// Finds the entry for \p ArgIndex, or null.
  const BufferAccess *inputForArg(unsigned ArgIndex) const {
    for (const BufferAccess &A : Inputs)
      if (A.Buffer->index() == ArgIndex)
        return &A;
    return nullptr;
  }
};

/// Runs the analysis over \p F, which should be promoted IR (see the file
/// comment). Fails only on malformed IR; kernels with no recognizable
/// accesses yield an empty result (callers decide whether that is
/// acceptable).
Expected<KernelAccessInfo> analyzeKernelAccesses(ir::Function &F);

/// Cached variant: returns the summary held in \p AM for \p F, running
/// the analysis and caching the result on a miss. The pointer stays valid
/// until \p AM invalidates the function's entry (any mutation does).
Expected<const KernelAccessInfo *>
analyzeKernelAccessesCached(ir::AnalysisManager &AM, ir::Function &F);

} // namespace perf
} // namespace kperf

#endif // KPERF_PERFORATION_ACCESSANALYSIS_H
