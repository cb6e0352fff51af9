//===- perforation/OutputApprox.h - Paraprox-style baselines -----*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Output-approximation transform reproducing the Paraprox schemes the
/// paper compares against (Fig. 3 / section 4.3): compute only one row /
/// column / center element out of each period-sized block and copy the
/// computed result to the approximated neighbors.
///
/// The transform remaps get_global_id so one work item computes the block
/// center, then duplicates every matched output store to the neighbor
/// rows/columns. The launch shrinks by the period in the approximated
/// dimension(s); non-divisible image sizes are handled by clamping the
/// computed coordinate into the image (bottom/right blocks recompute a few
/// rows, exactly like padded real-GPU ports do).
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_PERFORATION_OUTPUTAPPROX_H
#define KPERF_PERFORATION_OUTPUTAPPROX_H

#include "ir/Function.h"
#include "ir/Passes.h"
#include "support/Error.h"

#include <string>

namespace kperf {
namespace perf {

/// Which Paraprox scheme to emit.
enum class OutputSchemeKind : uint8_t {
  Rows,   ///< Compute one row per block, copy up/down (Fig. 3a).
  Cols,   ///< Compute one column per block, copy left/right (Fig. 3b).
  Center, ///< Compute the block center, copy all neighbors (Fig. 3c).
};

/// Parameters of an output-approximation application.
struct OutputApproxPlan {
  OutputSchemeKind Kind = OutputSchemeKind::Rows;
  /// Rows/columns approximated per computed one; 2 = paper scheme "1"
  /// (period 3), 4 = paper scheme "2" (period 5).
  unsigned ApproxPerComputed = 2;
  /// Argument indices of the image width/height scalars (used to clamp
  /// duplicated stores at the image border).
  unsigned WidthArgIndex = 0;
  unsigned HeightArgIndex = 0;
  /// Cleanup pipeline run over the generated kernel (see
  /// ir::PassPipeline::parse for the grammar). Empty = no cleanup.
  std::string PipelineSpec = ir::defaultPipelineSpec();
  /// Verify the generated kernel after every cleanup pass (debugging
  /// aid; the final verify always runs).
  bool VerifyEach = false;
};

/// Transform output and launch adaptation.
struct OutputApproxResult {
  ir::Function *Kernel = nullptr;
  unsigned DivX = 1; ///< Launch with global.x = ceil(imageW / DivX).
  unsigned DivY = 1; ///< Launch with global.y = ceil(imageH / DivY).
  /// What the cleanup pipeline did to the generated kernel.
  ir::PipelineStats PassStats;
};

/// Applies \p Plan to \p F, creating kernel \p NewName in \p M. \p F
/// should be promoted IR, as rt::Session::compile hands it out: the
/// output stores are found by the access analysis, which reads SSA, and
/// on alloca-form IR a store indexed through a private variable stays
/// unmatched.
Expected<OutputApproxResult> applyOutputApproximation(
    ir::Module &M, ir::Function &F, const OutputApproxPlan &Plan,
    const std::string &NewName);

} // namespace perf
} // namespace kperf

#endif // KPERF_PERFORATION_OUTPUTAPPROX_H
