//===- perforation/Transform.h - Input perforation transform -----*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's core contribution as an IR-to-IR compiler transform
/// (sections 4-5): given an accurate kernel, produce a variant that
///
///  (Ia) *data perforation* -- cooperatively loads only the subset of the
///       work-group tile selected by the perforation scheme from global
///       memory into a local-memory tile (with halo);
///  (Ib) *data reconstruction* -- fills the skipped elements from loaded
///       neighbors (nearest-neighbor or linear interpolation) in local
///       memory;
///  then executes the original kernel body with every global load of the
///  perforated buffer redirected into the tile.
///
/// With SchemeKind::None the same machinery emits the classic accurate
/// local-memory prefetch, which serves as the optimized baseline of the
/// paper's evaluation.
///
/// Row/column parity is computed on *global* coordinates so the pattern is
/// seamless across adjacent work groups (paper 4.4).
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_PERFORATION_TRANSFORM_H
#define KPERF_PERFORATION_TRANSFORM_H

#include "ir/Function.h"
#include "ir/Passes.h"
#include "perforation/AccessAnalysis.h"
#include "perforation/Scheme.h"
#include "support/Error.h"

#include <string>

namespace kperf {
namespace perf {

/// Parameters of one input-perforation application.
struct PerforationPlan {
  PerforationScheme Scheme;
  /// Work-group (tile) size the generated kernel is specialized for; it
  /// must be launched with exactly this local size.
  unsigned TileX = 16;
  unsigned TileY = 16;
  /// Argument indices of buffers to perforate. Empty = every input buffer
  /// the access analysis matched.
  std::vector<unsigned> BufferArgs;
  /// Cleanup pipeline run over the generated kernel (see
  /// ir::PassPipeline::parse for the grammar; bench_passes ablates this
  /// by dropping pass names from the spec). Empty = no cleanup.
  std::string PipelineSpec = ir::defaultPipelineSpec();
  /// Verify the generated kernel after every cleanup pass (debugging
  /// aid; the final verify always runs).
  bool VerifyEach = false;
};

/// Transform output: the new kernel plus its launch constraints.
struct TransformResult {
  ir::Function *Kernel = nullptr;
  unsigned LocalX = 0; ///< Required get_local_size(0).
  unsigned LocalY = 0; ///< Required get_local_size(1).
  unsigned LocalMemWords = 0; ///< Tile storage the kernel allocates.
  /// What the cleanup pipeline did to the generated kernel.
  ir::PipelineStats PassStats;
};

/// Applies the local memory-aware perforation described by \p Plan to
/// \p F, creating a new kernel \p NewName inside \p M. \p F itself is not
/// modified. \p F should be promoted IR, as rt::Session::compile hands it
/// out: the access analysis reads SSA, and on alloca-form IR a load
/// indexed through a private variable stays unmatched and keeps reading
/// global memory. Fails if the kernel already uses local memory or
/// barriers, if no perforatable input buffer is found, or if a
/// rows/cols/grid period exceeds a perforated axis of some target's tile
/// (edge plus both halos), which would leave tiles with no loaded line.
/// These refusals happen before any IR is created, leaving \p M
/// unchanged.
///
/// When \p AM is given, the access analysis of \p F is read through (and
/// cached in) it -- perforating the same kernel repeatedly, as the tuner
/// does, then analyzes it once instead of once per variant. The caller
/// must invalidate the entry if it mutates \p F afterwards.
Expected<TransformResult> applyInputPerforation(ir::Module &M,
                                                ir::Function &F,
                                                const PerforationPlan &Plan,
                                                const std::string &NewName,
                                                ir::AnalysisManager *AM =
                                                    nullptr);

} // namespace perf
} // namespace kperf

#endif // KPERF_PERFORATION_TRANSFORM_H
