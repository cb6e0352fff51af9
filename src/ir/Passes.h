//===- ir/Passes.h - Standard optimization pipeline ---------------*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-call helpers over the pass-manager layer (PassManager.h). The
/// standard pipeline run over generated kernels -- mem2reg and unroll
/// once, then simplify, SROA, mem2reg again, GVN, memopt forwarding,
/// LICM, memopt DSE, and DCE iterated to a fixpoint -- is
/// defaultPipelineSpec(). Pipelines are named only by spec strings; a
/// run's per-pass results are read with PipelineStats::changes().
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_IR_PASSES_H
#define KPERF_IR_PASSES_H

#include "ir/Function.h"
#include "ir/PassManager.h"

namespace kperf {
namespace ir {

/// Parses \p Spec and runs it on \p F. \p M must own \p F (the
/// simplifier interns constants there). Fails on a malformed spec.
Expected<PipelineStats> runPipelineSpec(Function &F, Module &M,
                                        const std::string &Spec);

/// As above, sharing cached analyses through \p AM.
Expected<PipelineStats> runPipelineSpec(Function &F, Module &M,
                                        AnalysisManager &AM,
                                        const std::string &Spec);

/// Runs the full default pipeline on \p F until nothing changes.
PipelineStats runDefaultPipeline(Function &F, Module &M);

} // namespace ir
} // namespace kperf

#endif // KPERF_IR_PASSES_H
