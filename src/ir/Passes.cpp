//===- ir/Passes.cpp --------------------------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "ir/Passes.h"

using namespace kperf;
using namespace kperf::ir;

Expected<PipelineStats> ir::runPipelineSpec(Function &F, Module &M,
                                            const std::string &Spec) {
  AnalysisManager AM;
  return runPipelineSpec(F, M, AM, Spec);
}

Expected<PipelineStats> ir::runPipelineSpec(Function &F, Module &M,
                                            AnalysisManager &AM,
                                            const std::string &Spec) {
  Expected<PassPipeline> P = PassPipeline::parse(Spec);
  if (!P)
    return P.takeError();
  return P->run(F, M, AM);
}

PipelineStats ir::runDefaultPipeline(Function &F, Module &M) {
  // The default spec names only registered passes, and runs without
  // VerifyEach cannot fail, so the unwrap is safe.
  return cantFail(runPipelineSpec(F, M, defaultPipelineSpec()));
}
