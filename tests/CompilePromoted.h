//===- tests/CompilePromoted.h - Promoted kernels for tests -----*- C++ -*-===//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The access analysis and the transforms read promoted IR: what
// rt::Session::compile hands out in Kernel::F, the frontend output after
// one mem2reg with its loops intact. Tests that drive them on a bare
// module compile through this helper to start from the same IR.
//
//===----------------------------------------------------------------------===//

#ifndef KPERF_TESTS_COMPILEPROMOTED_H
#define KPERF_TESTS_COMPILEPROMOTED_H

#include "pcl/Compiler.h"

#include <string>

namespace kperf {

/// Compiles kernel \p Name of \p Source into \p M and promotes it by
/// mem2reg.
inline Expected<ir::Function *> compilePromoted(ir::Module &M,
                                                const std::string &Source,
                                                const std::string &Name) {
  pcl::CompileOptions Opts;
  Opts.PipelineSpec = "mem2reg";
  return pcl::compileKernel(M, Source, Name, Opts);
}

} // namespace kperf

#endif // KPERF_TESTS_COMPILEPROMOTED_H
