//===- gpusim/BytecodeExec.h - Batched bytecode execution tier ----*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes compiled kernel bytecode (see Bytecode.h) over a simulated
/// NDRange on the batched tier: one instruction at a time across every
/// item of a work-group fragment, in a tight inner loop over a
/// structure-of-arrays register file. Divergent branches split a
/// fragment in two; the scheduler always advances the lowest-pc fragment
/// and re-merges fragments that meet at the same pc, so divergent paths
/// reconverge exactly where a real SIMT front end would.
///
/// The tier replays the tree walker's event accounting instruction for
/// instruction (same memory-op numbering, same coalescing keys), so
/// outputs are byte-identical and SimReport counters bit-identical to
/// the reference tier for race-free kernels -- pinned by
/// pipeline_oracle_test.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_GPUSIM_BYTECODEEXEC_H
#define KPERF_GPUSIM_BYTECODEEXEC_H

#include "gpusim/Buffer.h"
#include "gpusim/Bytecode.h"
#include "gpusim/DeviceConfig.h"
#include "gpusim/Interpreter.h"
#include "gpusim/SimReport.h"
#include "support/Error.h"

#include <vector>

namespace kperf {
namespace sim {

/// Executes \p Prog (compiled from \p F) over \p Global work items in
/// groups of \p Local on the batched tier. Same contract as
/// launchKernel; \p F is only used for error messages and launch
/// validation.
Expected<SimReport> launchBytecode(const bc::Program &Prog,
                                   const ir::Function &F, Range2 Global,
                                   Range2 Local,
                                   const std::vector<KernelArg> &Args,
                                   const std::vector<BufferData *> &Buffers,
                                   const DeviceConfig &Device);

} // namespace sim
} // namespace kperf

#endif // KPERF_GPUSIM_BYTECODEEXEC_H
