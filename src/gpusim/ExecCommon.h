//===- gpusim/ExecCommon.h - Shared execution-tier helpers --------*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by both execution tiers (tree walker and batched). The
/// launch-validation rules live here so both tiers reject a malformed
/// launch with the exact same error text -- callers and tests must not be
/// able to tell the tiers apart by their error messages.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_GPUSIM_EXECCOMMON_H
#define KPERF_GPUSIM_EXECCOMMON_H

#include "gpusim/Buffer.h"
#include "gpusim/Interpreter.h"
#include "ir/Function.h"
#include "support/Error.h"

#include <vector>

namespace kperf {
namespace sim {

/// Validates an NDRange launch of \p F: range divisibility, work-group
/// size limit, and argument arity/kind/buffer-index checks. \p Buffers
/// entries may be null for slots the launch does not reference.
Error validateLaunch(const ir::Function &F, Range2 Global, Range2 Local,
                     const std::vector<KernelArg> &Args,
                     const std::vector<BufferData *> &Buffers);

} // namespace sim
} // namespace kperf

#endif // KPERF_GPUSIM_EXECCOMMON_H
