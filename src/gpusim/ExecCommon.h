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
/// able to tell the tiers apart by their error messages. So does the
/// superinstruction planner, so both tiers fuse the same pairs; each tier
/// keeps its own fused-op semantics, which the pipeline oracle compares.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_GPUSIM_EXECCOMMON_H
#define KPERF_GPUSIM_EXECCOMMON_H

#include "gpusim/Buffer.h"
#include "gpusim/Interpreter.h"
#include "ir/Function.h"
#include "support/Error.h"

#include <cstdint>
#include <vector>

namespace kperf {
namespace sim {

/// Validates an NDRange launch of \p F: range divisibility, work-group
/// size limit, and argument arity/kind/buffer-index checks. \p Buffers
/// entries may be null for slots the launch does not reference.
Error validateLaunch(const ir::Function &F, Range2 Global, Range2 Local,
                     const std::vector<KernelArg> &Args,
                     const std::vector<BufferData *> &Buffers);

/// An adjacent producer/consumer pair an execution tier runs as one fused
/// op.
enum class FusedPair : uint8_t {
  None,
  GepLoad,  ///< Gep, then a load through it.
  GepStore, ///< Gep, then a store through it.
  CmpBr,    ///< Compare, then a conditional branch on it.
  MulAdd,   ///< Multiply, then an add of the product.
};

/// Plans the fused pairs of \p F. Entry K is the pair the K-th instruction
/// of \p F (blocks in order, phis included) opens as the producer, or
/// None. A producer's only use must be the instruction right after it:
/// phi operands count as uses, so a value an edge copy reads never fuses.
/// Nothing runs between the two, so folding the producer into its
/// consumer keeps evaluation order, rounding, faults and every counter,
/// and only the consumer's result is ever read.
std::vector<FusedPair> planFusedPairs(const ir::Function &F);

} // namespace sim
} // namespace kperf

#endif // KPERF_GPUSIM_EXECCOMMON_H
