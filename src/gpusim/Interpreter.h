//===- gpusim/Interpreter.h - Kernel IR executor ------------------*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes kernel IR over a simulated NDRange with OpenCL semantics:
///
///  * The reference (tree) tier lowers the IR per launch, without a
///    cache: each instruction becomes one typed operation that already
///    encodes its operand kind, address space or builtin, and phis
///    become parallel copies on the CFG edges into their block. The
///    adjacent single-use pairs the batched tier fuses (planned once for
///    both tiers by sim::planFusedPairs, gpusim/ExecCommon.h) become one
///    fused operation each: gep+load, gep+store, compare+branch and
///    multiply+add. Each handler jumps straight to the next operation's
///    (threaded dispatch through a table of label addresses). Each work
///    item owns one frame of values that starts with the arguments and
///    constants, so an operand read is one indexed load.
///  * Work groups run independently; inside a group, work items execute
///    sequentially but are suspended and resumed around barriers (phase
///    execution), so `barrier()` behaves exactly as on a GPU. Divergent
///    barriers (not reached by all items) are detected and reported.
///  * Memory is split into private (per item), local (per group), and
///    global (host buffers) arenas; all accesses are bounds-checked.
///  * While executing, the interpreter accumulates the event counters of
///    SimReport. Memory accesses go to the accounting engine both tiers
///    share (gpusim/MemAccounting.h): coalesced global transactions per
///    wavefront over unique segments, and local access groups charged
///    their bank-conflict factor.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_GPUSIM_INTERPRETER_H
#define KPERF_GPUSIM_INTERPRETER_H

#include "gpusim/Buffer.h"
#include "gpusim/DeviceConfig.h"
#include "gpusim/SimReport.h"
#include "ir/Function.h"
#include "support/Error.h"

#include <vector>

namespace kperf {
namespace sim {

namespace bc {
struct Program;
} // namespace bc

/// 2-D sizes used for global and local NDRanges.
struct Range2 {
  unsigned X = 1;
  unsigned Y = 1;

  unsigned count() const { return X * Y; }
};

/// One kernel argument: a scalar or a reference into the launch's buffer
/// vector.
struct KernelArg {
  enum class Kind : uint8_t { Int, Float, Buffer };
  Kind K = Kind::Int;
  int32_t I = 0;
  float F = 0;
  unsigned BufferIndex = 0;

  static KernelArg makeInt(int32_t V) {
    KernelArg A;
    A.K = Kind::Int;
    A.I = V;
    return A;
  }
  static KernelArg makeFloat(float V) {
    KernelArg A;
    A.K = Kind::Float;
    A.F = V;
    return A;
  }
  static KernelArg makeBuffer(unsigned Index) {
    KernelArg A;
    A.K = Kind::Buffer;
    A.BufferIndex = Index;
    return A;
  }
};

/// Executes \p F over \p Global work items in groups of \p Local.
///
/// \p Global must be divisible by \p Local in both dimensions (OpenCL 1.x
/// rule). \p Buffers backs the pointer arguments; \p Args must match the
/// kernel signature. Returns the populated SimReport or a launch/runtime
/// error (argument mismatch, out-of-bounds access, barrier divergence,
/// division by zero, local memory oversubscription).
Expected<SimReport> launchKernel(const ir::Function &F, Range2 Global,
                                 Range2 Local,
                                 const std::vector<KernelArg> &Args,
                                 std::vector<BufferData> &Buffers,
                                 const DeviceConfig &Device);

/// As above, over a bank of already-resolved buffer pointers (entries may
/// be null for slots the launch does not reference). This is the form
/// concurrent callers use: the caller snapshots stable buffer addresses
/// under its own lock, and the interpreter run itself touches no shared
/// container.
Expected<SimReport> launchKernel(const ir::Function &F, Range2 Global,
                                 Range2 Local,
                                 const std::vector<KernelArg> &Args,
                                 const std::vector<BufferData *> &Buffers,
                                 const DeviceConfig &Device);

/// How a launch executes the kernel. Both tiers produce byte-identical
/// outputs and identical SimReport counters; they differ only in
/// wall-clock speed (see docs/ARCHITECTURE.md, "Execution tiers").
enum class ExecTier : uint8_t {
  Tree,    ///< Tree-walking IR interpreter (reference semantics).
  Batched, ///< Bytecode run one instruction across the whole group.
};

/// Returns the command-line name of \p Tier ("tree" or "batched").
const char *execTierName(ExecTier Tier);

/// Parses a tier name; returns false and leaves \p Tier untouched on an
/// unknown name.
bool parseExecTier(const std::string &Name, ExecTier &Tier);

/// The process-wide default tier: KPERF_EXEC_TIER if set to a valid tier
/// name, else ExecTier::Tree. An unknown KPERF_EXEC_TIER value prints one
/// line to stderr per process, naming the accepted values.
ExecTier defaultExecTier();

/// Optional launch configuration for the tier-selecting launchKernel
/// overload.
struct LaunchOptions {
  ExecTier Tier = ExecTier::Tree;
  /// Pre-compiled bytecode of the kernel (e.g. from the rt::Session
  /// cache). Ignored by the tree tier; when null, the batched tier
  /// compiles on the fly.
  const bc::Program *Program = nullptr;
};

/// As above, executing on the tier selected by \p Options.
Expected<SimReport> launchKernel(const ir::Function &F, Range2 Global,
                                 Range2 Local,
                                 const std::vector<KernelArg> &Args,
                                 const std::vector<BufferData *> &Buffers,
                                 const DeviceConfig &Device,
                                 const LaunchOptions &Options);

} // namespace sim
} // namespace kperf

#endif // KPERF_GPUSIM_INTERPRETER_H
