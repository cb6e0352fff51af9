//===- ir/PassManager.h - Registered passes and pipelines --------*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pass-manager layer, modeled on LLVM's new pass manager reduced to
/// this project's needs:
///
///  * FunctionPass -- the pass interface: run on one function, report how
///    many changes were made, declare whether the CFG survived;
///  * PassRegistry -- maps textual names ("mem2reg", "sroa", "simplify",
///    "memopt-forward", "memopt-dse", "licm", "gvn", "unroll",
///    "perforate-loop", "dce") to pass factories; passes taking an
///    integer knob (unroll's IR-size budget, perforate-loop's stride)
///    register a parameterized factory with a default;
///  * PassPipeline -- a parsed pipeline specification such as
///
///      mem2reg,unroll,fixpoint(simplify,gvn,dce)
///
///    where a bare name runs a pass once, name(N) runs a parameterized
///    pass with knob N (e.g. unroll(512)), and fixpoint(...) repeats its
///    body until a whole round changes nothing (groups nest). Parsing
///    round-trips through str().
///
/// Running a pipeline produces a PipelineStats: one table row per pass
/// with invocation count, change count, wall-clock time, and the net
/// IR-size and static-ALU-weight deltas the pass's invocations caused
/// (the instrumentation bench_passes and kperfc surface). All derived
/// numbers (total(), the named convenience accessors) are computed from
/// that single table, so they cannot drift apart.
///
/// Analyses are shared across passes through an AnalysisManager; the
/// pipeline invalidates it after every pass that reports changes, keeping
/// CFG-level analyses when the pass declares preservesCFG(). This is what
/// makes LICM's dominator tree a per-fixpoint-round computation instead
/// of a per-invocation one.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_IR_PASSMANAGER_H
#define KPERF_IR_PASSMANAGER_H

#include "ir/AnalysisManager.h"
#include "ir/Function.h"
#include "support/Error.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace kperf {
namespace ir {

/// A transformation over one function.
class FunctionPass {
public:
  virtual ~FunctionPass() = default;

  /// The registered name of this pass.
  virtual const char *name() const = 0;

  /// Runs the pass on \p F. \p M owns \p F (passes that intern constants
  /// need it). Cached analyses are read through \p AM. \returns the
  /// number of changes made (0 = the function is untouched).
  virtual unsigned run(Function &F, Module &M, AnalysisManager &AM) = 0;

  /// True if this pass never changes the block set or branch edges, so
  /// CFG-level analyses stay valid across its mutations.
  virtual bool preservesCFG() const { return false; }
};

/// Global name -> factory map of the available passes.
class PassRegistry {
public:
  using Factory = std::function<std::unique_ptr<FunctionPass>()>;
  /// Factory of a pass taking one integer knob (e.g. unroll's budget).
  using ParamFactory =
      std::function<std::unique_ptr<FunctionPass>(unsigned)>;

  /// The process-wide registry, with the built-in passes registered.
  static PassRegistry &instance();

  /// Registers \p MakePass under \p Name, replacing any previous entry.
  void registerPass(const std::string &Name, Factory MakePass);

  /// Registers a parameterized pass: specs may spell it bare (\p Name,
  /// instantiated with \p DefaultParam) or as name(N).
  void registerParameterizedPass(const std::string &Name,
                                 ParamFactory MakePass,
                                 unsigned DefaultParam);

  /// Instantiates the pass registered as \p Name (parameterized passes
  /// get their default knob), or null if unknown.
  std::unique_ptr<FunctionPass> create(const std::string &Name) const;

  /// Instantiates a parameterized pass with knob \p Param; null when
  /// \p Name is unknown or not parameterized.
  std::unique_ptr<FunctionPass> create(const std::string &Name,
                                       unsigned Param) const;

  bool contains(const std::string &Name) const;

  /// True if \p Name is registered and accepts a name(N) parameter.
  bool isParameterized(const std::string &Name) const;

  /// All registered names, sorted.
  std::vector<std::string> registeredNames() const;

private:
  struct Entry {
    std::string Name;
    Factory Make;           ///< Always set (default knob baked in).
    ParamFactory MakeParam; ///< Set for parameterized passes only.
  };
  Entry *find(const std::string &Name);
  const Entry *find(const std::string &Name) const;
  std::vector<Entry> Factories;
};

/// One row of the per-pass statistics table.
struct PassExecution {
  std::string Name;
  unsigned Invocations = 0; ///< Times the pass ran.
  unsigned Changes = 0;     ///< Total changes reported.
  double Millis = 0;        ///< Wall-clock time spent in the pass.
  /// Net instruction-count change across this pass's invocations
  /// (negative = the pass shrank the function).
  long long SizeDelta = 0;
  /// Net static ALU-weight change, in the simulator's cost units (what
  /// one dynamic execution of the remaining instructions would charge
  /// the ALU; see staticAluWeight).
  long long AluDelta = 0;
};

/// What a pipeline run did. Every derived number comes from the one
/// per-pass table, so counters cannot drift from totals.
struct PipelineStats {
  /// One row per distinct pass name, in first-execution order.
  std::vector<PassExecution> Passes;
  /// Fixpoint rounds executed (summed over fixpoint groups, including the
  /// final no-change round).
  unsigned Iterations = 0;

  /// Changes reported by the pass registered as \p Name (0 if it did not
  /// run).
  unsigned changes(const std::string &Name) const;

  /// Sum of all changes across the table.
  unsigned total() const;

  /// Sum of all per-pass wall-clock times.
  double totalMillis() const;

  /// Finds or creates the row for \p Name.
  PassExecution &entry(const std::string &Name);

  /// Accumulates \p Other into this (multi-function compiles).
  void merge(const PipelineStats &Other);

  /// One-line summary, e.g. "simplify:12 gvn:8 dce:20 (3 rounds, 0.4 ms)".
  std::string str() const;
};

/// Execution knobs for PassPipeline::run.
struct PassRunOptions {
  /// Verify the function after every pass invocation; the first failure
  /// aborts the run and names the offending pass.
  bool VerifyEach = false;
  /// Defensive cap on fixpoint rounds; real kernels settle in two or
  /// three.
  unsigned MaxFixpointRounds = 16;
};

/// A parsed, runnable pipeline specification.
class PassPipeline {
public:
  PassPipeline() = default;

  /// Parses \p Spec. Grammar:
  ///
  ///   pipeline := element (',' element)*  |  <empty>
  ///   element  := 'fixpoint' '(' pipeline ')'
  ///             | pass-name [ '(' integer ')' ]
  ///
  /// Whitespace is ignored. Unknown pass names, empty fixpoint groups,
  /// and name(N) on a pass that takes no parameter are errors.
  static Expected<PassPipeline> parse(const std::string &Spec);

  /// Canonical textual form; parse(str()) reproduces this pipeline.
  std::string str() const;

  bool empty() const { return Elements.empty(); }

  /// Runs the pipeline on \p F, sharing analyses through \p AM. Fails
  /// only when Opts.VerifyEach finds malformed IR.
  Expected<PipelineStats> run(Function &F, Module &M, AnalysisManager &AM,
                              const PassRunOptions &Opts = {}) const;

  /// Convenience overload with a run-local AnalysisManager.
  Expected<PipelineStats> run(Function &F, Module &M,
                              const PassRunOptions &Opts = {}) const;

private:
  /// A bare pass (IsFixpoint false) or a fixpoint group over Children.
  /// Parameterized passes spelled name(N) carry the knob in Param.
  struct Element {
    bool IsFixpoint = false;
    std::string PassName;
    bool HasParam = false;
    unsigned Param = 0;
    std::vector<Element> Children;
  };

  std::vector<Element> Elements;

  friend struct PipelineParser;
  friend struct PipelineRunner;
  static std::string print(const std::vector<Element> &Elements);
};

/// The standard cleanup pipeline run over generated kernels.
const char *defaultPipelineSpec();

/// Static instruction count of \p F (every block's instructions).
size_t functionInstructionCount(const Function &F);

/// The ALU cost the simulator charges for one execution of \p I: 0 for
/// phis, allocas, memory accesses (counted as memory, not ALU), rets and
/// barriers; 4 for transcendental builtins; 1 for everything else.
unsigned staticAluWeight(const Instruction &I);

/// Sum of staticAluWeight over \p F -- the straight-line ALU work one
/// work item would execute if every instruction ran once. The per-pass
/// AluDelta instrumentation is the change in this number.
uint64_t functionStaticAluWeight(const Function &F);

} // namespace ir
} // namespace kperf

#endif // KPERF_IR_PASSMANAGER_H
