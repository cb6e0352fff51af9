//===- ir/PassManager.cpp --------------------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "ir/PassManager.h"

#include "ir/DCE.h"
#include "ir/GVN.h"
#include "ir/LICM.h"
#include "ir/LoopPerforate.h"
#include "ir/LoopUnroll.h"
#include "ir/Mem2Reg.h"
#include "ir/MemOpt.h"
#include "ir/SROA.h"
#include "ir/Simplify.h"
#include "ir/Verifier.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <map>

using namespace kperf;
using namespace kperf::ir;

//===----------------------------------------------------------------------===//
// Built-in pass wrappers
//===----------------------------------------------------------------------===//

namespace {

/// Constant folding, identities, and condbr-on-constant cleanup. Folding
/// a conditional branch rewrites CFG edges, so nothing CFG-level is
/// preserved.
class SimplifyPass : public FunctionPass {
public:
  const char *name() const override { return "simplify"; }
  unsigned run(Function &F, Module &M, AnalysisManager &) override {
    return simplifyFunction(F, M);
  }
};

/// Store-to-load forwarding half of MemOpt.
class MemOptForwardPass : public FunctionPass {
public:
  const char *name() const override { return "memopt-forward"; }
  unsigned run(Function &F, Module &, AnalysisManager &) override {
    return forwardStores(F);
  }
  bool preservesCFG() const override { return true; }
};

/// Dead-store elimination half of MemOpt, region-local over the cached
/// memory SSA.
class MemOptDSEPass : public FunctionPass {
public:
  const char *name() const override { return "memopt-dse"; }
  unsigned run(Function &F, Module &, AnalysisManager &AM) override {
    return eliminateDeadStores(F, AM.getMemorySSA(F));
  }
  bool preservesCFG() const override { return true; }
};

/// Loop-invariant code motion. Moves instructions between existing
/// blocks; the block set and branch edges stay intact, so the loops it
/// reads from the AnalysisManager remain valid across its own mutations
/// -- this is the pass the analysis cache exists for. The memory SSA it
/// hands to the load-hoisting rule stays accurate too: LICM never moves
/// a store or barrier, so no def chain changes.
class LICMPass : public FunctionPass {
public:
  const char *name() const override { return "licm"; }
  unsigned run(Function &F, Module &, AnalysisManager &AM) override {
    return hoistLoopInvariants(F, AM);
  }
  bool preservesCFG() const override { return true; }
};

/// Scalar replacement of aggregates: splits constant-indexed private
/// array allocas into per-element scalars for mem2reg to promote.
/// Inserts and erases allocas/GEPs only; blocks and branch edges stay
/// intact.
class SROAPass : public FunctionPass {
public:
  const char *name() const override { return "sroa"; }
  unsigned run(Function &F, Module &, AnalysisManager &) override {
    return scalarizeAggregates(F);
  }
  bool preservesCFG() const override { return true; }
};

/// SSA promotion of private scalar allocas. Inserts phis and deletes
/// loads/stores/allocas but never touches the block set or branch edges,
/// so the dominator tree and frontier it reads stay valid.
class Mem2RegPass : public FunctionPass {
public:
  const char *name() const override { return "mem2reg"; }
  unsigned run(Function &F, Module &M, AnalysisManager &AM) override {
    return promoteMemoryToRegisters(F, M, AM);
  }
  bool preservesCFG() const override { return true; }
};

/// Trivial dead code elimination; removes non-terminators only.
class DCEPass : public FunctionPass {
public:
  const char *name() const override { return "dce"; }
  unsigned run(Function &F, Module &, AnalysisManager &) override {
    return eliminateDeadCode(F);
  }
  bool preservesCFG() const override { return true; }
};

/// Cross-block value numbering scoped by the dominator tree, with load
/// numbering over the cached memory SSA. Redirects uses to dominating
/// leaders; terminators and edges stay intact, so the tree it reads
/// remains valid across its own mutations.
class GVNPass : public FunctionPass {
public:
  const char *name() const override { return "gvn"; }
  unsigned run(Function &F, Module &, AnalysisManager &AM) override {
    return numberValuesGlobally(F, AM.getDominatorTree(F),
                                AM.getMemorySSA(F));
  }
  bool preservesCFG() const override { return true; }
};

/// Full unrolling of constant-trip loops under an IR-size budget, then
/// straight-line chain merging -- both rewrite the block set.
class UnrollPass : public FunctionPass {
public:
  explicit UnrollPass(unsigned Budget) : Budget(Budget) {}
  const char *name() const override { return "unroll"; }
  unsigned run(Function &F, Module &M, AnalysisManager &) override {
    return unrollConstantLoops(F, M, Budget);
  }

private:
  unsigned Budget;
};

/// Generalized loop perforation: strides eligible induction variables by
/// the knob (default 1 = structural no-op). Inserts arithmetic and
/// rewrites phi incomings only; the block set and branch edges stay
/// intact.
class LoopPerforatePass : public FunctionPass {
public:
  explicit LoopPerforatePass(unsigned Stride) : Stride(Stride) {}
  const char *name() const override { return "perforate-loop"; }
  unsigned run(Function &F, Module &M, AnalysisManager &AM) override {
    return perforateLoops(F, M, AM, Stride);
  }
  bool preservesCFG() const override { return true; }

private:
  unsigned Stride;
};

} // namespace

//===----------------------------------------------------------------------===//
// PassRegistry
//===----------------------------------------------------------------------===//

PassRegistry &PassRegistry::instance() {
  static PassRegistry *R = [] {
    auto *Reg = new PassRegistry();
    Reg->registerPass("simplify",
                      [] { return std::make_unique<SimplifyPass>(); });
    Reg->registerPass("memopt-forward", [] {
      return std::make_unique<MemOptForwardPass>();
    });
    Reg->registerPass("memopt-dse",
                      [] { return std::make_unique<MemOptDSEPass>(); });
    Reg->registerPass("licm", [] { return std::make_unique<LICMPass>(); });
    Reg->registerPass("mem2reg",
                      [] { return std::make_unique<Mem2RegPass>(); });
    Reg->registerPass("sroa",
                      [] { return std::make_unique<SROAPass>(); });
    Reg->registerPass("gvn", [] { return std::make_unique<GVNPass>(); });
    Reg->registerParameterizedPass(
        "unroll",
        [](unsigned Budget) { return std::make_unique<UnrollPass>(Budget); },
        DefaultUnrollBudget);
    Reg->registerParameterizedPass(
        "perforate-loop",
        [](unsigned Stride) {
          return std::make_unique<LoopPerforatePass>(Stride);
        },
        /*DefaultParam=*/1);
    Reg->registerPass("dce", [] { return std::make_unique<DCEPass>(); });
    return Reg;
  }();
  return *R;
}

PassRegistry::Entry *PassRegistry::find(const std::string &Name) {
  for (Entry &E : Factories)
    if (E.Name == Name)
      return &E;
  return nullptr;
}

const PassRegistry::Entry *
PassRegistry::find(const std::string &Name) const {
  for (const Entry &E : Factories)
    if (E.Name == Name)
      return &E;
  return nullptr;
}

void PassRegistry::registerPass(const std::string &Name, Factory MakePass) {
  if (Entry *E = find(Name)) {
    E->Make = std::move(MakePass);
    E->MakeParam = nullptr;
    return;
  }
  Factories.push_back({Name, std::move(MakePass), nullptr});
}

void PassRegistry::registerParameterizedPass(const std::string &Name,
                                             ParamFactory MakePass,
                                             unsigned DefaultParam) {
  Factory Default = [MakePass, DefaultParam] {
    return MakePass(DefaultParam);
  };
  if (Entry *E = find(Name)) {
    E->Make = std::move(Default);
    E->MakeParam = std::move(MakePass);
    return;
  }
  Factories.push_back({Name, std::move(Default), std::move(MakePass)});
}

std::unique_ptr<FunctionPass>
PassRegistry::create(const std::string &Name) const {
  const Entry *E = find(Name);
  return E ? E->Make() : nullptr;
}

std::unique_ptr<FunctionPass>
PassRegistry::create(const std::string &Name, unsigned Param) const {
  const Entry *E = find(Name);
  return E && E->MakeParam ? E->MakeParam(Param) : nullptr;
}

bool PassRegistry::contains(const std::string &Name) const {
  return find(Name) != nullptr;
}

bool PassRegistry::isParameterized(const std::string &Name) const {
  const Entry *E = find(Name);
  return E && E->MakeParam != nullptr;
}

std::vector<std::string> PassRegistry::registeredNames() const {
  std::vector<std::string> Names;
  Names.reserve(Factories.size());
  for (const Entry &E : Factories)
    Names.push_back(E.Name);
  std::sort(Names.begin(), Names.end());
  return Names;
}

//===----------------------------------------------------------------------===//
// PipelineStats
//===----------------------------------------------------------------------===//

unsigned PipelineStats::changes(const std::string &Name) const {
  for (const PassExecution &E : Passes)
    if (E.Name == Name)
      return E.Changes;
  return 0;
}

unsigned PipelineStats::total() const {
  unsigned Sum = 0;
  for (const PassExecution &E : Passes)
    Sum += E.Changes;
  return Sum;
}

double PipelineStats::totalMillis() const {
  double Sum = 0;
  for (const PassExecution &E : Passes)
    Sum += E.Millis;
  return Sum;
}

PassExecution &PipelineStats::entry(const std::string &Name) {
  for (PassExecution &E : Passes)
    if (E.Name == Name)
      return E;
  Passes.push_back(PassExecution{Name, 0, 0, 0, 0, 0});
  return Passes.back();
}

void PipelineStats::merge(const PipelineStats &Other) {
  for (const PassExecution &E : Other.Passes) {
    PassExecution &Mine = entry(E.Name);
    Mine.Invocations += E.Invocations;
    Mine.Changes += E.Changes;
    Mine.Millis += E.Millis;
    Mine.SizeDelta += E.SizeDelta;
    Mine.AluDelta += E.AluDelta;
  }
  Iterations += Other.Iterations;
}

std::string PipelineStats::str() const {
  std::string S;
  for (const PassExecution &E : Passes) {
    if (!S.empty())
      S += ' ';
    S += format("%s:%u", E.Name.c_str(), E.Changes);
  }
  S += format("%s(%u rounds, %.2f ms)", S.empty() ? "" : " ", Iterations,
              totalMillis());
  return S;
}

//===----------------------------------------------------------------------===//
// Pipeline parsing
//===----------------------------------------------------------------------===//

namespace kperf {
namespace ir {

struct PipelineParser {
  const std::string &Spec;
  size_t Pos = 0;
  Error Err;

  explicit PipelineParser(const std::string &Spec) : Spec(Spec) {}

  void skipSpace() {
    while (Pos < Spec.size() &&
           std::isspace(static_cast<unsigned char>(Spec[Pos])))
      ++Pos;
  }

  bool atEnd() {
    skipSpace();
    return Pos >= Spec.size();
  }

  /// Reads a pass-name token ([A-Za-z0-9_-]+); empty on failure.
  std::string readName() {
    skipSpace();
    size_t Start = Pos;
    while (Pos < Spec.size()) {
      char Ch = Spec[Pos];
      if (std::isalnum(static_cast<unsigned char>(Ch)) || Ch == '_' ||
          Ch == '-')
        ++Pos;
      else
        break;
    }
    return Spec.substr(Start, Pos - Start);
  }

  bool consume(char Ch) {
    skipSpace();
    if (Pos < Spec.size() && Spec[Pos] == Ch) {
      ++Pos;
      return true;
    }
    return false;
  }

  /// pipeline := element (',' element)* | <empty-if AllowEmpty>
  bool parseList(std::vector<PassPipeline::Element> &Out, bool TopLevel) {
    skipSpace();
    if (TopLevel && atEnd())
      return true; // Empty spec: the no-op pipeline.
    while (true) {
      PassPipeline::Element E;
      if (!parseElement(E))
        return false;
      Out.push_back(std::move(E));
      skipSpace();
      if (!consume(','))
        return true;
    }
  }

  /// Reads the '(' integer ')' parameter of a parameterized pass.
  bool parseParam(const std::string &Name, PassPipeline::Element &E) {
    skipSpace();
    size_t Start = Pos;
    while (Pos < Spec.size() &&
           std::isdigit(static_cast<unsigned char>(Spec[Pos])))
      ++Pos;
    if (Pos == Start) {
      Err = makeError("pipeline spec: expected integer parameter for "
                      "'%s' in '%s'",
                      Name.c_str(), Spec.c_str());
      return false;
    }
    unsigned long long Raw =
        std::strtoull(Spec.substr(Start, Pos - Start).c_str(), nullptr,
                      10);
    if (Raw > std::numeric_limits<unsigned>::max()) {
      Err = makeError("pipeline spec: parameter for '%s' out of range "
                      "in '%s'",
                      Name.c_str(), Spec.c_str());
      return false;
    }
    E.HasParam = true;
    E.Param = static_cast<unsigned>(Raw);
    if (!consume(')')) {
      Err = makeError("pipeline spec: missing ')' after '%s(' in '%s'",
                      Name.c_str(), Spec.c_str());
      return false;
    }
    return true;
  }

  bool parseElement(PassPipeline::Element &E) {
    std::string Name = readName();
    if (Name.empty()) {
      Err = makeError("pipeline spec: expected pass name at position %zu "
                      "in '%s'",
                      Pos, Spec.c_str());
      return false;
    }
    if (Name == "fixpoint") {
      if (!consume('(')) {
        Err = makeError("pipeline spec: expected '(' after fixpoint in "
                        "'%s'",
                        Spec.c_str());
        return false;
      }
      E.IsFixpoint = true;
      if (!parseList(E.Children, /*TopLevel=*/false))
        return false;
      if (!consume(')')) {
        Err = makeError("pipeline spec: missing ')' in '%s'", Spec.c_str());
        return false;
      }
      if (E.Children.empty()) {
        Err = makeError("pipeline spec: empty fixpoint group in '%s'",
                        Spec.c_str());
        return false;
      }
      return true;
    }
    if (!PassRegistry::instance().contains(Name)) {
      Err = makeError("pipeline spec: unknown pass '%s' (registered: %s)",
                      Name.c_str(),
                      join(PassRegistry::instance().registeredNames(), ", ")
                          .c_str());
      return false;
    }
    E.PassName = Name;
    if (consume('(')) {
      if (!PassRegistry::instance().isParameterized(Name)) {
        Err = makeError("pipeline spec: pass '%s' takes no parameter in "
                        "'%s'",
                        Name.c_str(), Spec.c_str());
        return false;
      }
      return parseParam(Name, E);
    }
    return true;
  }
};

} // namespace ir
} // namespace kperf

Expected<PassPipeline> PassPipeline::parse(const std::string &Spec) {
  PipelineParser P(Spec);
  PassPipeline Pipeline;
  if (!P.parseList(Pipeline.Elements, /*TopLevel=*/true))
    return P.Err;
  if (!P.atEnd())
    return makeError("pipeline spec: trailing characters at position %zu "
                     "in '%s'",
                     P.Pos, Spec.c_str());
  return Pipeline;
}

std::string PassPipeline::print(const std::vector<Element> &Elements) {
  std::string S;
  for (const Element &E : Elements) {
    if (!S.empty())
      S += ',';
    if (E.IsFixpoint)
      S += "fixpoint(" + print(E.Children) + ")";
    else if (E.HasParam)
      S += format("%s(%u)", E.PassName.c_str(), E.Param);
    else
      S += E.PassName;
  }
  return S;
}

std::string PassPipeline::str() const { return print(Elements); }

//===----------------------------------------------------------------------===//
// Pipeline execution
//===----------------------------------------------------------------------===//

namespace kperf {
namespace ir {

struct PipelineRunner {
  Function &F;
  Module &M;
  AnalysisManager &AM;
  const PassRunOptions &Opts;
  PipelineStats &Stats;
  /// Pass instances are stateless; one per distinct name per run.
  std::map<std::string, std::unique_ptr<FunctionPass>> Instances;
  Error Err;

  PipelineRunner(Function &F, Module &M, AnalysisManager &AM,
                 const PassRunOptions &Opts, PipelineStats &Stats)
      : F(F), M(M), AM(AM), Opts(Opts), Stats(Stats) {}

  FunctionPass &passFor(const PassPipeline::Element &El) {
    // Instances are keyed by the canonical element spelling, so
    // unroll(64) and unroll(512) in one pipeline stay distinct; the
    // stats row is keyed by the bare pass name either way.
    std::string Key = El.HasParam
                          ? format("%s(%u)", El.PassName.c_str(), El.Param)
                          : El.PassName;
    std::unique_ptr<FunctionPass> &P = Instances[Key];
    if (!P) {
      P = El.HasParam
              ? PassRegistry::instance().create(El.PassName, El.Param)
              : PassRegistry::instance().create(El.PassName);
      assert(P && "unknown pass survived parsing");
    }
    return *P;
  }

  /// One fused walk for the two per-pass instrumentation numbers.
  std::pair<size_t, uint64_t> measureFunction() const {
    size_t Size = 0;
    uint64_t Alu = 0;
    for (const auto &BB : F.blocks()) {
      Size += BB->size();
      for (const auto &I : BB->instructions())
        Alu += staticAluWeight(*I);
    }
    return {Size, Alu};
  }

  /// Runs one pass invocation; returns its change count, or ~0u on a
  /// verify-each failure (Err is set).
  unsigned runOne(const PassPipeline::Element &El) {
    FunctionPass &P = passFor(El);
    auto [SizeBefore, AluBefore] = measureFunction();
    auto Start = std::chrono::steady_clock::now();
    unsigned Changes = P.run(F, M, AM);
    auto End = std::chrono::steady_clock::now();

    PassExecution &E = Stats.entry(El.PassName);
    ++E.Invocations;
    E.Changes += Changes;
    E.Millis +=
        std::chrono::duration<double, std::milli>(End - Start).count();
    if (Changes) {
      auto [SizeAfter, AluAfter] = measureFunction();
      E.SizeDelta += static_cast<long long>(SizeAfter) -
                     static_cast<long long>(SizeBefore);
      E.AluDelta += static_cast<long long>(AluAfter) -
                    static_cast<long long>(AluBefore);
    }

    if (Changes)
      AM.invalidate(F, P.preservesCFG());
    if (Opts.VerifyEach) {
      if (Error VE = verifyFunction(F)) {
        Err = makeError("verification failed after pass '%s': %s",
                        El.PassName.c_str(), VE.message().c_str());
        return ~0u;
      }
    }
    return Changes;
  }

  /// Runs \p Elements once; returns the change count, or ~0u on error.
  unsigned runList(const std::vector<PassPipeline::Element> &Elements) {
    unsigned Changes = 0;
    for (const PassPipeline::Element &E : Elements) {
      unsigned C;
      if (E.IsFixpoint)
        C = runFixpoint(E.Children);
      else
        C = runOne(E);
      if (C == ~0u)
        return ~0u;
      Changes += C;
    }
    return Changes;
  }

  /// Repeats \p Body until a whole round changes nothing (counting the
  /// final no-change round), capped defensively.
  unsigned runFixpoint(const std::vector<PassPipeline::Element> &Body) {
    unsigned Changes = 0;
    for (unsigned Round = 0; Round < Opts.MaxFixpointRounds; ++Round) {
      unsigned RoundChanges = runList(Body);
      if (RoundChanges == ~0u)
        return ~0u;
      ++Stats.Iterations;
      Changes += RoundChanges;
      if (RoundChanges == 0)
        break;
    }
    return Changes;
  }
};

} // namespace ir
} // namespace kperf

Expected<PipelineStats> PassPipeline::run(Function &F, Module &M,
                                          AnalysisManager &AM,
                                          const PassRunOptions &Opts) const {
  PipelineStats Stats;
  PipelineRunner Runner(F, M, AM, Opts, Stats);
  if (Runner.runList(Elements) == ~0u)
    return Runner.Err;
  return Stats;
}

Expected<PipelineStats> PassPipeline::run(Function &F, Module &M,
                                          const PassRunOptions &Opts) const {
  AnalysisManager AM;
  return run(F, M, AM, Opts);
}

const char *ir::defaultPipelineSpec() {
  // mem2reg leads: one application promotes everything it ever will.
  // unroll runs next (it needs the SSA induction phis, and one
  // application flattens every constant-trip loop it ever will), turning
  // the filter-window nests into straight-line blocks. The fixpoint
  // group then folds the collapsed induction arithmetic (simplify) --
  // which is what turns the window arrays' `ky*W+kx` GEP indices into
  // constants -- so sroa can split them into scalars and the in-group
  // mem2reg can promote those (plus anything unroll exposed) in the same
  // round; gvn then merges the cross-block recomputations unrolling and
  // perforation expose, and the memory cleanups iterate over IR that
  // carries almost no private traffic (memopt survives for what
  // promotion must skip: runtime-indexed arrays and local tiles).
  // Forwarding runs after gvn so duplicate GEPs have been merged and
  // pointer identity finds every same-address pair; DSE runs after licm.
  return "mem2reg,unroll,fixpoint(simplify,sroa,mem2reg,gvn,"
         "memopt-forward,licm,memopt-dse,dce)";
}

size_t ir::functionInstructionCount(const Function &F) {
  size_t N = 0;
  for (const auto &BB : F.blocks())
    N += BB->size();
  return N;
}

unsigned ir::staticAluWeight(const Instruction &I) {
  switch (I.opcode()) {
  case Opcode::Alloca:
  case Opcode::Load:  // Memory lanes, charged separately.
  case Opcode::Store:
  case Opcode::Phi:   // Free: codegen folds phis into predecessor moves.
  case Opcode::Ret:
    return 0;
  case Opcode::Call:
    switch (I.callee()) {
    case Builtin::Barrier:
      return 0;
    case Builtin::Sqrt:
    case Builtin::Exp:
    case Builtin::Log:
    case Builtin::Pow:
      return 4; // Transcendentals cost more (see sim::Interpreter).
    default:
      return 1;
    }
  default:
    return 1; // Arithmetic, comparisons, gep, branches.
  }
}

uint64_t ir::functionStaticAluWeight(const Function &F) {
  uint64_t W = 0;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      W += staticAluWeight(*I);
  return W;
}
