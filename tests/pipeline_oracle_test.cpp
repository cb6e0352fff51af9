//===- tests/pipeline_oracle_test.cpp - Differential pipeline oracle --------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The oracle every optimization pass is pinned by: a legal pipeline spec
// must be a pure optimization. For all nine applications, the perforated
// variant built under ~twenty pipeline specs -- including the default,
// historical pipelines, the unroll/gvn/sroa passes alone, adversarial
// orderings that run sroa/gvn/memopt-dse *before* any promotion or
// simplification has normalized the IR they expect, and seeded-random
// orderings of every registered pass -- must produce
// byte-identical outputs to the variant built with the empty pipeline,
// and the IR must verify after every single pass invocation
// (App::setVerifyEach routes PassRunOptions::VerifyEach through the
// transform). A pass that changes float evaluation order, drops a store,
// or miscounts a trip fails here before it can skew a single benchmark.
//
// The same matrix also pins the execution tiers: every variant runs under
// the tree walker and the batched work-group tier, and the batched tier
// must reproduce the tree walker's output byte for byte and its
// SimReport counters bit for bit.
//
// Finally, the accurate kernels themselves: every launch of a kernel
// compiled without a spec runs the session's copy of it optimized under
// the default pipeline, so that copy must be interchangeable with the
// compiled kernel (promoted frontend IR) -- same bytes, same modeled
// time, strictly fewer ALU ops -- at every work-group shape the tuner
// uses.
//
//===----------------------------------------------------------------------===//

#include "apps/App.h"
#include "apps/Kernels.h"
#include "img/Generators.h"
#include "ir/PassManager.h"
#include "perforation/Tuner.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace kperf;
using namespace kperf::apps;

namespace {

const char *AllAppNames[] = {"gaussian", "inversion", "median",
                             "hotspot",  "sobel3",    "sobel5",
                             "mean",     "sharpen",   "convsep"};

/// A small workload: enough items for every CFG path (interior + all
/// clamp borders) while keeping 9 apps x ~20 specs fast.
Workload smallWorkload(const App &A) {
  if (A.name() == "hotspot")
    return makeHotspotWorkload(64, /*Seed=*/7, /*Iterations=*/2);
  return makeImageWorkload(
      img::generateImage(img::ImageClass::Natural, 64, 64, 7));
}

/// Seeded-random ordering of every registered pass (each once). Any
/// ordering of registered passes is a legal pipeline, so these probe
/// orderings nobody hand-picked.
std::string shuffledSpec(uint64_t Seed) {
  std::vector<std::string> Names =
      ir::PassRegistry::instance().registeredNames();
  Rng R(Seed);
  for (size_t I = Names.size(); I > 1; --I)
    std::swap(Names[I - 1], Names[R.below(I)]);
  return join(Names, ",");
}

/// The spec battery: the default, its ancestors, the new passes alone
/// and in slices, a tight unroll budget (must refuse, not break),
/// adversarial orderings that feed sroa/gvn/memopt-dse IR no sane
/// pipeline would (runtime window indices, unpromoted scalars -- the
/// passes must refuse or stay semantics-preserving, never break), and
/// seeded-random orderings -- every one verified after every pass.
std::vector<std::string> oracleSpecs() {
  std::vector<std::string> Specs = {
      "mem2reg",
      "unroll",
      "gvn",
      "sroa",
      "unroll(64)",
      "mem2reg,unroll",
      "mem2reg,unroll,fixpoint(gvn,simplify,dce)",
      ir::defaultPipelineSpec(),
      "fixpoint(simplify,memopt-forward,licm,memopt-dse,dce)",
      "mem2reg,fixpoint(simplify,memopt-forward,licm,memopt-dse,dce)",
      // Adversarial: sroa/gvn/memopt-dse ahead of mem2reg and simplify,
      // so window indices are still runtime arithmetic and the
      // transform's own scalars are still in memory form.
      "sroa,mem2reg",
      "sroa,gvn,memopt-dse,mem2reg",
      "memopt-dse,sroa,unroll,gvn,mem2reg",
      "unroll,fixpoint(sroa,simplify,mem2reg,dce),gvn",
      "fixpoint(sroa,mem2reg,gvn,memopt-dse)",
      // perforate-loop(1) is the structural no-op stride: splicing it
      // anywhere in the pipeline must stay byte-identical to baseline.
      "perforate-loop",
      "perforate-loop(1)",
      "mem2reg,perforate-loop(1),unroll",
      // The default pipeline with the no-op stride spliced where the
      // tuner would put a real one (jointPipelineSpec's slot).
      "mem2reg,perforate-loop(1),unroll,fixpoint(simplify,sroa,mem2reg,"
      "gvn,memopt-forward,licm,memopt-dse,dce)",
      shuffledSpec(1),
      shuffledSpec(2),
      shuffledSpec(3),
      shuffledSpec(6),
      shuffledSpec(7),
      "fixpoint(" + shuffledSpec(4) + ")",
      "fixpoint(" + shuffledSpec(8) + ")",
  };
  return Specs;
}

const sim::ExecTier AllTiers[] = {sim::ExecTier::Tree,
                                  sim::ExecTier::Batched};

/// Builds the Rows2:LI perforated variant of \p A under \p Spec (the
/// richest codepath: loader loops, barrier, reconstruction, rewritten
/// body) and runs it under every execution tier, verifying the IR after
/// every pass. Outcomes indexed like AllTiers; empty on build failure.
std::vector<RunOutcome> runPerforated(App &A, const Workload &W,
                                      const std::string &Spec) {
  rt::Session S;
  A.setPipelineSpec(Spec);
  A.setVerifyEach(true);
  Expected<rt::Variant> V = A.buildPerforated(
      S, perf::PerforationScheme::rows(2, perf::ReconstructionKind::Linear),
      {16, 16});
  EXPECT_TRUE(static_cast<bool>(V))
      << A.name() << " under '" << Spec << "': " << V.error().message();
  if (!V)
    return {};
  std::vector<RunOutcome> Outcomes;
  for (sim::ExecTier Tier : AllTiers) {
    S.setExecTier(Tier);
    Expected<RunOutcome> R = A.run(S, *V, W);
    EXPECT_TRUE(static_cast<bool>(R))
        << A.name() << " under '" << Spec << "' ("
        << sim::execTierName(Tier) << "): " << R.error().message();
    if (!R)
      return {};
    Outcomes.push_back(std::move(*R));
  }
  return Outcomes;
}

bool bitIdentical(const std::vector<float> &A,
                  const std::vector<float> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) == 0);
}

bool countersEqual(const sim::Counters &A, const sim::Counters &B) {
  return A.AluOps == B.AluOps && A.PrivateAccesses == B.PrivateAccesses &&
         A.LocalAccesses == B.LocalAccesses &&
         A.LocalWavefrontOps == B.LocalWavefrontOps &&
         A.BankConflictExtra == B.BankConflictExtra &&
         A.GlobalReadTransactions == B.GlobalReadTransactions &&
         A.GlobalWriteTransactions == B.GlobalWriteTransactions &&
         A.GlobalReads == B.GlobalReads &&
         A.GlobalWrites == B.GlobalWrites && A.Barriers == B.Barriers &&
         A.WorkGroups == B.WorkGroups && A.WorkItems == B.WorkItems;
}

/// Expects tiers 1.. of \p Outcomes to reproduce tier 0 (the tree walker)
/// exactly: output bytes and every SimReport counter.
void expectTierParity(const App &A, const std::string &Spec,
                      const std::vector<RunOutcome> &Outcomes) {
  for (size_t T = 1; T < Outcomes.size(); ++T) {
    EXPECT_TRUE(bitIdentical(Outcomes[0].Output, Outcomes[T].Output))
        << A.name() << " under '" << Spec << "': tier "
        << sim::execTierName(AllTiers[T])
        << " changed the output vs the tree walker";
    EXPECT_TRUE(
        countersEqual(Outcomes[0].Report.Totals, Outcomes[T].Report.Totals))
        << A.name() << " under '" << Spec << "': tier "
        << sim::execTierName(AllTiers[T])
        << " changed the simulated counters vs the tree walker";
  }
}

} // namespace

TEST(PipelineOracleTest, SpecsAllParse) {
  for (const std::string &Spec : oracleSpecs()) {
    Expected<ir::PassPipeline> P = ir::PassPipeline::parse(Spec);
    EXPECT_TRUE(static_cast<bool>(P)) << Spec;
  }
}

TEST(PipelineOracleTest, AllAppsByteIdenticalAcrossPipelinesAndTiers) {
  std::vector<std::string> Specs = oracleSpecs();
  for (const char *Name : AllAppNames) {
    auto A = makeApp(Name);
    ASSERT_NE(A, nullptr) << Name;
    Workload W = smallWorkload(*A);
    // The no-optimization baseline the specs must reproduce exactly.
    std::vector<RunOutcome> Baseline = runPerforated(*A, W, "");
    ASSERT_FALSE(Baseline.empty()) << Name;
    expectTierParity(*A, "", Baseline);
    for (const std::string &Spec : Specs) {
      std::vector<RunOutcome> Out = runPerforated(*A, W, Spec);
      ASSERT_FALSE(Out.empty()) << A->name() << " under '" << Spec << "'";
      EXPECT_TRUE(bitIdentical(Baseline[0].Output, Out[0].Output))
          << A->name() << ": pipeline '" << Spec
          << "' changed the output vs the empty pipeline";
      expectTierParity(*A, Spec, Out);
    }
  }
}

TEST(PipelineOracleTest, OutputApproxVariantsAreStableToo) {
  // The Paraprox-style variants run the same cleanup pipeline; spot-check
  // the spec x output invariance on one window app and one pointwise app.
  for (const char *Name : {"gaussian", "inversion"}) {
    auto A = makeApp(Name);
    ASSERT_NE(A, nullptr) << Name;
    Workload W = smallWorkload(*A);
    std::vector<float> Baseline;
    for (const std::string &Spec :
         {std::string(""), std::string(ir::defaultPipelineSpec()),
          shuffledSpec(5)}) {
      rt::Session S;
      A->setPipelineSpec(Spec);
      A->setVerifyEach(true);
      Expected<rt::Variant> V = A->buildOutputApprox(
          S, perf::OutputSchemeKind::Rows, 2, {16, 16});
      ASSERT_TRUE(static_cast<bool>(V))
          << Name << " under '" << Spec << "': " << V.error().message();
      Expected<RunOutcome> R = A->run(S, *V, W);
      ASSERT_TRUE(static_cast<bool>(R))
          << Name << " under '" << Spec << "': " << R.error().message();
      if (Baseline.empty())
        Baseline = R->Output;
      else
        EXPECT_TRUE(bitIdentical(Baseline, R->Output))
            << Name << ": output-approx pipeline '" << Spec
            << "' changed the output";
    }
  }
}

TEST(PipelineOracleTest, OptimizedAccurateKernelsMatchFrontend) {
  // The nine standard-signature kernels (in, out, w, h), each launched
  // as compiled (the optimized launch copy) and as the promoted
  // frontend IR itself (rt::Kernel{K.F}) in one session, at every Fig. 9
  // shape on both tiers. The default pipeline is exact, and these
  // kernels are memory-bound under the max(compute, memory) cost model,
  // so dropping ALU and private traffic leaves the modeled time alone.
  const std::vector<apps::ImageKernel> Kernels = apps::standardImageKernels();
  const int Size = 128;
  const std::vector<float> Input =
      img::generateImage(img::ImageClass::Natural, Size, Size, 11).pixels();
  // A sentinel no kernel writes: a pixel either one leaves unwritten shows.
  const std::vector<float> Unwritten(Input.size(), -1e30f);

  for (const auto &[Name, Source] : Kernels) {
    rt::Session S;
    const rt::Kernel Opt = cantFail(S.compile(Source, Name));
    ASSERT_NE(Opt.Launch, nullptr) << Name;
    const rt::Kernel Frontend{Opt.F};
    const unsigned In = S.createBufferFrom(Input);
    const unsigned Out = S.createBuffer(Input.size());
    const std::vector<sim::KernelArg> Args = {
        rt::arg::buffer(In), rt::arg::buffer(Out), rt::arg::i32(Size),
        rt::arg::i32(Size)};
    auto Run = [&](const rt::Kernel &K, sim::Range2 Local,
                   std::vector<float> &Output) {
      S.buffer(Out).uploadFloats(Unwritten);
      sim::SimReport R = cantFail(S.launch(
          K, {unsigned(Size), unsigned(Size)}, Local, Args));
      Output = S.buffer(Out).downloadFloats();
      return R;
    };
    for (sim::ExecTier Tier : AllTiers) {
      S.setExecTier(Tier);
      for (auto [X, Y] : perf::figure9WorkGroupShapes()) {
        std::vector<float> Want, Got;
        const sim::SimReport F = Run(Frontend, {X, Y}, Want);
        const sim::SimReport O = Run(Opt, {X, Y}, Got);
        const std::string At = format("%s at %ux%u (%s)", Name, X, Y,
                                      sim::execTierName(Tier));
        EXPECT_TRUE(bitIdentical(Want, Got)) << At;
        EXPECT_EQ(F.TimeMs, O.TimeMs) << At;
        EXPECT_LT(O.Totals.AluOps, F.Totals.AluOps) << At;
        EXPECT_LE(O.Totals.PrivateAccesses, F.Totals.PrivateAccesses) << At;
      }
    }
  }

  // Hotspot's ten-argument kernel, as its plain variant runs it.
  auto Hotspot = makeApp("hotspot");
  const Workload W = makeHotspotWorkload(Size, /*Seed=*/11,
                                         /*Iterations=*/2);
  rt::Session S;
  for (sim::ExecTier Tier : AllTiers) {
    S.setExecTier(Tier);
    for (auto [X, Y] : perf::figure9WorkGroupShapes()) {
      const rt::Variant Opt = cantFail(Hotspot->buildPlain(S, {X, Y}));
      ASSERT_NE(Opt.K.Launch, nullptr);
      rt::Variant Frontend = Opt;
      Frontend.K = rt::Kernel{Opt.K.F};
      const RunOutcome F = cantFail(Hotspot->run(S, Frontend, W));
      const RunOutcome O = cantFail(Hotspot->run(S, Opt, W));
      const std::string At =
          format("hotspot at %ux%u (%s)", X, Y, sim::execTierName(Tier));
      EXPECT_TRUE(bitIdentical(F.Output, O.Output)) << At;
      EXPECT_EQ(F.Report.TimeMs, O.Report.TimeMs) << At;
      EXPECT_LT(O.Report.Totals.AluOps, F.Report.Totals.AluOps) << At;
    }
  }
}
