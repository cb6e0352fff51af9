//===- tests/property_test.cpp - Parameterized property sweeps --------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// TEST_P sweeps over (application x scheme x work-group shape) asserting
// the invariants that must hold for *every* configuration:
//
//  * the transform builds and the kernel verifies + runs;
//  * constant inputs are reproduced exactly (reconstruction of a constant
//    is the constant);
//  * loaded rows/columns are bit-exact on arbitrary inputs;
//  * errors on natural inputs stay within a loose sanity bound;
//  * perforation never reads MORE than the accurate local baseline.
//
//===----------------------------------------------------------------------===//

#include "apps/App.h"
#include "ir/PassManager.h"
#include "perforation/Tuner.h"
#include "img/Generators.h"
#include "support/Rng.h"

#include <cmath>
#include <cstring>
#include <gtest/gtest.h>

using namespace kperf;
using namespace kperf::apps;
using namespace kperf::perf;

namespace {

struct SweepParam {
  const char *AppName;
  SchemeKind Kind;
  unsigned Period;
  ReconstructionKind Recon;
  unsigned WgX, WgY;
  bool ExpectFeasible;

  PerforationScheme scheme() const {
    PerforationScheme S;
    S.Kind = Kind;
    S.Period = Period;
    S.Recon = Recon;
    return S;
  }
};

std::string paramName(const ::testing::TestParamInfo<SweepParam> &Info) {
  const SweepParam &P = Info.param;
  std::string Kind;
  switch (P.Kind) {
  case SchemeKind::None:
    Kind = "Base";
    break;
  case SchemeKind::Rows:
    Kind = "Rows" + std::to_string(P.Period);
    break;
  case SchemeKind::Cols:
    Kind = "Cols" + std::to_string(P.Period);
    break;
  case SchemeKind::Stencil:
    Kind = "Stencil";
    break;
  case SchemeKind::Grid:
    Kind = "Grid" + std::to_string(P.Period);
    break;
  }
  Kind += P.Recon == ReconstructionKind::Linear ? "LI" : "NN";
  return std::string(P.AppName) + "_" + Kind + "_" +
         std::to_string(P.WgX) + "x" + std::to_string(P.WgY);
}

class PerforationSweep : public ::testing::TestWithParam<SweepParam> {
protected:
  Workload naturalWorkload() const {
    if (std::string(GetParam().AppName) == "hotspot")
      return makeHotspotWorkload(64, 17, /*Iterations=*/2);
    return makeImageWorkload(
        img::generateImage(img::ImageClass::Natural, 64, 64, 17));
  }

  Workload constantWorkload() const {
    if (std::string(GetParam().AppName) == "hotspot") {
      Workload W = makeHotspotWorkload(64, 17, 2);
      W.Input = img::Image(64, 64, 85.0f);
      W.Power = img::Image(64, 64, 0.25f);
      return W;
    }
    return makeImageWorkload(img::Image(64, 64, 0.35f));
  }
};

TEST_P(PerforationSweep, BuildsAndRuns) {
  const SweepParam &P = GetParam();
  auto App = makeApp(P.AppName);
  rt::Session Ctx;
  Expected<rt::Variant> BK =
      App->buildPerforated(Ctx, P.scheme(), {P.WgX, P.WgY});
  if (!P.ExpectFeasible) {
    // Degenerate combination (e.g. a halo-dependent scheme on a 1x1
    // kernel) must either fail cleanly or degenerate to the baseline.
    if (!BK)
      SUCCEED();
    return;
  }
  ASSERT_TRUE(static_cast<bool>(BK)) << BK.error().message();
  Expected<RunOutcome> R = App->run(Ctx, *BK, naturalWorkload());
  ASSERT_TRUE(static_cast<bool>(R)) << R.error().message();
  EXPECT_EQ(R->Output.size(), size_t(64) * 64);
}

TEST_P(PerforationSweep, ConstantInputExact) {
  const SweepParam &P = GetParam();
  if (!P.ExpectFeasible)
    GTEST_SKIP();
  auto App = makeApp(P.AppName);
  Workload W = constantWorkload();
  rt::Session Ctx;
  Expected<rt::Variant> BK =
      App->buildPerforated(Ctx, P.scheme(), {P.WgX, P.WgY});
  ASSERT_TRUE(static_cast<bool>(BK)) << BK.error().message();
  RunOutcome R = cantFail(App->run(Ctx, *BK, W));
  std::vector<float> Ref = App->reference(W);
  for (size_t I = 0; I < Ref.size(); ++I)
    ASSERT_NEAR(R.Output[I], Ref[I], 2e-4) << I;
}

TEST_P(PerforationSweep, ErrorWithinSanityBound) {
  const SweepParam &P = GetParam();
  if (!P.ExpectFeasible)
    GTEST_SKIP();
  auto App = makeApp(P.AppName);
  Workload W = naturalWorkload();
  rt::Session Ctx;
  Expected<rt::Variant> BK =
      App->buildPerforated(Ctx, P.scheme(), {P.WgX, P.WgY});
  ASSERT_TRUE(static_cast<bool>(BK));
  RunOutcome R = cantFail(App->run(Ctx, *BK, W));
  double Err = App->score(App->reference(W), R.Output);
  // Loose sanity bound: even Rows2 on natural content stays far below
  // "completely wrong".
  EXPECT_LT(Err, 0.35) << Err;
  // The accurate baseline matches the reference up to float rounding
  // (median's sum-minus-extremes selection differs in the last ulp).
  if (P.Kind == SchemeKind::None) {
    EXPECT_LT(Err, 1e-5);
  }
}

TEST_P(PerforationSweep, NeverReadsMoreThanBaseline) {
  const SweepParam &P = GetParam();
  if (!P.ExpectFeasible)
    GTEST_SKIP();
  auto App = makeApp(P.AppName);
  Workload W = naturalWorkload();
  uint64_t BaseReads, PerfReads;
  {
    rt::Session Ctx;
    rt::Variant BK = cantFail(
        App->buildPerforated(Ctx, PerforationScheme::none(),
                             {P.WgX, P.WgY}));
    BaseReads = cantFail(App->run(Ctx, BK, W))
                    .Report.Totals.GlobalReadTransactions;
  }
  {
    rt::Session Ctx;
    rt::Variant BK =
        cantFail(App->buildPerforated(Ctx, P.scheme(), {P.WgX, P.WgY}));
    PerfReads = cantFail(App->run(Ctx, BK, W))
                    .Report.Totals.GlobalReadTransactions;
  }
  EXPECT_LE(PerfReads, BaseReads);
}

std::vector<SweepParam> makeSweep() {
  struct SchemeSpec {
    SchemeKind Kind;
    unsigned Period;
    ReconstructionKind Recon;
  };
  const SchemeSpec Schemes[] = {
      {SchemeKind::None, 1, ReconstructionKind::NearestNeighbor},
      {SchemeKind::Rows, 2, ReconstructionKind::NearestNeighbor},
      {SchemeKind::Rows, 2, ReconstructionKind::Linear},
      {SchemeKind::Rows, 4, ReconstructionKind::NearestNeighbor},
      {SchemeKind::Rows, 4, ReconstructionKind::Linear},
      {SchemeKind::Cols, 2, ReconstructionKind::NearestNeighbor},
      {SchemeKind::Stencil, 1, ReconstructionKind::NearestNeighbor},
  };
  // The paper's six applications plus the extension suite (mean,
  // sharpen, and the two-pass convsep) -- the invariants are
  // configuration-independent, so every app must satisfy them.
  const char *Apps[] = {"gaussian", "inversion", "median",
                        "sobel3",   "sobel5",    "hotspot",
                        "mean",     "sharpen",   "convsep"};
  const std::pair<unsigned, unsigned> Shapes[] = {
      {16, 16}, {8, 8}, {32, 8}};
  std::vector<SweepParam> Params;
  for (const char *App : Apps)
    for (const SchemeSpec &S : Schemes)
      for (auto [X, Y] : Shapes) {
        SweepParam P;
        P.AppName = App;
        P.Kind = S.Kind;
        P.Period = S.Period;
        P.Recon = S.Recon;
        P.WgX = X;
        P.WgY = Y;
        // Stencil on inversion degenerates (1x1 footprint): still builds
        // (it equals the baseline), so every combination is feasible.
        P.ExpectFeasible = true;
        Params.push_back(P);
      }
  return Params;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, PerforationSweep,
                         ::testing::ValuesIn(makeSweep()), paramName);

//===----------------------------------------------------------------------===//
// Widened DSE property: random perforation configs
//===----------------------------------------------------------------------===//

TEST(WidenedDsePropertyTest, RandomConfigsOutputAndTrafficInvariant) {
  // Region-local DSE over memory SSA removes *private* stores no load
  // can observe. For seeded-random perforation configurations, the
  // default pipeline with and without memopt-dse must therefore produce
  // byte-identical outputs, and dropping dead stores may only ever
  // reduce traffic -- never add a global transaction.
  const std::string WithDse = ir::defaultPipelineSpec();
  const std::string WithoutDse =
      "mem2reg,unroll,fixpoint(simplify,sroa,mem2reg,gvn,"
      "memopt-forward,licm,dce)";
  const char *Apps[] = {"gaussian", "inversion", "median",
                        "sobel3",   "sobel5",    "hotspot",
                        "mean",     "sharpen",   "convsep"};
  const SchemeKind Kinds[] = {SchemeKind::None, SchemeKind::Rows,
                              SchemeKind::Cols, SchemeKind::Stencil,
                              SchemeKind::Grid};
  const std::pair<unsigned, unsigned> Shapes[] = {{16, 16}, {8, 8}, {32, 8}};

  Rng R(20260807);
  for (int Trial = 0; Trial < 12; ++Trial) {
    SweepParam P;
    P.AppName = Apps[R.below(std::size(Apps))];
    P.Kind = Kinds[R.below(std::size(Kinds))];
    P.Period = R.below(2) == 0 ? 2 : 4;
    P.Recon = R.below(2) == 0 ? ReconstructionKind::NearestNeighbor
                              : ReconstructionKind::Linear;
    std::tie(P.WgX, P.WgY) = Shapes[R.below(std::size(Shapes))];
    SCOPED_TRACE("trial " + std::to_string(Trial) + ": " + P.AppName);

    auto App = makeApp(P.AppName);
    Workload W =
        std::string(P.AppName) == "hotspot"
            ? makeHotspotWorkload(64, 17, 2)
            : makeImageWorkload(
                  img::generateImage(img::ImageClass::Natural, 64, 64, 17));

    auto Build = [&](const std::string &Spec, rt::Session &Ctx) {
      App->setPipelineSpec(Spec);
      App->setVerifyEach(true);
      return cantFail(App->run(
          Ctx, cantFail(App->buildPerforated(Ctx, P.scheme(),
                                             {P.WgX, P.WgY})),
          W));
    };
    rt::Session C1, C2;
    RunOutcome Off = Build(WithoutDse, C1);
    RunOutcome On = Build(WithDse, C2);

    ASSERT_EQ(Off.Output.size(), On.Output.size());
    EXPECT_EQ(std::memcmp(Off.Output.data(), On.Output.data(),
                          Off.Output.size() * sizeof(float)),
              0)
        << "memopt-dse changed the output bytes";
    EXPECT_LE(On.Report.Totals.GlobalReadTransactions,
              Off.Report.Totals.GlobalReadTransactions);
    EXPECT_LE(On.Report.Totals.GlobalWriteTransactions,
              Off.Report.Totals.GlobalWriteTransactions);
    EXPECT_LE(On.Report.Totals.PrivateAccesses,
              Off.Report.Totals.PrivateAccesses);
  }
}

//===----------------------------------------------------------------------===//
// Output-approximation sweep
//===----------------------------------------------------------------------===//

struct OutputParam {
  const char *AppName;
  OutputSchemeKind Kind;
  unsigned N;
};

std::string outputParamName(
    const ::testing::TestParamInfo<OutputParam> &Info) {
  const char *K = Info.param.Kind == OutputSchemeKind::Rows   ? "Rows"
                  : Info.param.Kind == OutputSchemeKind::Cols ? "Cols"
                                                              : "Center";
  return std::string(Info.param.AppName) + "_" + K +
         std::to_string(Info.param.N);
}

class OutputApproxSweep : public ::testing::TestWithParam<OutputParam> {};

TEST_P(OutputApproxSweep, RunsAndConstantExact) {
  const OutputParam &P = GetParam();
  auto App = makeApp(P.AppName);
  Workload W = makeImageWorkload(img::Image(60, 60, 0.42f));
  rt::Session Ctx;
  Expected<rt::Variant> BK =
      App->buildOutputApprox(Ctx, P.Kind, P.N, {4, 4});
  ASSERT_TRUE(static_cast<bool>(BK)) << BK.error().message();
  RunOutcome R = cantFail(App->run(Ctx, *BK, W));
  std::vector<float> Ref = App->reference(W);
  for (size_t I = 0; I < Ref.size(); ++I)
    ASSERT_NEAR(R.Output[I], Ref[I], 2e-4) << I;
}

TEST_P(OutputApproxSweep, ErrorBoundedOnNaturalInput) {
  const OutputParam &P = GetParam();
  auto App = makeApp(P.AppName);
  Workload W = makeImageWorkload(
      img::generateImage(img::ImageClass::Natural, 60, 60, 23));
  rt::Session Ctx;
  Expected<rt::Variant> BK =
      App->buildOutputApprox(Ctx, P.Kind, P.N, {4, 4});
  ASSERT_TRUE(static_cast<bool>(BK));
  RunOutcome R = cantFail(App->run(Ctx, *BK, W));
  EXPECT_LT(App->score(App->reference(W), R.Output), 0.5);
}

std::vector<OutputParam> makeOutputSweep() {
  std::vector<OutputParam> Params;
  for (const char *App : {"gaussian", "inversion", "median", "sobel3"})
    for (OutputSchemeKind K : {OutputSchemeKind::Rows,
                               OutputSchemeKind::Cols,
                               OutputSchemeKind::Center})
      for (unsigned N : {2u, 4u})
        Params.push_back({App, K, N});
  return Params;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, OutputApproxSweep,
                         ::testing::ValuesIn(makeOutputSweep()),
                         outputParamName);

//===----------------------------------------------------------------------===//
// Work-group shape sweep: the baseline transform is exact at every
// Figure-9 shape.
//===----------------------------------------------------------------------===//

class ShapeSweep
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(ShapeSweep, BaselineExactAtAnyShape) {
  auto [X, Y] = GetParam();
  auto App = makeApp("gaussian");
  Workload W = makeImageWorkload(
      img::generateImage(img::ImageClass::Natural, 128, 128, 29));
  rt::Session C1, C2;
  RunOutcome Plain = cantFail(
      App->run(C1, cantFail(App->buildPlain(C1, {16, 16})), W));
  rt::Variant BK = cantFail(
      App->buildPerforated(C2, PerforationScheme::none(), {X, Y}));
  RunOutcome R = cantFail(App->run(C2, BK, W));
  for (size_t I = 0; I < Plain.Output.size(); ++I)
    ASSERT_EQ(R.Output[I], Plain.Output[I]) << I;
}

INSTANTIATE_TEST_SUITE_P(
    Figure9Shapes, ShapeSweep,
    ::testing::ValuesIn(figure9WorkGroupShapes()),
    [](const ::testing::TestParamInfo<std::pair<unsigned, unsigned>> &I) {
      return std::to_string(I.param.first) + "x" +
             std::to_string(I.param.second);
    });

} // namespace
