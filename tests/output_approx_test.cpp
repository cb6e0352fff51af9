//===- tests/output_approx_test.cpp - Paraprox transform tests --------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "CompilePromoted.h"
#include "apps/App.h"
#include "apps/Kernels.h"
#include "img/Generators.h"
#include "perforation/OutputApprox.h"

#include <cmath>
#include <gtest/gtest.h>

using namespace kperf;
using namespace kperf::apps;
using namespace kperf::perf;

namespace {

Expected<RunOutcome> runApprox(const App &TheApp, const Workload &W,
                               OutputSchemeKind Kind, unsigned N) {
  rt::Session Ctx;
  Expected<rt::Variant> BK =
      TheApp.buildOutputApprox(Ctx, Kind, N, {16, 16});
  if (!BK)
    return BK.takeError();
  return TheApp.run(Ctx, *BK, W);
}

TEST(OutputApproxTest, ConstantInputExact) {
  // Copying computed outputs to neighbors is exact when all outputs are
  // equal.
  auto TheApp = makeApp("gaussian");
  Workload W = makeImageWorkload(img::Image(48, 48, 0.3f));
  std::vector<float> Ref = TheApp->reference(W);
  for (OutputSchemeKind K : {OutputSchemeKind::Rows, OutputSchemeKind::Cols,
                             OutputSchemeKind::Center}) {
    RunOutcome R = cantFail(runApprox(*TheApp, W, K, 2));
    for (size_t I = 0; I < Ref.size(); ++I)
      ASSERT_NEAR(R.Output[I], Ref[I], 1e-6) << I;
  }
}

TEST(OutputApproxTest, EveryOutputWritten) {
  // run() zero-initializes the output buffer; with inputs bounded away
  // from 1.0, inversion can never legitimately produce 0, so a remaining
  // zero means an output element was never written.
  auto TheApp = makeApp("inversion");
  img::Image In(48, 48);
  for (unsigned Y = 0; Y < 48; ++Y)
    for (unsigned X = 0; X < 48; ++X)
      In.set(X, Y, 0.2f + 0.01f * static_cast<float>((X * 7 + Y) % 31));
  rt::Session Ctx;
  rt::Variant BK = cantFail(
      TheApp->buildOutputApprox(Ctx, OutputSchemeKind::Rows, 2, {16, 16}));
  RunOutcome R = cantFail(TheApp->run(Ctx, BK, makeImageWorkload(In)));
  for (size_t I = 0; I < R.Output.size(); ++I)
    ASSERT_NE(R.Output[I], 0.0f) << "unwritten output " << I;
}

TEST(OutputApproxTest, ComputedRowsExactRowsScheme) {
  // Period 3, offset 1: global rows 3k+1 are computed exactly.
  auto TheApp = makeApp("inversion");
  img::Image In = img::generateImage(img::ImageClass::Noise, 48, 48, 8);
  Workload W = makeImageWorkload(In);
  std::vector<float> Ref = TheApp->reference(W);
  RunOutcome R = cantFail(runApprox(*TheApp, W, OutputSchemeKind::Rows, 2));
  for (unsigned Y = 1; Y < 48; Y += 3)
    for (unsigned X = 0; X < 48; ++X)
      ASSERT_EQ(R.Output[Y * 48 + X], Ref[Y * 48 + X]) << Y << "," << X;
}

TEST(OutputApproxTest, NeighborsAreCopies) {
  auto TheApp = makeApp("inversion");
  img::Image In = img::generateImage(img::ImageClass::Noise, 48, 48, 8);
  Workload W = makeImageWorkload(In);
  RunOutcome R = cantFail(runApprox(*TheApp, W, OutputSchemeKind::Rows, 2));
  // Rows 3k and 3k+2 are copies of row 3k+1 (interior rows).
  for (unsigned K = 0; K + 2 < 48 / 3; ++K) {
    unsigned Computed = 3 * K + 1;
    for (unsigned X = 0; X < 48; ++X) {
      ASSERT_EQ(R.Output[(Computed - 1) * 48 + X],
                R.Output[Computed * 48 + X]);
      ASSERT_EQ(R.Output[(Computed + 1) * 48 + X],
                R.Output[Computed * 48 + X]);
    }
  }
}

TEST(OutputApproxTest, ColsSchemeCopiesColumns) {
  auto TheApp = makeApp("inversion");
  img::Image In = img::generateImage(img::ImageClass::Noise, 48, 48, 8);
  Workload W = makeImageWorkload(In);
  RunOutcome R = cantFail(runApprox(*TheApp, W, OutputSchemeKind::Cols, 2));
  for (unsigned Y = 0; Y < 48; ++Y)
    for (unsigned K = 0; K + 2 < 48 / 3; ++K) {
      unsigned C = 3 * K + 1;
      ASSERT_EQ(R.Output[Y * 48 + C - 1], R.Output[Y * 48 + C]);
      ASSERT_EQ(R.Output[Y * 48 + C + 1], R.Output[Y * 48 + C]);
    }
}

TEST(OutputApproxTest, CenterSchemeCopies8Neighbors) {
  auto TheApp = makeApp("inversion");
  img::Image In = img::generateImage(img::ImageClass::Noise, 48, 48, 8);
  Workload W = makeImageWorkload(In);
  RunOutcome R =
      cantFail(runApprox(*TheApp, W, OutputSchemeKind::Center, 2));
  for (unsigned Ky = 0; Ky + 2 < 48 / 3; ++Ky)
    for (unsigned Kx = 0; Kx + 2 < 48 / 3; ++Kx) {
      unsigned Cy = 3 * Ky + 1, Cx = 3 * Kx + 1;
      float Center = R.Output[Cy * 48 + Cx];
      for (int Dy = -1; Dy <= 1; ++Dy)
        for (int Dx = -1; Dx <= 1; ++Dx)
          ASSERT_EQ(R.Output[(Cy + Dy) * 48 + (Cx + Dx)], Center);
    }
}

TEST(OutputApproxTest, Scheme2UsesPeriod5) {
  auto TheApp = makeApp("inversion");
  img::Image In = img::generateImage(img::ImageClass::Noise, 80, 80, 8);
  Workload W = makeImageWorkload(In);
  std::vector<float> Ref = TheApp->reference(W);
  RunOutcome R = cantFail(runApprox(*TheApp, W, OutputSchemeKind::Rows, 4));
  // Computed rows are 5k+2.
  for (unsigned Y = 2; Y < 80; Y += 5)
    for (unsigned X = 0; X < 80; ++X)
      ASSERT_EQ(R.Output[Y * 80 + X], Ref[Y * 80 + X]);
}

TEST(OutputApproxTest, NonDivisibleSizeStillCoversImage) {
  // 52 is not divisible by 3; padding work items recompute clamped rows.
  auto TheApp = makeApp("inversion");
  img::Image In(52, 52, 0.0f);
  for (unsigned Y = 0; Y < 52; ++Y)
    for (unsigned X = 0; X < 52; ++X)
      In.set(X, Y, 0.2f + 0.01f * static_cast<float>((X + Y) % 13));
  rt::Session Ctx;
  // Local 4x4 keeps the padded launch small.
  rt::Variant BK = cantFail(
      TheApp->buildOutputApprox(Ctx, OutputSchemeKind::Rows, 2, {4, 4}));
  RunOutcome R = cantFail(TheApp->run(Ctx, BK, makeImageWorkload(In)));
  for (size_t I = 0; I < R.Output.size(); ++I)
    ASSERT_NE(R.Output[I], 0.0f) << I;
}

TEST(OutputApproxTest, ReducedNDRangeReducesWork) {
  auto TheApp = makeApp("gaussian");
  Workload W = makeImageWorkload(
      img::generateImage(img::ImageClass::Smooth, 96, 96, 2));
  rt::Session C1, C2;
  RunOutcome Plain = cantFail(TheApp->run(
      C1, cantFail(TheApp->buildPlain(C1, {16, 16})), W));
  rt::Variant BK = cantFail(
      TheApp->buildOutputApprox(C2, OutputSchemeKind::Rows, 2, {16, 16}));
  RunOutcome R = cantFail(TheApp->run(C2, BK, W));
  EXPECT_LT(R.Report.Totals.WorkItems, Plain.Report.Totals.WorkItems);
  // Stores do not shrink: every output is still written (with copies).
  EXPECT_GE(R.Report.Totals.GlobalWrites,
            Plain.Report.Totals.GlobalWrites);
}

TEST(OutputApproxTest, OddApproxCountRejected) {
  ir::Module M;
  Expected<ir::Function *> F =
      compilePromoted(M, inversionSource(), "inversion");
  OutputApproxPlan Plan;
  Plan.ApproxPerComputed = 3;
  Plan.WidthArgIndex = 2;
  Plan.HeightArgIndex = 3;
  Expected<OutputApproxResult> R =
      applyOutputApproximation(M, **F, Plan, "inv.oa");
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.error().message().find("even"), std::string::npos);
}

TEST(OutputApproxTest, BadArgIndexRejected) {
  ir::Module M;
  Expected<ir::Function *> F =
      compilePromoted(M, inversionSource(), "inversion");
  OutputApproxPlan Plan;
  Plan.WidthArgIndex = 9;
  Plan.HeightArgIndex = 3;
  Expected<OutputApproxResult> R =
      applyOutputApproximation(M, **F, Plan, "inv.oa");
  EXPECT_FALSE(static_cast<bool>(R));
}

TEST(OutputApproxTest, NonIntSizeArgRejected) {
  ir::Module M;
  Expected<ir::Function *> F =
      compilePromoted(M, inversionSource(), "inversion");
  OutputApproxPlan Plan;
  Plan.WidthArgIndex = 0; // The input pointer, not an int.
  Plan.HeightArgIndex = 3;
  Expected<OutputApproxResult> R =
      applyOutputApproximation(M, **F, Plan, "inv.oa");
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.error().message().find("must be int"), std::string::npos);
}

TEST(OutputApproxTest, KernelWithoutStoresRejected) {
  ir::Module M;
  Expected<ir::Function *> F = compilePromoted(
      M,
      "kernel void f(global const float* in, global float* out, int w, "
      "int h) { int x = get_global_id(0); }",
      "f");
  OutputApproxPlan Plan;
  Plan.WidthArgIndex = 2;
  Plan.HeightArgIndex = 3;
  Expected<OutputApproxResult> R =
      applyOutputApproximation(M, **F, Plan, "f.oa");
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.error().message().find("no matched output"),
            std::string::npos);
}

TEST(OutputApproxTest, DivisorsMatchScheme) {
  ir::Module M;
  Expected<ir::Function *> F =
      compilePromoted(M, inversionSource(), "inversion");
  OutputApproxPlan Plan;
  Plan.WidthArgIndex = 2;
  Plan.HeightArgIndex = 3;

  Plan.Kind = OutputSchemeKind::Rows;
  Expected<OutputApproxResult> Rows =
      applyOutputApproximation(M, **F, Plan, "r");
  ASSERT_TRUE(static_cast<bool>(Rows));
  EXPECT_EQ(Rows->DivX, 1u);
  EXPECT_EQ(Rows->DivY, 3u);

  Plan.Kind = OutputSchemeKind::Cols;
  Expected<OutputApproxResult> Cols =
      applyOutputApproximation(M, **F, Plan, "c");
  ASSERT_TRUE(static_cast<bool>(Cols));
  EXPECT_EQ(Cols->DivX, 3u);
  EXPECT_EQ(Cols->DivY, 1u);

  Plan.Kind = OutputSchemeKind::Center;
  Plan.ApproxPerComputed = 4;
  Expected<OutputApproxResult> Center =
      applyOutputApproximation(M, **F, Plan, "z");
  ASSERT_TRUE(static_cast<bool>(Center));
  EXPECT_EQ(Center->DivX, 5u);
  EXPECT_EQ(Center->DivY, 5u);
}

} // namespace
