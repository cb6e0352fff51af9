//===- tests/transform_test.cpp - Perforation transform tests ---------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Semantic tests of the core transform. The key properties:
//
//  * SchemeKind::None (local prefetch) is bit-exact versus the plain run;
//  * any scheme is exact on constant inputs (NN and LI reconstruct
//    constants perfectly);
//  * linear interpolation is exact on row-linear inputs;
//  * NN errors are bounded by the input's neighboring-row difference;
//  * parity is seamless across adjacent work groups;
//  * infeasible inputs are rejected with useful messages.
//
//===----------------------------------------------------------------------===//

#include "CompilePromoted.h"
#include "apps/App.h"
#include "apps/Kernels.h"
#include "ir/Verifier.h"
#include "img/Generators.h"
#include "ir/Printer.h"
#include "perforation/Transform.h"
#include "runtime/Session.h"

#include <cmath>
#include <gtest/gtest.h>

using namespace kperf;
using namespace kperf::apps;
using namespace kperf::perf;

namespace {

img::Image constantImage(unsigned Size, float V) {
  return img::Image(Size, Size, V);
}

/// Image whose value depends linearly on the row: f(x,y) = a*y + b.
img::Image rowLinearImage(unsigned Size, float A, float B) {
  img::Image I(Size, Size);
  for (unsigned Y = 0; Y < Size; ++Y)
    for (unsigned X = 0; X < Size; ++X)
      I.set(X, Y, A * static_cast<float>(Y) + B);
  return I;
}

double maxAbsDiff(const std::vector<float> &A, const std::vector<float> &B) {
  double M = 0;
  for (size_t I = 0; I < A.size(); ++I)
    M = std::max(M, static_cast<double>(std::fabs(A[I] - B[I])));
  return M;
}

Expected<RunOutcome> runScheme(const App &TheApp, const Workload &W,
                               PerforationScheme Scheme,
                               sim::Range2 Local = {16, 16}) {
  rt::Session Ctx;
  Expected<rt::Variant> BK = TheApp.buildPerforated(Ctx, Scheme, Local);
  if (!BK)
    return BK.takeError();
  return TheApp.run(Ctx, *BK, W);
}

TEST(TransformTest, BaselineNoneIsExactForAllApps) {
  for (const auto &TheApp : makeAllApps()) {
    Workload W = TheApp->name() == "hotspot"
                     ? makeHotspotWorkload(32, 3, 2)
                     : makeImageWorkload(img::generateImage(
                           img::ImageClass::Natural, 32, 32, 5));
    rt::Session C1, C2;
    RunOutcome Plain = cantFail(TheApp->run(
        C1, cantFail(TheApp->buildPlain(C1, {16, 16})), W));
    Expected<RunOutcome> Pref = runScheme(*TheApp, W,
                                          PerforationScheme::none());
    ASSERT_TRUE(static_cast<bool>(Pref)) << TheApp->name();
    EXPECT_EQ(maxAbsDiff(Plain.Output, Pref->Output), 0.0)
        << TheApp->name();
  }
}

TEST(TransformTest, ConstantInputExactForEveryScheme) {
  auto TheApp = makeApp("gaussian");
  Workload W = makeImageWorkload(constantImage(64, 0.4f));
  std::vector<float> Ref = TheApp->reference(W);
  const PerforationScheme Schemes[] = {
      PerforationScheme::rows(2, ReconstructionKind::NearestNeighbor),
      PerforationScheme::rows(2, ReconstructionKind::Linear),
      PerforationScheme::rows(4, ReconstructionKind::NearestNeighbor),
      PerforationScheme::rows(4, ReconstructionKind::Linear),
      PerforationScheme::cols(2, ReconstructionKind::NearestNeighbor),
      PerforationScheme::cols(4, ReconstructionKind::Linear),
      PerforationScheme::stencil(),
  };
  for (const PerforationScheme &S : Schemes) {
    RunOutcome R = cantFail(runScheme(*TheApp, W, S));
    EXPECT_LT(maxAbsDiff(Ref, R.Output), 1e-6) << S.str();
  }
}

TEST(TransformTest, LinearInterpolationExactOnRowLinearInput) {
  // Inversion is linear in its input, so LI row reconstruction of a
  // row-linear image is exact wherever the skipped row is bracketed by
  // two loaded rows inside the tile. The last tile row has no in-tile
  // successor and falls back to NN (paper 5.1), producing exactly one
  // row-delta of error there.
  const unsigned Size = 64;
  const float Slope = 0.01f;
  auto TheApp = makeApp("inversion");
  Workload W = makeImageWorkload(rowLinearImage(Size, Slope, 0.1f));
  std::vector<float> Ref = TheApp->reference(W);
  RunOutcome LI = cantFail(runScheme(
      *TheApp, W, PerforationScheme::rows(2, ReconstructionKind::Linear)));
  for (unsigned Y = 0; Y < Size; ++Y) {
    bool TileEdgeFallback = Y % 16 == 15; // Skipped row, no next in tile.
    for (unsigned X = 0; X < Size; ++X) {
      float Diff = std::fabs(LI.Output[Y * Size + X] - Ref[Y * Size + X]);
      if (TileEdgeFallback)
        EXPECT_NEAR(Diff, Slope, 1e-5) << Y;
      else
        EXPECT_LT(Diff, 1e-5) << Y;
    }
  }
  // NN on the same input is nowhere-interpolating: larger overall error.
  RunOutcome NN = cantFail(runScheme(
      *TheApp, W,
      PerforationScheme::rows(2, ReconstructionKind::NearestNeighbor)));
  EXPECT_GT(maxAbsDiff(Ref, NN.Output), 1e-4);
}

TEST(TransformTest, NNErrorBoundedByRowDelta) {
  // For inversion (identity-like), NN row reconstruction substitutes a
  // neighbor row; the output error is bounded by the max row-to-row
  // difference of the input.
  unsigned Size = 64;
  img::Image In = img::generateImage(img::ImageClass::Smooth, Size, Size, 9);
  float MaxRowDelta = 0;
  for (unsigned Y = 0; Y + 1 < Size; ++Y)
    for (unsigned X = 0; X < Size; ++X)
      MaxRowDelta = std::max(
          MaxRowDelta, std::fabs(In.at(X, Y + 1) - In.at(X, Y)));
  auto TheApp = makeApp("inversion");
  Workload W = makeImageWorkload(In);
  RunOutcome R = cantFail(runScheme(
      *TheApp, W,
      PerforationScheme::rows(2, ReconstructionKind::NearestNeighbor)));
  EXPECT_LE(maxAbsDiff(TheApp->reference(W), R.Output),
            MaxRowDelta + 1e-6);
}

TEST(TransformTest, RowParityIsGlobalAcrossGroups) {
  // With period 2, even global rows are loaded exactly. Inversion output
  // on loaded rows must match the reference bit-exactly in EVERY work
  // group, including groups whose tile starts on an odd row.
  auto TheApp = makeApp("inversion");
  img::Image In = img::generateImage(img::ImageClass::Noise, 64, 64, 4);
  Workload W = makeImageWorkload(In);
  std::vector<float> Ref = TheApp->reference(W);
  RunOutcome R = cantFail(runScheme(
      *TheApp, W,
      PerforationScheme::rows(2, ReconstructionKind::NearestNeighbor),
      {16, 16}));
  for (unsigned Y = 0; Y < 64; Y += 2) // Loaded rows.
    for (unsigned X = 0; X < 64; ++X)
      ASSERT_EQ(R.Output[Y * 64 + X], Ref[Y * 64 + X])
          << "loaded row " << Y << " col " << X;
}

TEST(TransformTest, ColParityIsGlobalAcrossGroups) {
  auto TheApp = makeApp("inversion");
  img::Image In = img::generateImage(img::ImageClass::Noise, 64, 64, 4);
  Workload W = makeImageWorkload(In);
  std::vector<float> Ref = TheApp->reference(W);
  RunOutcome R = cantFail(runScheme(
      *TheApp, W,
      PerforationScheme::cols(2, ReconstructionKind::NearestNeighbor)));
  for (unsigned Y = 0; Y < 64; ++Y)
    for (unsigned X = 0; X < 64; X += 2) // Loaded columns.
      ASSERT_EQ(R.Output[Y * 64 + X], Ref[Y * 64 + X]);
}

TEST(TransformTest, StencilCenterIsExact) {
  // Stencil1 loads every tile's center exactly; with a 16x16 tile and
  // halo 1, outputs at least 1 away from tile borders only read center
  // elements and must be exact.
  auto TheApp = makeApp("gaussian");
  img::Image In = img::generateImage(img::ImageClass::Natural, 64, 64, 6);
  Workload W = makeImageWorkload(In);
  std::vector<float> Ref = TheApp->reference(W);
  RunOutcome R =
      cantFail(runScheme(*TheApp, W, PerforationScheme::stencil()));
  for (unsigned Y = 0; Y < 64; ++Y) {
    for (unsigned X = 0; X < 64; ++X) {
      unsigned Lx = X % 16, Ly = Y % 16;
      bool Interior = Lx >= 1 && Lx <= 14 && Ly >= 1 && Ly <= 14;
      if (Interior) {
        ASSERT_EQ(R.Output[Y * 64 + X], Ref[Y * 64 + X])
            << "interior pixel " << X << "," << Y;
      }
    }
  }
}

TEST(TransformTest, Rows2SkipsMoreAndIsFaster) {
  auto TheApp = makeApp("gaussian");
  Workload W = makeImageWorkload(
      img::generateImage(img::ImageClass::Smooth, 128, 128, 2));
  RunOutcome R1 = cantFail(runScheme(
      *TheApp, W,
      PerforationScheme::rows(2, ReconstructionKind::NearestNeighbor)));
  RunOutcome R2 = cantFail(runScheme(
      *TheApp, W,
      PerforationScheme::rows(4, ReconstructionKind::NearestNeighbor)));
  EXPECT_LT(R2.Report.Totals.GlobalReadTransactions,
            R1.Report.Totals.GlobalReadTransactions);
  EXPECT_LT(R2.Report.Cycles, R1.Report.Cycles);
  // And less accurate.
  std::vector<float> Ref = TheApp->reference(W);
  EXPECT_GT(TheApp->score(Ref, R2.Output), TheApp->score(Ref, R1.Output));
}

TEST(TransformTest, LIErrorLowerThanNNOnSmoothInput) {
  auto TheApp = makeApp("gaussian");
  Workload W = makeImageWorkload(
      img::generateImage(img::ImageClass::Smooth, 128, 128, 12));
  std::vector<float> Ref = TheApp->reference(W);
  RunOutcome NN = cantFail(runScheme(
      *TheApp, W,
      PerforationScheme::rows(2, ReconstructionKind::NearestNeighbor)));
  RunOutcome LI = cantFail(runScheme(
      *TheApp, W, PerforationScheme::rows(2, ReconstructionKind::Linear)));
  EXPECT_LT(TheApp->score(Ref, LI.Output), TheApp->score(Ref, NN.Output));
}

TEST(TransformTest, HotspotPerforatesBothBuffers) {
  ir::Module M;
  Expected<ir::Function *> F =
      compilePromoted(M, apps::hotspotSource(), "hotspot");
  // Use the Transform API directly to check structure.
  PerforationPlan Plan;
  Plan.Scheme =
      PerforationScheme::rows(2, ReconstructionKind::NearestNeighbor);
  Expected<TransformResult> R =
      applyInputPerforation(M, **F, Plan, "hotspot.p");
  ASSERT_TRUE(static_cast<bool>(R)) << R.error().message();
  // Two tiles: temp (18x18) + power (16x16).
  EXPECT_EQ(R->LocalMemWords, 18u * 18u + 16u * 16u);
  EXPECT_FALSE(ir::verifyFunction(*R->Kernel));
}

TEST(TransformTest, ExplicitBufferSelection) {
  ir::Module M;
  Expected<ir::Function *> F =
      compilePromoted(M, apps::hotspotSource(), "hotspot");
  PerforationPlan Plan;
  Plan.Scheme =
      PerforationScheme::rows(2, ReconstructionKind::NearestNeighbor);
  Plan.BufferArgs = {1}; // Only the temperature buffer.
  Expected<TransformResult> R =
      applyInputPerforation(M, **F, Plan, "hotspot.t");
  ASSERT_TRUE(static_cast<bool>(R)) << R.error().message();
  EXPECT_EQ(R->LocalMemWords, 18u * 18u);
}

TEST(TransformTest, SelectingNonBufferArgFails) {
  ir::Module M;
  Expected<ir::Function *> F =
      compilePromoted(M, apps::gaussianSource(), "gaussian");
  PerforationPlan Plan;
  Plan.Scheme =
      PerforationScheme::rows(2, ReconstructionKind::NearestNeighbor);
  Plan.BufferArgs = {2}; // 'w' is a scalar.
  Expected<TransformResult> R =
      applyInputPerforation(M, **F, Plan, "g.p");
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.error().message().find("not a recognized"),
            std::string::npos);
}

TEST(TransformTest, KernelWithLocalMemoryRejected) {
  ir::Module M;
  Expected<ir::Function *> F = compilePromoted(
      M,
      "kernel void f(global const float* in, global float* out, int w, "
      "int h) {"
      "  local float t[16];"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  t[get_local_id(0)] = in[y * w + x];"
      "  barrier();"
      "  out[y * w + x] = t[get_local_id(0)];"
      "}",
      "f");
  PerforationPlan Plan;
  Plan.Scheme =
      PerforationScheme::rows(2, ReconstructionKind::NearestNeighbor);
  Expected<TransformResult> R = applyInputPerforation(M, **F, Plan, "f.p");
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.error().message().find("local memory"), std::string::npos);
}

TEST(TransformTest, KernelWithoutRecognizedInputRejected) {
  ir::Module M;
  Expected<ir::Function *> F = compilePromoted(
      M,
      "kernel void f(global float* out, int w, int h) {"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  out[y * w + x] = 1.0;"
      "}",
      "f");
  PerforationPlan Plan;
  Plan.Scheme =
      PerforationScheme::rows(2, ReconstructionKind::NearestNeighbor);
  Expected<TransformResult> R = applyInputPerforation(M, **F, Plan, "f.p");
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.error().message().find("no perforatable"), std::string::npos);
}

TEST(TransformTest, InvalidPeriodRejected) {
  ir::Module M;
  Expected<ir::Function *> F =
      compilePromoted(M, apps::gaussianSource(), "gaussian");
  PerforationPlan Plan;
  Plan.Scheme.Kind = SchemeKind::Rows;
  Plan.Scheme.Period = 1;
  Expected<TransformResult> R = applyInputPerforation(M, **F, Plan, "g.p");
  EXPECT_FALSE(static_cast<bool>(R));
}

TEST(TransformTest, PeriodLongerThanTileRefusedBeforeCloning) {
  // inversion reads no neighbouring pixel, so its tile is exactly the
  // work group: a period longer than the group's edge on a perforated
  // axis would build tiles that hold no loaded line at all.
  ir::Module M;
  Expected<ir::Function *> F =
      compilePromoted(M, apps::inversionSource(), "inversion");
  ASSERT_TRUE(static_cast<bool>(F)) << F.error().message();
  const size_t Functions = M.numFunctions();
  struct Case {
    PerforationScheme Scheme;
    unsigned TileX, TileY;
    const char *Expect; ///< Error text after "period ".
  };
  const Case Cases[] = {
      {PerforationScheme::rows(4, ReconstructionKind::Linear), 128, 2,
       "4 exceeds the 2 rows of the 128x2 tile"},
      {PerforationScheme::cols(4, ReconstructionKind::NearestNeighbor), 2,
       128, "4 exceeds the 2 columns of the 2x128 tile"},
      {PerforationScheme::grid(4, ReconstructionKind::Linear), 16, 2,
       "4 exceeds the 2 rows of the 16x2 tile"},
  };
  for (const Case &C : Cases) {
    PerforationPlan Plan;
    Plan.Scheme = C.Scheme;
    Plan.TileX = C.TileX;
    Plan.TileY = C.TileY;
    Expected<TransformResult> R =
        applyInputPerforation(M, **F, Plan, "inversion.p");
    ASSERT_FALSE(static_cast<bool>(R)) << C.Expect;
    EXPECT_NE(R.error().message().find(std::string("period ") + C.Expect),
              std::string::npos)
        << R.error().message();
    EXPECT_EQ(M.numFunctions(), Functions) << C.Expect;
  }

  // The same period on a tile with enough rows still builds.
  PerforationPlan Plan;
  Plan.Scheme = PerforationScheme::rows(4, ReconstructionKind::Linear);
  Plan.TileX = 64;
  Plan.TileY = 4;
  Expected<TransformResult> R =
      applyInputPerforation(M, **F, Plan, "inversion.p");
  ASSERT_TRUE(static_cast<bool>(R)) << R.error().message();
  EXPECT_FALSE(ir::verifyFunction(*R->Kernel));
}

TEST(TransformTest, OriginalKernelUntouched) {
  ir::Module M;
  Expected<ir::Function *> F =
      compilePromoted(M, apps::gaussianSource(), "gaussian");
  std::string Before = ir::printFunction(**F);
  PerforationPlan Plan;
  Plan.Scheme =
      PerforationScheme::rows(2, ReconstructionKind::NearestNeighbor);
  cantFail(applyInputPerforation(M, **F, Plan, "g.p"));
  EXPECT_EQ(ir::printFunction(**F), Before);
}

TEST(TransformTest, GeneratedKernelReportsLocalFootprint) {
  ir::Module M;
  Expected<ir::Function *> F =
      compilePromoted(M, apps::sobel5Source(), "sobel5");
  PerforationPlan Plan;
  Plan.Scheme = PerforationScheme::stencil();
  Plan.TileX = 8;
  Plan.TileY = 8;
  Expected<TransformResult> R =
      applyInputPerforation(M, **F, Plan, "s5.p");
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(R->LocalX, 8u);
  EXPECT_EQ(R->LocalY, 8u);
  EXPECT_EQ(R->LocalMemWords, 12u * 12u); // 8 + 2*2 halo per side.
}

TEST(TransformTest, NonSquareTileWorks) {
  auto TheApp = makeApp("gaussian");
  Workload W = makeImageWorkload(
      img::generateImage(img::ImageClass::Natural, 64, 64, 8));
  std::vector<float> Ref = TheApp->reference(W);
  for (auto [X, Y] : std::initializer_list<std::pair<unsigned, unsigned>>{
           {32, 8}, {8, 32}, {64, 4}}) {
    RunOutcome R = cantFail(runScheme(
        *TheApp, W, PerforationScheme::none(), {X, Y}));
    EXPECT_EQ(maxAbsDiff(Ref, R.Output), 0.0) << X << "x" << Y;
  }
}

TEST(TransformTest, DeadOldAddressCodeEliminated) {
  // After rewriting loads into the tile, the original global geps are
  // dead and must not survive (they would inflate simulated ALU work).
  ir::Module M;
  Expected<ir::Function *> F =
      compilePromoted(M, apps::inversionSource(), "inversion");
  PerforationPlan Plan;
  Plan.Scheme =
      PerforationScheme::rows(2, ReconstructionKind::NearestNeighbor);
  Expected<TransformResult> R =
      applyInputPerforation(M, **F, Plan, "inv.p");
  ASSERT_TRUE(static_cast<bool>(R));
  unsigned GepsOnInput = 0;
  for (const auto &BB : R->Kernel->blocks())
    for (const auto &I : BB->instructions())
      if (I->opcode() == ir::Opcode::Gep &&
          ir::dyn_cast<ir::Argument>(I->operand(0)) ==
              R->Kernel->argument(0))
        ++GepsOnInput;
  // The only geps on the input buffer are the loader's (one per load
  // site in the loader loop), not the body's.
  EXPECT_EQ(GepsOnInput, 1u);
}

} // namespace
