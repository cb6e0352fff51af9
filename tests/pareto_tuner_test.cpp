//===- tests/pareto_tuner_test.cpp - Pareto front + autotuner tests ---------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "perforation/Pareto.h"
#include "perforation/Scheme.h"
#include "perforation/Tuner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace kperf;
using namespace kperf::perf;

namespace {

TradeoffPoint pt(const char *L, double S, double E) { return {L, S, E}; }

/// A measurement of no transform (empty pass stats).
Measurement measured(double Speedup, double Error) {
  Measurement M;
  M.Speedup = Speedup;
  M.Error = Error;
  return M;
}

//===----------------------------------------------------------------------===//
// Dominance and fronts
//===----------------------------------------------------------------------===//

TEST(ParetoTest, DominanceBasics) {
  EXPECT_TRUE(dominates(pt("a", 2.0, 0.01), pt("b", 1.5, 0.05)));
  EXPECT_FALSE(dominates(pt("b", 1.5, 0.05), pt("a", 2.0, 0.01)));
  // Equal points do not dominate each other.
  EXPECT_FALSE(dominates(pt("a", 1.0, 0.1), pt("b", 1.0, 0.1)));
  // One dimension equal, other better: dominates.
  EXPECT_TRUE(dominates(pt("a", 2.0, 0.1), pt("b", 1.0, 0.1)));
  EXPECT_TRUE(dominates(pt("a", 1.0, 0.05), pt("b", 1.0, 0.1)));
  // Trade-off: neither dominates.
  EXPECT_FALSE(dominates(pt("a", 2.0, 0.2), pt("b", 1.0, 0.1)));
  EXPECT_FALSE(dominates(pt("b", 1.0, 0.1), pt("a", 2.0, 0.2)));
}

TEST(ParetoTest, FrontOfEmptyIsEmpty) {
  EXPECT_TRUE(paretoFront({}).empty());
}

TEST(ParetoTest, SinglePointIsFront) {
  auto F = paretoFront({pt("a", 1.0, 0.1)});
  ASSERT_EQ(F.size(), 1u);
  EXPECT_EQ(F[0], 0u);
}

TEST(ParetoTest, DominatedPointsExcluded) {
  std::vector<TradeoffPoint> P = {
      pt("fast-bad", 3.0, 0.3), pt("slow-good", 1.2, 0.01),
      pt("dominated", 1.1, 0.2),  // Worse than slow-good in both.
      pt("balanced", 2.0, 0.05)};
  auto F = paretoFront(P);
  ASSERT_EQ(F.size(), 3u);
  // Sorted by ascending speedup: slow-good, balanced, fast-bad.
  EXPECT_EQ(P[F[0]].Label, "slow-good");
  EXPECT_EQ(P[F[1]].Label, "balanced");
  EXPECT_EQ(P[F[2]].Label, "fast-bad");
}

TEST(ParetoTest, AllIncomparableKept) {
  std::vector<TradeoffPoint> P = {pt("a", 1.0, 0.01), pt("b", 2.0, 0.02),
                                  pt("c", 3.0, 0.03)};
  EXPECT_EQ(paretoFront(P).size(), 3u);
}

TEST(ParetoTest, DuplicatesAllKept) {
  std::vector<TradeoffPoint> P = {pt("a", 1.0, 0.1), pt("b", 1.0, 0.1)};
  EXPECT_EQ(paretoFront(P).size(), 2u);
}

/// Property: no front member dominates another front member.
TEST(ParetoTest, FrontIsMutuallyNonDominating) {
  std::vector<TradeoffPoint> P;
  for (int I = 0; I < 40; ++I)
    P.push_back(pt("x", 1.0 + (I * 7 % 13) * 0.1, (I * 5 % 11) * 0.01));
  auto F = paretoFront(P);
  for (size_t A : F)
    for (size_t B : F)
      EXPECT_FALSE(A != B && dominates(P[A], P[B]));
}

/// Property: every non-front point is dominated by some front point.
TEST(ParetoTest, NonFrontPointsAreDominated) {
  std::vector<TradeoffPoint> P;
  for (int I = 0; I < 40; ++I)
    P.push_back(pt("x", 1.0 + (I * 3 % 17) * 0.1, (I * 7 % 19) * 0.01));
  auto F = paretoFront(P);
  std::vector<bool> InFront(P.size(), false);
  for (size_t I : F)
    InFront[I] = true;
  for (size_t I = 0; I < P.size(); ++I) {
    if (InFront[I])
      continue;
    bool Dominated = false;
    for (size_t J : F)
      if (dominates(P[J], P[I]))
        Dominated = true;
    EXPECT_TRUE(Dominated) << I;
  }
}

//===----------------------------------------------------------------------===//
// Tuner
//===----------------------------------------------------------------------===//

TEST(TunerTest, DefaultSpaceShape) {
  auto Space = defaultTuningSpace();
  // 7 schemes (baseline, Rows2/4 x NN/LI, Stencil1, Grid2) x 10 shapes
  // x 2 loop-perforation strides.
  EXPECT_EQ(Space.size(), 140u);
  EXPECT_EQ(figure9WorkGroupShapes().size(), 10u);
}

TEST(TunerTest, ConfigLabels) {
  TunerConfig C;
  C.Scheme = PerforationScheme::rows(2, ReconstructionKind::Linear);
  C.TileX = 8;
  C.TileY = 32;
  EXPECT_EQ(C.str(), "Rows2:LI@8x32");
  C.Scheme = PerforationScheme::stencil();
  EXPECT_EQ(C.str(), "Stencil1:NN@8x32");
  C.Scheme = PerforationScheme::none();
  EXPECT_EQ(C.str(), "Baseline@8x32");
}

TEST(TunerTest, ExhaustiveKeepsInfeasible) {
  std::vector<TunerConfig> Space(3);
  Space[1].TileX = 999; // Marker for the fake evaluator below.
  auto Results = tuneExhaustive(
      Space, [](const TunerConfig &C) -> Expected<Measurement> {
        if (C.TileX == 999)
          return makeError("infeasible by construction");
        return measured(2.0, 0.01);
      });
  ASSERT_EQ(Results.size(), 3u);
  EXPECT_TRUE(Results[0].Feasible);
  EXPECT_FALSE(Results[1].Feasible);
  EXPECT_NE(Results[1].Note.find("infeasible"), std::string::npos);
  EXPECT_TRUE(Results[2].Feasible);
}

TEST(TunerTest, BudgetSelectionPicksFastestWithin) {
  std::vector<TunerResult> Results(4);
  Results[0].Feasible = true;
  Results[0].M = measured(3.0, 0.20); // Too inaccurate.
  Results[1].Feasible = true;
  Results[1].M = measured(1.5, 0.01);
  Results[2].Feasible = true;
  Results[2].M = measured(2.0, 0.04); // Fastest within budget.
  Results[3].Feasible = false;
  Results[3].M = measured(9.0, 0.0); // Infeasible: ignored.
  EXPECT_EQ(bestWithinErrorBudget(Results, 0.05), 2u);
}

TEST(TunerTest, BudgetSelectionNoneQualifies) {
  std::vector<TunerResult> Results(1);
  Results[0].Feasible = true;
  Results[0].M = measured(2.0, 0.5);
  EXPECT_EQ(bestWithinErrorBudget(Results, 0.01), ~size_t(0));
}

TEST(TunerTest, BudgetSelectionRejectsNonFiniteError) {
  // A degenerate measurement (0/0 -> NaN error) compares false against
  // any budget; it must be treated as infeasible, not crowned fastest.
  std::vector<TunerResult> Results(3);
  Results[0].Feasible = true;
  Results[0].M = measured(9.0, std::nan(""));
  Results[1].Feasible = true;
  Results[1].M = measured(2.0, 0.02);
  Results[2].Feasible = true;
  Results[2].M = measured(8.0, std::numeric_limits<double>::infinity());
  EXPECT_EQ(bestWithinErrorBudget(Results, 0.05), 1u);
  // All degenerate: nothing qualifies.
  std::vector<TunerResult> AllNaN(1);
  AllNaN[0].Feasible = true;
  AllNaN[0].M = measured(9.0, std::nan(""));
  EXPECT_EQ(bestWithinErrorBudget(AllNaN, 0.05), ~size_t(0));
}

TEST(TunerTest, BudgetSelectionBreaksSpeedupTiesTowardLowerError) {
  // The cost model is max(compute, memory), so configs that only trim
  // the non-bottleneck axis tie at the identical modeled speedup; the
  // one that also loses less accuracy must win regardless of order.
  std::vector<TunerResult> Results(4);
  Results[0].Feasible = true;
  Results[0].M = measured(4.0, 0.030);
  Results[1].Feasible = true;
  Results[1].M = measured(4.0, 0.025); // Same speed, lower error: the winner.
  Results[2].Feasible = true;
  Results[2].M = measured(4.0, 0.028);
  Results[3].Feasible = true;
  Results[3].M = measured(3.5, 0.001); // Slower never beats faster on a tie.
  EXPECT_EQ(bestWithinErrorBudget(Results, 0.05), 1u);
  // A strictly faster config still wins even with the worst error.
  Results[2].M = measured(4.5, 0.049);
  EXPECT_EQ(bestWithinErrorBudget(Results, 0.05), 2u);
}

TEST(TunerTest, StrideLabelAndSpaceCoverage) {
  TunerConfig C;
  C.Scheme = PerforationScheme::rows(2, ReconstructionKind::Linear);
  C.TileX = 8;
  C.TileY = 32;
  C.LoopStride = 2;
  EXPECT_EQ(C.str(), "Rows2:LI@8x32/L2"); // Stride 1 stays unsuffixed.
  unsigned Strided = 0;
  for (const TunerConfig &TC : defaultTuningSpace())
    Strided += TC.LoopStride > 1;
  EXPECT_EQ(Strided, defaultTuningSpace().size() / 2);
}

TEST(TunerTest, JointPipelineSpecSplicing) {
  // Stride 1: untouched.
  EXPECT_EQ(jointPipelineSpec("mem2reg,unroll", 1), "mem2reg,unroll");
  EXPECT_EQ(jointPipelineSpec("", 1), "");
  // Before the first top-level unroll, so strided loops still flatten.
  EXPECT_EQ(jointPipelineSpec("mem2reg,unroll", 2),
            "mem2reg,perforate-loop(2),unroll");
  EXPECT_EQ(jointPipelineSpec("mem2reg,unroll(64),gvn", 3),
            "mem2reg,perforate-loop(3),unroll(64),gvn");
  // No unroll: after the leading mem2reg run (induction phis exist only
  // after promotion), else at the front.
  EXPECT_EQ(jointPipelineSpec("mem2reg,gvn,dce", 2),
            "mem2reg,perforate-loop(2),gvn,dce");
  EXPECT_EQ(jointPipelineSpec("gvn,dce", 2), "perforate-loop(2),gvn,dce");
  EXPECT_EQ(jointPipelineSpec("", 2), "perforate-loop(2)");
  // An unroll nested in a fixpoint group is not a top-level slot.
  EXPECT_EQ(jointPipelineSpec("fixpoint(unroll,dce)", 2),
            "perforate-loop(2),fixpoint(unroll,dce)");
  // The spliced default must parse under the registered grammar.
  std::string Joint = jointPipelineSpec(ir::defaultPipelineSpec(), 2);
  EXPECT_NE(Joint.find("perforate-loop(2),unroll"), std::string::npos);
  EXPECT_TRUE(
      static_cast<bool>(ir::PassPipeline::parse(Joint)));
}

TEST(TunerTest, ToTradeoffPointsSkipsInfeasible) {
  std::vector<TunerResult> Results(2);
  Results[0].Feasible = true;
  Results[0].M = measured(2.0, 0.1);
  Results[1].Feasible = false;
  EXPECT_EQ(toTradeoffPoints(Results).size(), 1u);
}

//===----------------------------------------------------------------------===//
// Scheme descriptors
//===----------------------------------------------------------------------===//

TEST(SchemeTest, Names) {
  EXPECT_EQ(PerforationScheme::rows(2, ReconstructionKind::NearestNeighbor)
                .str(),
            "Rows2:NN");
  EXPECT_EQ(PerforationScheme::rows(4, ReconstructionKind::Linear).str(),
            "Rows4:LI");
  EXPECT_EQ(PerforationScheme::cols(2, ReconstructionKind::NearestNeighbor)
                .str(),
            "Cols2:NN");
  EXPECT_EQ(PerforationScheme::stencil().str(), "Stencil1:NN");
  EXPECT_EQ(PerforationScheme::none().str(), "Baseline");
}

TEST(SchemeTest, LoadedFraction) {
  EXPECT_DOUBLE_EQ(PerforationScheme::none().loadedFraction(18, 18, 1, 1),
                   1.0);
  EXPECT_DOUBLE_EQ(
      PerforationScheme::rows(2, ReconstructionKind::NearestNeighbor)
          .loadedFraction(18, 18, 1, 1),
      0.5);
  EXPECT_DOUBLE_EQ(
      PerforationScheme::rows(4, ReconstructionKind::NearestNeighbor)
          .loadedFraction(18, 18, 1, 1),
      0.25);
  EXPECT_NEAR(PerforationScheme::stencil().loadedFraction(18, 18, 1, 1),
              256.0 / 324.0, 1e-12);
}

TEST(SchemeTest, RowMaskGlobalParity) {
  PerforationScheme S =
      PerforationScheme::rows(2, ReconstructionKind::NearestNeighbor);
  // Origin -1: tile row r is loaded iff (r - 1) is even.
  auto Mask = schemeMask(S, 6, 6, 1, 1, -1, -1);
  for (unsigned R = 0; R < 6; ++R)
    for (unsigned C = 0; C < 6; ++C)
      EXPECT_EQ(Mask[R][C] == '#',
                ((static_cast<int>(R) - 1) % 2 + 2) % 2 == 0)
          << R << "," << C;
}

TEST(SchemeTest, AdjacentTilesMatchSeamlessly) {
  PerforationScheme S =
      PerforationScheme::rows(2, ReconstructionKind::NearestNeighbor);
  // Two tiles of height 8 (6 + 2 halo), the second starting 6 rows below:
  // overlapping rows must agree on loadedness.
  auto Top = schemeMask(S, 8, 8, 1, 1, -1, -1);
  auto Bottom = schemeMask(S, 8, 8, 1, 1, -1, 5);
  // Top rows 6,7 overlap Bottom rows 0,1 (global rows 5,6).
  EXPECT_EQ(Top[6][0], Bottom[0][0]);
  EXPECT_EQ(Top[7][0], Bottom[1][0]);
}

TEST(SchemeTest, StencilMaskIsFigure5) {
  // 6x6 tile with 3x3 stencil (halo 1): center 6x6... Figure 5 uses an
  // 8x8 storage tile; the ring is reconstructed, the center loaded.
  auto Mask = schemeMask(PerforationScheme::stencil(), 8, 8, 1, 1, -1, -1);
  for (unsigned R = 0; R < 8; ++R)
    for (unsigned C = 0; C < 8; ++C) {
      bool Center = R >= 1 && R < 7 && C >= 1 && C < 7;
      EXPECT_EQ(Mask[R][C] == '#', Center);
    }
}

TEST(SchemeTest, StencilLoadedFractionClampsOnSmallTiles) {
  // A tile smaller than twice the halo has no interior: the fraction is
  // 0, never the wrapped-unsigned garbage the subtraction would give.
  PerforationScheme S = PerforationScheme::stencil();
  EXPECT_DOUBLE_EQ(S.loadedFraction(2, 2, 1, 1), 0.0);
  EXPECT_DOUBLE_EQ(S.loadedFraction(1, 8, 2, 0), 0.0);  // Width collapses.
  EXPECT_DOUBLE_EQ(S.loadedFraction(8, 3, 0, 2), 0.0);  // Height collapses.
  EXPECT_DOUBLE_EQ(S.loadedFraction(2, 2, 1, 0), 0.0);  // Exactly 2*halo.
  // A tile just past the threshold keeps its one-element interior.
  EXPECT_DOUBLE_EQ(S.loadedFraction(3, 3, 1, 1), 1.0 / 9.0);
}

TEST(SchemeTest, RowMaskNegativeOriginParity) {
  // Work groups left/above the image get negative tile origins; the mask
  // must still follow *global* parity ((M % P + P) % P, not plain %).
  PerforationScheme S =
      PerforationScheme::rows(3, ReconstructionKind::NearestNeighbor);
  auto Mask = schemeMask(S, 4, 6, 0, 0, 0, -5);
  for (unsigned R = 0; R < 6; ++R) {
    int Global = -5 + static_cast<int>(R);
    bool Loaded = ((Global % 3) + 3) % 3 == 0; // Rows -3, 0 load.
    for (unsigned C = 0; C < 4; ++C)
      EXPECT_EQ(Mask[R][C], Loaded ? '#' : '.')
          << "row " << R << " col " << C;
  }
}

TEST(SchemeTest, GridMaskNegativeOriginParity) {
  PerforationScheme S =
      PerforationScheme::grid(3, ReconstructionKind::Linear);
  auto Mask = schemeMask(S, 7, 7, 0, 0, -4, -2);
  for (unsigned R = 0; R < 7; ++R)
    for (unsigned C = 0; C < 7; ++C) {
      int GR = -2 + static_cast<int>(R);
      int GC = -4 + static_cast<int>(C);
      bool Loaded = ((GR % 3) + 3) % 3 == 0 && ((GC % 3) + 3) % 3 == 0;
      EXPECT_EQ(Mask[R][C], Loaded ? '#' : '.')
          << "row " << R << " col " << C;
    }
}

TEST(SchemeTest, ColsMaskIsTransposedRows) {
  PerforationScheme Rows =
      PerforationScheme::rows(2, ReconstructionKind::NearestNeighbor);
  PerforationScheme Cols =
      PerforationScheme::cols(2, ReconstructionKind::NearestNeighbor);
  auto RMask = schemeMask(Rows, 6, 6, 1, 1, -1, -1);
  auto CMask = schemeMask(Cols, 6, 6, 1, 1, -1, -1);
  for (unsigned R = 0; R < 6; ++R)
    for (unsigned C = 0; C < 6; ++C)
      EXPECT_EQ(RMask[R][C], CMask[C][R]);
}

} // namespace
