//===- tests/support_test.cpp - support library unit tests ------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "support/Error.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

using namespace kperf;

namespace {

//===----------------------------------------------------------------------===//
// Error / Expected
//===----------------------------------------------------------------------===//

TEST(ErrorTest, DefaultIsSuccess) {
  Error E;
  EXPECT_FALSE(E);
}

TEST(ErrorTest, SuccessFactory) { EXPECT_FALSE(Error::success()); }

TEST(ErrorTest, FailureCarriesMessage) {
  Error E("something broke");
  ASSERT_TRUE(E);
  EXPECT_EQ(E.message(), "something broke");
}

TEST(ErrorTest, MakeErrorFormats) {
  Error E = makeError("bad value %d in %s", 42, "foo");
  ASSERT_TRUE(E);
  EXPECT_EQ(E.message(), "bad value 42 in foo");
}

TEST(ErrorTest, MakeErrorLongMessage) {
  std::string Long(500, 'x');
  Error E = makeError("%s", Long.c_str());
  EXPECT_EQ(E.message().size(), 500u);
}

TEST(ExpectedTest, HoldsValue) {
  Expected<int> E(7);
  ASSERT_TRUE(E);
  EXPECT_EQ(*E, 7);
}

TEST(ExpectedTest, HoldsError) {
  Expected<int> E(makeError("nope"));
  ASSERT_FALSE(E);
  EXPECT_EQ(E.error().message(), "nope");
}

TEST(ExpectedTest, TakeValueMoves) {
  Expected<std::string> E(std::string("payload"));
  std::string S = E.takeValue();
  EXPECT_EQ(S, "payload");
}

TEST(ExpectedTest, ArrowOperator) {
  Expected<std::string> E(std::string("abc"));
  EXPECT_EQ(E->size(), 3u);
}

TEST(ExpectedTest, CantFailUnwraps) {
  EXPECT_EQ(cantFail(Expected<int>(3)), 3);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(StatisticsTest, MeanEmpty) { EXPECT_EQ(mean({}), 0.0); }

TEST(StatisticsTest, MeanBasic) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(StatisticsTest, VarianceConstant) {
  EXPECT_DOUBLE_EQ(variance({5.0, 5.0, 5.0}), 0.0);
}

TEST(StatisticsTest, VarianceKnown) {
  // Population variance of {1,2,3,4} = 1.25.
  EXPECT_DOUBLE_EQ(variance({1.0, 2.0, 3.0, 4.0}), 1.25);
}

TEST(StatisticsTest, QuantileSingleElement) {
  EXPECT_DOUBLE_EQ(quantile({4.0}, 0.5), 4.0);
}

TEST(StatisticsTest, QuantileEndpoints) {
  std::vector<double> V = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(V, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(V, 1.0), 3.0);
}

TEST(StatisticsTest, QuantileInterpolates) {
  // Sorted {10,20}: the 0.5 quantile interpolates to 15.
  EXPECT_DOUBLE_EQ(quantile({20.0, 10.0}, 0.5), 15.0);
}

TEST(StatisticsTest, MedianOddCount) {
  EXPECT_DOUBLE_EQ(quantile({9.0, 1.0, 5.0}, 0.5), 5.0);
}

TEST(StatisticsTest, SummaryOrdering) {
  Summary S = summarize({0.5, 0.1, 0.9, 0.3, 0.7});
  EXPECT_LE(S.Min, S.Q1);
  EXPECT_LE(S.Q1, S.Median);
  EXPECT_LE(S.Median, S.Q3);
  EXPECT_LE(S.Q3, S.Max);
  EXPECT_EQ(S.Count, 5u);
  EXPECT_DOUBLE_EQ(S.Median, 0.5);
}

TEST(StatisticsTest, SummaryMeanMatches) {
  Summary S = summarize({1.0, 3.0});
  EXPECT_DOUBLE_EQ(S.Mean, 2.0);
}

TEST(StatisticsTest, FractionBelow) {
  std::vector<double> V = {0.1, 0.2, 0.3, 0.4};
  EXPECT_DOUBLE_EQ(fractionBelow(V, 0.25), 0.5);
  EXPECT_DOUBLE_EQ(fractionBelow(V, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(fractionBelow(V, 0.0), 0.0);
}

/// Property: for sorted data, quantile is monotone in Q.
TEST(StatisticsTest, QuantileMonotoneProperty) {
  std::vector<double> V;
  Rng R(1);
  for (int I = 0; I < 50; ++I)
    V.push_back(R.uniform());
  double Prev = quantile(V, 0.0);
  for (double Q = 0.1; Q <= 1.0; Q += 0.1) {
    double Cur = quantile(V, Q);
    EXPECT_GE(Cur, Prev);
    Prev = Cur;
  }
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, Deterministic) {
  Rng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  EXPECT_NE(A.next(), B.next());
}

TEST(RngTest, UniformInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    double U = R.uniform();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(RngTest, UniformBounds) {
  Rng R(7);
  for (int I = 0; I < 100; ++I) {
    double U = R.uniform(5.0, 6.0);
    EXPECT_GE(U, 5.0);
    EXPECT_LT(U, 6.0);
  }
}

TEST(RngTest, BelowBound) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.below(17), 17u);
}

TEST(RngTest, GaussianMoments) {
  Rng R(42);
  double Sum = 0, SumSq = 0;
  const int N = 20000;
  for (int I = 0; I < N; ++I) {
    double G = R.gaussian();
    Sum += G;
    SumSq += G * G;
  }
  EXPECT_NEAR(Sum / N, 0.0, 0.03);
  EXPECT_NEAR(SumSq / N, 1.0, 0.05);
}

TEST(RngTest, ZeroSeedIsValid) {
  Rng R(0);
  EXPECT_NE(R.next(), R.next());
}

//===----------------------------------------------------------------------===//
// StringUtils
//===----------------------------------------------------------------------===//

TEST(StringUtilsTest, Format) {
  EXPECT_EQ(format("x=%d y=%s", 1, "two"), "x=1 y=two");
}

TEST(StringUtilsTest, FormatEmpty) { EXPECT_EQ(format("%s", ""), ""); }

TEST(StringUtilsTest, SplitBasic) {
  std::vector<std::string> Parts = split("a,b,c", ',');
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "c");
}

TEST(StringUtilsTest, SplitKeepsEmptyFields) {
  std::vector<std::string> Parts = split("a,,b,", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[1], "");
  EXPECT_EQ(Parts[3], "");
}

TEST(StringUtilsTest, JoinInvertsSplit) {
  EXPECT_EQ(join(split("x;y;z", ';'), ";"), "x;y;z");
}

TEST(StringUtilsTest, StartsWith) {
  EXPECT_TRUE(startsWith("foobar", "foo"));
  EXPECT_FALSE(startsWith("foo", "foobar"));
  EXPECT_TRUE(startsWith("abc", ""));
}

TEST(StringUtilsTest, Trim) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtilsTest, Padding) {
  EXPECT_EQ(padLeft("7", 3), "  7");
  EXPECT_EQ(padRight("7", 3), "7  ");
  EXPECT_EQ(padLeft("long", 2), "long");
}

TEST(StringUtilsTest, ParseUnsignedTakesDigitsUpToUintMax) {
  unsigned V = 7;
  EXPECT_TRUE(parseUnsigned("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseUnsigned("4294967295", V));
  EXPECT_EQ(V, 4294967295u);
  // strtoul would read "-1" as UINT_MAX and wrap the rest; none of these
  // is a count, and a failure leaves the old value.
  for (const char *Bad : {"", "-1", "+1", " 1", "1 ", "4294967296",
                          "99999999999", "12abc", "abc", "0x10"}) {
    V = 7;
    EXPECT_FALSE(parseUnsigned(Bad, V)) << Bad;
    EXPECT_EQ(V, 7u) << Bad;
  }
}

TEST(StringUtilsTest, ParseNonNegativeTakesFiniteNumbers) {
  double V = -1;
  EXPECT_TRUE(parseNonNegative("0.05", V));
  EXPECT_DOUBLE_EQ(V, 0.05);
  EXPECT_TRUE(parseNonNegative("2", V));
  EXPECT_DOUBLE_EQ(V, 2.0);
  for (const char *Bad :
       {"", "abc", "-0.1", "0.05x", " 0.05", "inf", "nan", "1e999"}) {
    V = -1;
    EXPECT_FALSE(parseNonNegative(Bad, V)) << Bad;
    EXPECT_EQ(V, -1.0) << Bad;
  }
}

} // namespace
