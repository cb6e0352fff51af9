//===- tests/img_test.cpp - image substrate tests ---------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "img/Generators.h"
#include "img/Metrics.h"
#include "img/PGM.h"

#include <cmath>
#include <cstdio>
#include <gtest/gtest.h>
#include <limits>

using namespace kperf;
using namespace kperf::img;

namespace {

//===----------------------------------------------------------------------===//
// Image container
//===----------------------------------------------------------------------===//

TEST(ImageTest, Geometry) {
  Image I(10, 6, 0.5f);
  EXPECT_EQ(I.width(), 10u);
  EXPECT_EQ(I.height(), 6u);
  EXPECT_EQ(I.size(), 60u);
  EXPECT_FLOAT_EQ(I.at(9, 5), 0.5f);
}

TEST(ImageTest, SetGetRowMajor) {
  Image I(4, 4);
  I.set(1, 2, 0.7f);
  EXPECT_FLOAT_EQ(I.pixels()[2 * 4 + 1], 0.7f);
}

TEST(ImageTest, ClampedSampling) {
  Image I(3, 3);
  I.set(0, 0, 1.0f);
  I.set(2, 2, 2.0f);
  EXPECT_FLOAT_EQ(I.atClamped(-5, -5), 1.0f);
  EXPECT_FLOAT_EQ(I.atClamped(10, 10), 2.0f);
  EXPECT_FLOAT_EQ(I.atClamped(1, 1), 0.0f);
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(MetricsTest, MreZeroForIdentical) {
  std::vector<float> V = {0.5f, 0.7f, 0.2f};
  EXPECT_DOUBLE_EQ(meanRelativeError(V, V), 0.0);
}

TEST(MetricsTest, MreKnownValue) {
  // |0.5-0.6|/0.5 = 0.2 on one sample.
  EXPECT_NEAR(meanRelativeError({0.5f}, {0.6f}), 0.2, 1e-6);
}

TEST(MetricsTest, MreSkipsNearZeroTruth) {
  // The first sample's truth is below eps and must be skipped.
  EXPECT_NEAR(meanRelativeError({0.0f, 0.5f}, {9.0f, 0.5f}), 0.0, 1e-12);
}

TEST(MetricsTest, MreCapsOutliers) {
  // Relative error 10 on one sample is capped to 1.
  EXPECT_NEAR(meanRelativeError({0.1f}, {1.1f}), 1.0, 1e-6);
}

TEST(MetricsTest, MreCountsNonFiniteSampleAsCap) {
  // std::min(NaN, Cap) is NaN; one NaN sample must count as Cap, not
  // turn the whole mean into NaN.
  const float NaN = std::numeric_limits<float>::quiet_NaN();
  EXPECT_DOUBLE_EQ(meanRelativeError({1, 2, 3}, {1, NaN, 3}), 1.0 / 3.0);
}

TEST(MetricsTest, MreEmptyIsZero) {
  EXPECT_DOUBLE_EQ(meanRelativeError({}, {}), 0.0);
}

TEST(MetricsTest, MeanErrorKnown) {
  EXPECT_NEAR(meanError({0.0f, 1.0f}, {0.5f, 0.5f}), 0.5, 1e-6);
}

TEST(MetricsTest, MeanErrorZeroSafe) {
  // Mean error is well-defined where MRE is not (paper's Sobel argument).
  EXPECT_NEAR(meanError({0.0f}, {0.25f}), 0.25, 1e-6);
}

TEST(MetricsTest, PsnrInfiniteForIdentical) {
  std::vector<float> V = {0.1f, 0.9f};
  EXPECT_TRUE(std::isinf(psnr(V, V)));
}

TEST(MetricsTest, PsnrKnownValue) {
  // MSE = 0.01 => PSNR = 10*log10(1/0.01) = 20 dB (float rounding).
  EXPECT_NEAR(psnr({0.5f}, {0.6f}), 20.0, 1e-4);
}

TEST(MetricsTest, PsnrDecreasesWithError) {
  std::vector<float> T = {0.5f, 0.5f, 0.5f};
  EXPECT_GT(psnr(T, {0.51f, 0.5f, 0.5f}), psnr(T, {0.6f, 0.5f, 0.5f}));
}

//===----------------------------------------------------------------------===//
// Generators
//===----------------------------------------------------------------------===//

TEST(GeneratorTest, Deterministic) {
  Image A = generateImage(ImageClass::Natural, 64, 64, 42);
  Image B = generateImage(ImageClass::Natural, 64, 64, 42);
  EXPECT_EQ(A.pixels(), B.pixels());
}

TEST(GeneratorTest, SeedsDiffer) {
  Image A = generateImage(ImageClass::Natural, 64, 64, 1);
  Image B = generateImage(ImageClass::Natural, 64, 64, 2);
  EXPECT_NE(A.pixels(), B.pixels());
}

TEST(GeneratorTest, PixelsInRange) {
  for (ImageClass C : {ImageClass::Flat, ImageClass::Smooth,
                       ImageClass::Natural, ImageClass::Pattern,
                       ImageClass::Noise}) {
    Image I = generateImage(C, 32, 32, 3);
    for (float P : I.pixels()) {
      EXPECT_GE(P, 0.0f) << imageClassName(C);
      EXPECT_LE(P, 1.0f) << imageClassName(C);
    }
  }
}

/// Mean absolute row-to-row difference: a proxy for vertical frequency,
/// which is exactly what row perforation is sensitive to.
double rowRoughness(const Image &I) {
  double Sum = 0;
  for (unsigned Y = 0; Y + 1 < I.height(); ++Y)
    for (unsigned X = 0; X < I.width(); ++X)
      Sum += std::fabs(I.at(X, Y + 1) - I.at(X, Y));
  return Sum / (I.width() * (I.height() - 1));
}

TEST(GeneratorTest, ClassesOrderedByRoughness) {
  double Flat = rowRoughness(generateImage(ImageClass::Flat, 64, 64, 5));
  double Smooth =
      rowRoughness(generateImage(ImageClass::Smooth, 64, 64, 5));
  double Pattern =
      rowRoughness(generateImage(ImageClass::Pattern, 64, 64, 5));
  double Noise = rowRoughness(generateImage(ImageClass::Noise, 64, 64, 5));
  EXPECT_LT(Flat, Smooth);
  EXPECT_LT(Smooth, Pattern);
  EXPECT_LT(Pattern, Noise * 2); // Pattern and noise are both rough.
}

TEST(GeneratorTest, DatasetSizeAndDeterminism) {
  auto A = generateDataset(10, 32, 32, 7);
  auto B = generateDataset(10, 32, 32, 7);
  ASSERT_EQ(A.size(), 10u);
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I].pixels(), B[I].pixels()) << I;
}

TEST(GeneratorTest, DatasetClassCycleCovered) {
  bool Seen[5] = {false, false, false, false, false};
  for (unsigned I = 0; I < 20; ++I)
    Seen[static_cast<unsigned>(datasetClassAt(I))] = true;
  for (bool S : Seen)
    EXPECT_TRUE(S);
}

TEST(GeneratorTest, ClassNames) {
  EXPECT_STREQ(imageClassName(ImageClass::Flat), "flat");
  EXPECT_STREQ(imageClassName(ImageClass::Pattern), "pattern");
}

//===----------------------------------------------------------------------===//
// PGM I/O
//===----------------------------------------------------------------------===//

TEST(PgmTest, RoundTrip) {
  Image I = generateImage(ImageClass::Natural, 24, 16, 3);
  std::string Path = ::testing::TempDir() + "kperf_roundtrip.pgm";
  ASSERT_FALSE(writePGM(I, Path));
  Expected<Image> Back = readPGM(Path);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(Back->width(), 24u);
  EXPECT_EQ(Back->height(), 16u);
  // Quantization to 8 bits: within 1/255 everywhere.
  for (unsigned Y = 0; Y < 16; ++Y)
    for (unsigned X = 0; X < 24; ++X)
      EXPECT_NEAR(Back->at(X, Y), I.at(X, Y), 1.0 / 255.0 + 1e-6);
  std::remove(Path.c_str());
}

TEST(PgmTest, CommentsAndWhitespaceInHeader) {
  std::string Path = ::testing::TempDir() + "kperf_comment.pgm";
  {
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    ASSERT_TRUE(F);
    std::fputs("P5\n# a comment\n2 # inline\n2\n255\n", F);
    unsigned char Data[4] = {0, 85, 170, 255};
    std::fwrite(Data, 1, 4, F);
    std::fclose(F);
  }
  Expected<Image> I = readPGM(Path);
  ASSERT_TRUE(static_cast<bool>(I)) << I.error().message();
  EXPECT_NEAR(I->at(1, 1), 1.0f, 1e-6);
  EXPECT_NEAR(I->at(1, 0), 85.0f / 255.0f, 1e-6);
  std::remove(Path.c_str());
}

TEST(PgmTest, RejectsNonPgm) {
  std::string Path = ::testing::TempDir() + "kperf_bad.pgm";
  {
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    std::fputs("P6\n2 2\n255\n", F);
    std::fclose(F);
  }
  Expected<Image> I = readPGM(Path);
  ASSERT_FALSE(static_cast<bool>(I));
  EXPECT_NE(I.error().message().find("P5"), std::string::npos);
  std::remove(Path.c_str());
}

TEST(PgmTest, RejectsTruncatedData) {
  std::string Path = ::testing::TempDir() + "kperf_trunc.pgm";
  {
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    std::fputs("P5\n4 4\n255\nxx", F); // 2 bytes instead of 16.
    std::fclose(F);
  }
  Expected<Image> I = readPGM(Path);
  ASSERT_FALSE(static_cast<bool>(I));
  EXPECT_NE(I.error().message().find("truncated"), std::string::npos);
  std::remove(Path.c_str());
}

TEST(PgmTest, MissingFile) {
  Expected<Image> I = readPGM("/nonexistent/definitely/missing.pgm");
  ASSERT_FALSE(static_cast<bool>(I));
  EXPECT_NE(I.error().message().find("cannot open"), std::string::npos);
}

TEST(PgmTest, WriteClampsOutOfRange) {
  Image I(2, 1);
  I.set(0, 0, -0.5f);
  I.set(1, 0, 1.5f);
  std::string Path = ::testing::TempDir() + "kperf_clamp.pgm";
  ASSERT_FALSE(writePGM(I, Path));
  Expected<Image> Back = readPGM(Path);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_FLOAT_EQ(Back->at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(Back->at(1, 0), 1.0f);
  std::remove(Path.c_str());
}

} // namespace
