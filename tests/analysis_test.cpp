//===- tests/analysis_test.cpp - Access analysis tests ----------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Checks that the affine access analysis recovers stencil footprints,
// width arguments, and store sites from kernels in all the syntactic
// shapes the benchmark apps use -- and that it refuses what it cannot
// prove.
//
//===----------------------------------------------------------------------===//

#include "CompilePromoted.h"
#include "apps/Kernels.h"
#include "perforation/AccessAnalysis.h"
#include "runtime/Session.h"

#include <gtest/gtest.h>

using namespace kperf;
using namespace kperf::perf;

namespace {

KernelAccessInfo analyze(ir::Module &M, const std::string &Source,
                         const std::string &Name) {
  Expected<ir::Function *> F = compilePromoted(M, Source, Name);
  EXPECT_TRUE(static_cast<bool>(F)) << (F ? "" : F.error().message());
  Expected<KernelAccessInfo> Info = analyzeKernelAccesses(**F);
  EXPECT_TRUE(static_cast<bool>(Info));
  return Info.takeValue();
}

TEST(AnalysisTest, SimpleCopyFootprint) {
  ir::Module M;
  KernelAccessInfo Info = analyze(
      M,
      "kernel void f(global const float* in, global float* out, int w, "
      "int h) {"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  out[y * w + x] = in[y * w + x];"
      "}",
      "f");
  ASSERT_EQ(Info.Inputs.size(), 1u);
  const BufferAccess &A = Info.Inputs[0];
  EXPECT_EQ(A.Buffer->name(), "in");
  EXPECT_EQ(A.WidthArg->name(), "w");
  EXPECT_EQ(A.DyMin, 0);
  EXPECT_EQ(A.DyMax, 0);
  EXPECT_EQ(A.DxMin, 0);
  EXPECT_EQ(A.DxMax, 0);
  EXPECT_EQ(A.haloX(), 0);
  EXPECT_EQ(A.haloY(), 0);
  EXPECT_EQ(Info.UnmatchedInputLoads, 0u);
}

TEST(AnalysisTest, ConstantOffsetsUnrolled) {
  ir::Module M;
  KernelAccessInfo Info = analyze(
      M,
      "kernel void f(global const float* in, global float* out, int w, "
      "int h) {"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  out[y * w + x] = in[(y - 2) * w + x] + in[y * w + (x + 3)];"
      "}",
      "f");
  ASSERT_EQ(Info.Inputs.size(), 1u);
  EXPECT_EQ(Info.Inputs[0].DyMin, -2);
  EXPECT_EQ(Info.Inputs[0].DyMax, 0);
  EXPECT_EQ(Info.Inputs[0].DxMin, 0);
  EXPECT_EQ(Info.Inputs[0].DxMax, 3);
  EXPECT_EQ(Info.Inputs[0].haloY(), 2);
  EXPECT_EQ(Info.Inputs[0].haloX(), 3);
  EXPECT_EQ(Info.Inputs[0].Loads.size(), 2u);
}

TEST(AnalysisTest, ClampLookThrough) {
  ir::Module M;
  KernelAccessInfo Info = analyze(
      M,
      "kernel void f(global const float* in, global float* out, int w, "
      "int h) {"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  out[y * w + x] = in[clamp(y - 1, 0, h - 1) * w"
      "                      + clamp(x + 1, 0, w - 1)];"
      "}",
      "f");
  ASSERT_EQ(Info.Inputs.size(), 1u);
  EXPECT_EQ(Info.Inputs[0].DyMin, -1);
  EXPECT_EQ(Info.Inputs[0].DxMax, 1);
}

TEST(AnalysisTest, LoopInductionRange) {
  ir::Module M;
  KernelAccessInfo Info = analyze(
      M,
      "kernel void f(global const float* in, global float* out, int w, "
      "int h) {"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  float s = 0.0;"
      "  for (int k = 0; k < 5; k++)"
      "    s += in[(y + k - 2) * w + x];"
      "  out[y * w + x] = s;"
      "}",
      "f");
  ASSERT_EQ(Info.Inputs.size(), 1u);
  EXPECT_EQ(Info.Inputs[0].DyMin, -2);
  EXPECT_EQ(Info.Inputs[0].DyMax, 2);
}

TEST(AnalysisTest, NestedLoops2D) {
  ir::Module M;
  KernelAccessInfo Info = analyze(
      M,
      "kernel void f(global const float* in, global float* out, int w, "
      "int h) {"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  float s = 0.0;"
      "  for (int ky = 0; ky < 3; ky++)"
      "    for (int kx = 0; kx < 3; kx++)"
      "      s += in[(y + ky - 1) * w + (x + kx - 1)];"
      "  out[y * w + x] = s;"
      "}",
      "f");
  ASSERT_EQ(Info.Inputs.size(), 1u);
  EXPECT_EQ(Info.Inputs[0].haloX(), 1);
  EXPECT_EQ(Info.Inputs[0].haloY(), 1);
}

TEST(AnalysisTest, CommutedIndexForms) {
  // col + row*w instead of row*w + col; w*row instead of row*w.
  ir::Module M;
  KernelAccessInfo Info = analyze(
      M,
      "kernel void f(global const float* in, global float* out, int w, "
      "int h) {"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  out[y * w + x] = in[x + w * (y + 1)];"
      "}",
      "f");
  ASSERT_EQ(Info.Inputs.size(), 1u);
  EXPECT_EQ(Info.Inputs[0].DyMax, 1);
}

TEST(AnalysisTest, MultipleBuffersSeparated) {
  ir::Module M;
  KernelAccessInfo Info = analyze(
      M,
      "kernel void f(global const float* a, global const float* b, "
      "global float* out, int w, int h) {"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  out[y * w + x] = a[(y - 1) * w + x] + b[y * w + x];"
      "}",
      "f");
  ASSERT_EQ(Info.Inputs.size(), 2u);
  const BufferAccess *A = Info.inputForArg(0);
  const BufferAccess *B = Info.inputForArg(1);
  ASSERT_TRUE(A && B);
  EXPECT_EQ(A->haloY(), 1);
  EXPECT_EQ(B->haloY(), 0);
}

TEST(AnalysisTest, HotspotKernelFootprints) {
  ir::Module M;
  KernelAccessInfo Info = analyze(M, apps::hotspotSource(), "hotspot");
  ASSERT_EQ(Info.Inputs.size(), 2u);
  const BufferAccess *Power = Info.inputForArg(0);
  const BufferAccess *Temp = Info.inputForArg(1);
  ASSERT_TRUE(Power && Temp);
  EXPECT_EQ(Power->haloX(), 0);
  EXPECT_EQ(Power->haloY(), 0);
  EXPECT_EQ(Temp->haloX(), 1);
  EXPECT_EQ(Temp->haloY(), 1);
}

TEST(AnalysisTest, AllSixAppKernels) {
  struct Case {
    const char *Source;
    const char *Name;
    int HaloX, HaloY;
  };
  const Case Cases[] = {
      {apps::gaussianSource(), "gaussian", 1, 1},
      {apps::inversionSource(), "inversion", 0, 0},
      {apps::medianSource(), "median", 1, 1},
      {apps::sobel3Source(), "sobel3", 1, 1},
      {apps::sobel5Source(), "sobel5", 2, 2},
  };
  for (const Case &C : Cases) {
    ir::Module M;
    KernelAccessInfo Info = analyze(M, C.Source, C.Name);
    ASSERT_EQ(Info.Inputs.size(), 1u) << C.Name;
    EXPECT_EQ(Info.Inputs[0].haloX(), C.HaloX) << C.Name;
    EXPECT_EQ(Info.Inputs[0].haloY(), C.HaloY) << C.Name;
    EXPECT_EQ(Info.UnmatchedInputLoads, 0u) << C.Name;
  }
}

TEST(AnalysisTest, StoreSitesMatched) {
  ir::Module M;
  KernelAccessInfo Info = analyze(
      M,
      "kernel void f(global const float* in, global float* out, int w, "
      "int h) {"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  out[y * w + x] = in[y * w + x];"
      "}",
      "f");
  ASSERT_EQ(Info.Outputs.size(), 1u);
  EXPECT_EQ(Info.Outputs[0].Buffer->name(), "out");
  EXPECT_EQ(Info.Outputs[0].WidthArg->name(), "w");
  EXPECT_TRUE(Info.Outputs[0].StoredValue);
}

TEST(AnalysisTest, NonAffineIndexUnmatched) {
  ir::Module M;
  KernelAccessInfo Info = analyze(
      M,
      "kernel void f(global const float* in, global float* out, int w, "
      "int h) {"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  out[y * w + x] = in[(y * y) * w + x];" // Quadratic row.
      "}",
      "f");
  EXPECT_TRUE(Info.Inputs.empty());
  EXPECT_EQ(Info.UnmatchedInputLoads, 1u);
}

TEST(AnalysisTest, OneDimensionalIndexUnmatched) {
  ir::Module M;
  KernelAccessInfo Info = analyze(
      M,
      "kernel void f(global const float* in, global float* out, int n) {"
      "  int x = get_global_id(0);"
      "  out[x] = in[x];" // No row*width structure at all.
      "}",
      "f");
  EXPECT_TRUE(Info.Inputs.empty());
  EXPECT_EQ(Info.UnmatchedInputLoads, 1u);
}

TEST(AnalysisTest, NonConstBufferIgnoredAsInput) {
  ir::Module M;
  KernelAccessInfo Info = analyze(
      M,
      "kernel void f(global float* buf, int w, int h) {"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  buf[y * w + x] = buf[y * w + x] + 1.0;" // Read-write buffer.
      "}",
      "f");
  // Not const: never an input candidate (paper perforates inputs).
  EXPECT_TRUE(Info.Inputs.empty());
  EXPECT_EQ(Info.Outputs.size(), 1u);
}

TEST(AnalysisTest, VariableStrideUnmatched) {
  ir::Module M;
  KernelAccessInfo Info = analyze(
      M,
      "kernel void f(global const float* in, global float* out, int w, "
      "int h) {"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  int stride = w + 1;" // Not a bare argument.
      "  out[y * w + x] = in[y * stride + x];"
      "}",
      "f");
  EXPECT_TRUE(Info.Inputs.empty());
  EXPECT_EQ(Info.UnmatchedInputLoads, 1u);
}

TEST(AnalysisTest, WidthThroughSingleStoreScalar) {
  // Width copied into a local variable still resolves to the argument.
  ir::Module M;
  KernelAccessInfo Info = analyze(
      M,
      "kernel void f(global const float* in, global float* out, int w, "
      "int h) {"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  int stride = w;"
      "  out[y * w + x] = in[y * stride + x];"
      "}",
      "f");
  ASSERT_EQ(Info.Inputs.size(), 1u);
  EXPECT_EQ(Info.Inputs[0].WidthArg->name(), "w");
}

TEST(AnalysisTest, StraightLineReassignmentMatches) {
  // y is reassigned twice in straight-line code: in SSA the row is
  // (gid1 + 1) - 1, provably gid1.
  ir::Module M;
  KernelAccessInfo Info = analyze(
      M,
      "kernel void f(global const float* in, global float* out, int w, "
      "int h) {"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  y = y + 1; y = y - 1;"
      "  out[get_global_id(1) * w + x] = in[y * w + x];"
      "}",
      "f");
  ASSERT_EQ(Info.Inputs.size(), 1u);
  EXPECT_EQ(Info.Inputs[0].DyMin, 0);
  EXPECT_EQ(Info.Inputs[0].DyMax, 0);
  EXPECT_EQ(Info.UnmatchedInputLoads, 0u);
}

TEST(AnalysisTest, PathDependentScalarUnmatched) {
  // y is reassigned on one path only: the row is a join of gid1 and
  // gid1 + 1, which is no single affine form.
  ir::Module M;
  KernelAccessInfo Info = analyze(
      M,
      "kernel void f(global const float* in, global float* out, int w, "
      "int h) {"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  if (x > 3) { y = y + 1; }"
      "  out[get_global_id(1) * w + x] = in[y * w + x];"
      "}",
      "f");
  EXPECT_TRUE(Info.Inputs.empty());
  EXPECT_EQ(Info.UnmatchedInputLoads, 1u);
}

TEST(AnalysisTest, DownCountingLoopRange) {
  // The induction steps down under >=: the body sees k = 2, 1, 0.
  ir::Module M;
  KernelAccessInfo Info = analyze(
      M,
      "kernel void f(global const float* in, global float* out, int w, "
      "int h) {"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  float s = 0.0;"
      "  for (int k = 2; k >= 0; k--)"
      "    s += in[(y - k) * w + x];"
      "  out[y * w + x] = s;"
      "}",
      "f");
  ASSERT_EQ(Info.Inputs.size(), 1u);
  EXPECT_EQ(Info.Inputs[0].DyMin, -2);
  EXPECT_EQ(Info.Inputs[0].DyMax, 0);
  EXPECT_EQ(Info.UnmatchedInputLoads, 0u);
}

TEST(AnalysisTest, GreaterThanZeroLoopRange) {
  // A j > 0 test stops before 0: the body sees j = 3, 2, 1.
  ir::Module M;
  KernelAccessInfo Info = analyze(
      M,
      "kernel void f(global const float* in, global float* out, int w, "
      "int h) {"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  float s = 0.0;"
      "  int j = 3;"
      "  while (j > 0) { s += in[y * w + (x + j)]; j--; }"
      "  out[y * w + x] = s;"
      "}",
      "f");
  ASSERT_EQ(Info.Inputs.size(), 1u);
  EXPECT_EQ(Info.Inputs[0].DxMin, 1);
  EXPECT_EQ(Info.Inputs[0].DxMax, 3);
  EXPECT_EQ(Info.UnmatchedInputLoads, 0u);
}

TEST(AnalysisTest, LoopCounterReadAfterLoopUnmatched) {
  // k leaves the loop at 3, past every value the body sees (0..2). The
  // load after the loop reads row y + 3; matched with the body's range
  // it would get a prefetch tile one row short. It must stay unmatched
  // and keep reading global memory, so perforation finds no input.
  const std::string Source =
      "kernel void f(global const float* in, global float* out, int w, "
      "int h) {"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  int k = 0;"
      "  while (k < 3) { k++; }"
      "  out[y * w + x] = in[clamp(y + k, 0, h - 1) * w + x];"
      "}";
  rt::Session S;
  rt::Kernel K = cantFail(S.compile(Source, "f"));
  KernelAccessInfo Info = cantFail(analyzeKernelAccesses(*K.F));
  EXPECT_TRUE(Info.Inputs.empty());
  EXPECT_EQ(Info.UnmatchedInputLoads, 1u);

  PerforationPlan Plan;
  Plan.Scheme = PerforationScheme::none();
  Expected<rt::Variant> V = S.perforate(K, Plan);
  ASSERT_FALSE(static_cast<bool>(V));
  EXPECT_NE(V.error().message().find("no perforatable input buffer"),
            std::string::npos)
      << V.error().message();
}

TEST(AnalysisTest, GidTimesTwoUnmatched) {
  // Coefficient 2 on gid1 is not a unit-stride stencil.
  ir::Module M;
  KernelAccessInfo Info = analyze(
      M,
      "kernel void f(global const float* in, global float* out, int w, "
      "int h) {"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  out[y * w + x] = in[(2 * y) * w + x];"
      "}",
      "f");
  EXPECT_EQ(Info.UnmatchedInputLoads, 1u);
}

TEST(AnalysisTest, WhileLoopInductionNotRecognizedIsSafe) {
  // A hand-rolled while loop with a for loop's effect: if its counter is
  // not recognized as an induction, the load must degrade to
  // "unmatched", never misanalyze.
  ir::Module M;
  KernelAccessInfo Info = analyze(
      M,
      "kernel void f(global const float* in, global float* out, int w, "
      "int h) {"
      "  int x = get_global_id(0); int y = get_global_id(1);"
      "  float s = 0.0;"
      "  int k = 0;"
      "  while (k < 3) { s += in[(y + k) * w + x]; k++; }"
      "  out[y * w + x] = s;"
      "}",
      "f");
  // In SSA the while loop's counter is the same induction phi a for
  // loop's is; either outcome is sound, but the footprint must be
  // correct when matched.
  if (!Info.Inputs.empty()) {
    EXPECT_EQ(Info.Inputs[0].DyMin, 0);
    EXPECT_EQ(Info.Inputs[0].DyMax, 2);
  } else {
    EXPECT_EQ(Info.UnmatchedInputLoads, 1u);
  }
}

} // namespace
