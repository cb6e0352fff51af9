//===- tests/session_test.cpp - Session variant-cache tests ------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The rt::Session compiled-variant cache: source-compile caching, variant
// hit/miss accounting across identical and differing VariantKeys, the
// optimized launch copy, identity of cached-vs-fresh variant outputs on a
// real app kernel, the disk cache, and the unified launch(Variant) entry
// point.
//
//===----------------------------------------------------------------------===//

#include "apps/App.h"
#include "apps/Kernels.h"
#include "img/Generators.h"
#include "ir/PassManager.h"
#include "runtime/Session.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

using namespace kperf;
using namespace kperf::rt;

namespace {

const char *ScaleSource = R"(
kernel void scale(global const float* in, global float* out, int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  out[y * w + x] = in[y * w + x] * 2.0;
}
)";

/// ScaleSource's kernel name with a different body: scales by 3.
const char *Scale3Source = R"(
kernel void scale(global const float* in, global float* out, int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  out[y * w + x] = in[y * w + x] * 3.0;
}
)";

perf::PerforationPlan rows1Plan(unsigned TileX = 16, unsigned TileY = 16) {
  perf::PerforationPlan Plan;
  Plan.Scheme = perf::PerforationScheme::rows(
      2, perf::ReconstructionKind::NearestNeighbor);
  Plan.TileX = TileX;
  Plan.TileY = TileY;
  return Plan;
}

TEST(SessionTest, SourceCompileCached) {
  Session S;
  Kernel A = cantFail(S.compile(ScaleSource, "scale"));
  Kernel B = cantFail(S.compile(ScaleSource, "scale"));
  EXPECT_EQ(A.F, B.F);
  EXPECT_EQ(S.stats().SourceCompiles, 1u);
  EXPECT_EQ(S.stats().SourceCacheHits, 1u);

  // A different pipeline option set is a different compile.
  pcl::CompileOptions Opts;
  Opts.PipelineSpec = "fixpoint(simplify,dce)";
  Kernel C = cantFail(S.compile(ScaleSource, "scale", Opts));
  EXPECT_NE(A.F, C.F);
  EXPECT_EQ(S.stats().SourceCompiles, 2u);
}

TEST(SessionTest, VariantCacheHitsAndMisses) {
  Session S;
  Kernel K = cantFail(S.compile(ScaleSource, "scale"));

  Variant A = cantFail(S.perforate(K, rows1Plan()));
  EXPECT_EQ(S.stats().VariantCompiles, 1u);
  EXPECT_EQ(S.stats().VariantCacheHits, 0u);

  // Identical key: served from cache, same generated kernel.
  Variant B = cantFail(S.perforate(K, rows1Plan()));
  EXPECT_EQ(S.stats().VariantCompiles, 1u);
  EXPECT_EQ(S.stats().VariantCacheHits, 1u);
  EXPECT_EQ(A.K.F, B.K.F);
  EXPECT_EQ(A.Local.X, B.Local.X);

  // Differing tile shape, scheme, or pipeline spec: distinct keys.
  Variant C = cantFail(S.perforate(K, rows1Plan(8, 8)));
  EXPECT_NE(A.K.F, C.K.F);
  perf::PerforationPlan LiPlan = rows1Plan();
  LiPlan.Scheme =
      perf::PerforationScheme::rows(2, perf::ReconstructionKind::Linear);
  Variant D = cantFail(S.perforate(K, LiPlan));
  EXPECT_NE(A.K.F, D.K.F);
  perf::PerforationPlan PipePlan = rows1Plan();
  PipePlan.PipelineSpec = "fixpoint(simplify,dce)";
  Variant E = cantFail(S.perforate(K, PipePlan));
  EXPECT_NE(A.K.F, E.K.F);
  EXPECT_EQ(S.stats().VariantCompiles, 4u);
  EXPECT_EQ(S.stats().VariantCacheHits, 1u);
  EXPECT_DOUBLE_EQ(S.stats().variantHitRate(), 0.2);
}

TEST(SessionTest, SameNamedKernelsDoNotCollide) {
  // Two distinct functions named "scale" coexist in one module (same
  // source compiled under different pipeline options); their variants
  // must be cached independently.
  Session S;
  Kernel A = cantFail(S.compile(ScaleSource, "scale"));
  pcl::CompileOptions Opts;
  Opts.PipelineSpec = ir::defaultPipelineSpec();
  Kernel B = cantFail(S.compile(ScaleSource, "scale", Opts));
  ASSERT_NE(A.F, B.F);

  Variant VA = cantFail(S.perforate(A, rows1Plan()));
  Variant VB = cantFail(S.perforate(B, rows1Plan()));
  EXPECT_NE(VA.K.F, VB.K.F);
  EXPECT_EQ(S.stats().VariantCompiles, 2u);
  EXPECT_EQ(S.stats().VariantCacheHits, 0u);
}

TEST(SessionTest, OutputApproxCached) {
  Session S;
  Kernel K = cantFail(S.compile(ScaleSource, "scale"));
  perf::OutputApproxPlan Plan;
  Plan.Kind = perf::OutputSchemeKind::Rows;
  Plan.ApproxPerComputed = 2;
  Plan.WidthArgIndex = 2;
  Plan.HeightArgIndex = 3;
  Variant A = cantFail(S.approximateOutput(K, Plan));
  Variant B = cantFail(S.approximateOutput(K, Plan));
  EXPECT_EQ(A.K.F, B.K.F);
  EXPECT_EQ(A.Kind, VariantKind::OutputApprox);
  EXPECT_EQ(A.DivY, 3u);
  EXPECT_EQ(S.stats().VariantCompiles, 1u);
  EXPECT_EQ(S.stats().VariantCacheHits, 1u);

  // A perforation of the same kernel is a different key space entirely.
  cantFail(S.perforate(K, rows1Plan()));
  EXPECT_EQ(S.stats().VariantCompiles, 2u);
}

TEST(SessionTest, LaunchesRunTheOptimizedCopy) {
  // compile() without a spec hands out frontend IR plus an optimized
  // launch copy of the same name; the copy leaves the variant name
  // counter alone. A spec-compiled kernel, and a handle built from a bare
  // function, launch exactly that function.
  Session S;
  Kernel K = cantFail(S.compile(ScaleSource, "scale"));
  ASSERT_NE(K.Launch, nullptr);
  EXPECT_NE(K.Launch, K.F);
  EXPECT_EQ(K.Launch->name(), "scale");
  EXPECT_EQ(cantFail(S.perforate(K, rows1Plan())).K.F->name(),
            "scale.perf0");
  pcl::CompileOptions Optimized;
  Optimized.PipelineSpec = ir::defaultPipelineSpec();
  EXPECT_EQ(cantFail(S.compile(ScaleSource, "scale", Optimized)).Launch,
            nullptr);

  std::vector<float> Data(32 * 32, 1.0f);
  unsigned In = S.createBufferFrom(Data);
  unsigned Out = S.createBuffer(Data.size());
  std::vector<sim::KernelArg> Args = {arg::buffer(In), arg::buffer(Out),
                                      arg::i32(32), arg::i32(32)};
  sim::SimReport Copy = cantFail(S.launch(K, {32, 32}, {16, 16}, Args));
  EXPECT_FLOAT_EQ(S.buffer(Out).floatAt(0), 2.0f);
  sim::SimReport Exact =
      cantFail(S.launch(Kernel{K.F}, {32, 32}, {16, 16}, Args));
  EXPECT_FLOAT_EQ(S.buffer(Out).floatAt(0), 2.0f);
  EXPECT_EQ(Copy.TimeMs, Exact.TimeMs);
  EXPECT_LT(Copy.Totals.AluOps, Exact.Totals.AluOps);
}

TEST(SessionTest, LaunchRefusesOneBufferAsConstAndWritableArgument) {
  // The passes behind the launch copy assume nothing writes a const
  // buffer during a launch, so the copy reads in[x] once. Bound to one
  // buffer of 5.0 as both 'in' and 'out', the kernel as written would
  // store 7 and the copy 6: the launch refuses the binding instead.
  const char *TwiceSource = R"(
kernel void twice(global const float* in, global float* out) {
  int x = get_global_id(0);
  float a = in[x];
  out[x] = a + 1.0;
  float b = in[x];
  out[x] = b + 1.0;
}
)";
  Session S;
  Kernel K = cantFail(S.compile(TwiceSource, "twice"));
  unsigned Buf = S.createBufferFrom(std::vector<float>(16, 5.0f));
  for (const Kernel &Handle : {K, Kernel{K.F}}) {
    Expected<sim::SimReport> R =
        S.launch(Handle, {16, 1}, {16, 1},
                 {arg::buffer(Buf), arg::buffer(Buf)});
    ASSERT_FALSE(static_cast<bool>(R));
    const std::string &Message = R.error().message();
    EXPECT_NE(Message.find("'in'"), std::string::npos) << Message;
    EXPECT_NE(Message.find("'out'"), std::string::npos) << Message;
  }
  EXPECT_FLOAT_EQ(S.buffer(Buf).floatAt(0), 5.0f);

  // One buffer behind two const parameters stays legal.
  const char *SumSource = R"(
kernel void sum(global const float* a, global const float* b,
                global float* out) {
  int x = get_global_id(0);
  out[x] = a[x] + b[x];
}
)";
  Kernel Sum = cantFail(S.compile(SumSource, "sum"));
  unsigned Out = S.createBuffer(16);
  cantFail(S.launch(Sum, {16, 1}, {16, 1},
                    {arg::buffer(Buf), arg::buffer(Buf), arg::buffer(Out)}));
  EXPECT_FLOAT_EQ(S.buffer(Out).floatAt(0), 10.0f);
}

TEST(SessionTest, CachedVariantOutputMatchesFreshSession) {
  // A real app kernel: gaussian, Rows1:LI at 16x16. The cached variant's
  // output must be byte-identical to both a repeated (cache-hit) run in
  // the same session and a fresh session's run.
  auto App = apps::makeApp("gaussian");
  apps::Workload W = apps::makeImageWorkload(
      img::generateImage(img::ImageClass::Natural, 64, 64, 3));
  perf::PerforationScheme Scheme =
      perf::PerforationScheme::rows(2, perf::ReconstructionKind::Linear);

  Session S;
  Variant V1 = cantFail(App->buildPerforated(S, Scheme, {16, 16}));
  std::vector<float> First = cantFail(App->run(S, V1, W)).Output;
  Variant V2 = cantFail(App->buildPerforated(S, Scheme, {16, 16}));
  EXPECT_EQ(V1.K.F, V2.K.F);
  EXPECT_GE(S.stats().VariantCacheHits, 1u);
  EXPECT_EQ(S.stats().SourceCompiles, 1u);
  std::vector<float> Cached = cantFail(App->run(S, V2, W)).Output;
  EXPECT_EQ(First, Cached);

  Session Fresh;
  Variant V3 = cantFail(App->buildPerforated(Fresh, Scheme, {16, 16}));
  std::vector<float> FreshOut = cantFail(App->run(Fresh, V3, W)).Output;
  EXPECT_EQ(First, FreshOut);
}

TEST(SessionTest, UnifiedLaunchAppliesNDRangeShrink) {
  Session S;
  Kernel K = cantFail(S.compile(ScaleSource, "scale"));
  perf::OutputApproxPlan Plan;
  Plan.Kind = perf::OutputSchemeKind::Rows;
  Plan.ApproxPerComputed = 2;
  Plan.WidthArgIndex = 2;
  Plan.HeightArgIndex = 3;
  Variant V = cantFail(S.approximateOutput(K, Plan));
  V.Local = sim::Range2{4, 4};

  std::vector<float> Data(48 * 48, 0.5f);
  unsigned In = S.createBufferFrom(Data);
  unsigned Out = S.createBuffer(Data.size());
  // 48/3 = 16 computed rows, divisible by 4: launches cleanly at 48x16.
  sim::SimReport R = cantFail(S.launch(
      V, {48, 48},
      {arg::buffer(In), arg::buffer(Out), arg::i32(48), arg::i32(48)}));
  EXPECT_EQ(R.Totals.WorkItems, 48u * 16u);
}

TEST(SessionTest, ReleasedBufferSlotDoesNotBlockBatchedLaunch) {
  // A released slot stays in the launch's buffer bank as a null entry.
  // A launch that never references it must run on the batched tier too,
  // with the tree walker's exact output bytes.
  std::vector<float> Data(32 * 32);
  for (size_t I = 0; I < Data.size(); ++I)
    Data[I] = static_cast<float>(I % 17) * 0.25f;
  std::vector<std::vector<float>> Outputs;
  for (sim::ExecTier Tier : {sim::ExecTier::Tree, sim::ExecTier::Batched}) {
    Session S;
    S.setExecTier(Tier);
    Kernel K = cantFail(S.compile(ScaleSource, "scale"));
    unsigned Unused = S.createBuffer(16);
    unsigned In = S.createBufferFrom(Data);
    unsigned Out = S.createBuffer(Data.size());
    S.releaseBuffer(Unused);
    Expected<sim::SimReport> R =
        S.launch(K, {32, 32}, {16, 16},
                 {arg::buffer(In), arg::buffer(Out), arg::i32(32),
                  arg::i32(32)});
    ASSERT_TRUE(static_cast<bool>(R))
        << sim::execTierName(Tier) << ": " << R.error().message();
    Outputs.push_back(S.buffer(Out).downloadFloats());
  }
  ASSERT_EQ(Outputs[0].size(), Outputs[1].size());
  EXPECT_EQ(std::memcmp(Outputs[0].data(), Outputs[1].data(),
                        Outputs[0].size() * sizeof(float)),
            0);
}

TEST(SessionTest, TwoPassVariantLaunchesStageByStage) {
  auto App = apps::makeApp("convsep");
  Session S;
  Variant V = cantFail(App->buildPlain(S, {16, 16}));
  ASSERT_TRUE(V.isTwoPass());
  EXPECT_FALSE(V.firstPass().isTwoPass());
  EXPECT_FALSE(V.secondPass().isTwoPass());
  EXPECT_EQ(V.secondPass().K.F, V.K2.F);

  // The unified entry point refuses a whole two-pass variant: chaining
  // needs the caller's intermediate buffer.
  std::vector<float> Data(32 * 32, 0.25f);
  unsigned In = S.createBufferFrom(Data);
  unsigned Out = S.createBuffer(Data.size());
  Expected<sim::SimReport> R = S.launch(
      V, {32, 32},
      {arg::buffer(In), arg::buffer(Out), arg::i32(32), arg::i32(32)});
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.error().message().find("two-pass"), std::string::npos);

  // And the app harness chains the passes for us.
  apps::Workload W = apps::makeImageWorkload(
      img::generateImage(img::ImageClass::Smooth, 32, 32, 5));
  apps::RunOutcome O = cantFail(App->run(S, V, W));
  EXPECT_EQ(O.Output.size(), W.Input.size());
}

TEST(SessionTest, VariantCarriesLaunchConstraints) {
  // The unified Variant handle carries the launch constraints that used
  // to live in the per-transform handle structs.
  Session Ctx;
  Kernel K = cantFail(Ctx.compile(ScaleSource, "scale"));
  Variant P = cantFail(Ctx.perforate(K, rows1Plan(8, 4)));
  EXPECT_EQ(P.Kind, VariantKind::Perforated);
  EXPECT_EQ(P.Local.X, 8u);
  EXPECT_EQ(P.Local.Y, 4u);

  perf::OutputApproxPlan Plan;
  Plan.Kind = perf::OutputSchemeKind::Rows;
  Plan.ApproxPerComputed = 2;
  Plan.WidthArgIndex = 2;
  Plan.HeightArgIndex = 3;
  Variant A = cantFail(Ctx.approximateOutput(K, Plan));
  EXPECT_EQ(A.Kind, VariantKind::OutputApprox);
  A.Local = {4, 4};
  std::vector<float> Data(48 * 48, 0.5f);
  unsigned In = Ctx.createBufferFrom(Data);
  unsigned Out = Ctx.createBuffer(Data.size());
  sim::SimReport R = cantFail(Ctx.launch(
      A, {48, 48},
      {arg::buffer(In), arg::buffer(Out), arg::i32(48), arg::i32(48)}));
  EXPECT_EQ(R.Totals.WorkItems, 48u * 16u);
}

TEST(SessionTest, LintRejectionsAreNotVariantCompiles) {
  // A gate rejection inserts nothing, so it must not count as a compile
  // (that would skew the hit rate); it gets its own appended counter.
  const char *OobSource = R"(
kernel void oob(global const float* in, global float* out, int w, int h) {
  float p[8];
  int x = get_global_id(0);
  int y = get_global_id(1);
  p[0] = in[y * w + x];
  p[8200] = 3.0;
  out[y * w + x] = p[0];
}
)";
  Session S;
  S.setLintGate(true);
  Kernel K = cantFail(S.compile(OobSource, "oob"));
  size_t Baseline = S.module().numFunctions();

  Expected<Variant> V = S.perforate(K, rows1Plan());
  ASSERT_FALSE(static_cast<bool>(V));
  EXPECT_NE(V.error().message().find("lint gate:"), std::string::npos);
  EXPECT_EQ(S.stats().LintRejections, 1u);
  EXPECT_EQ(S.stats().VariantCompiles, 0u);
  EXPECT_EQ(S.stats().VariantCacheHits, 0u);
  // The rejected kernel was removed from the module.
  EXPECT_EQ(S.module().numFunctions(), Baseline);

  std::string Line = S.stats().str();
  EXPECT_NE(Line.find("lint rejections: 1"), std::string::npos) << Line;
}

TEST(SessionTest, DiskCacheServesWarmRestart) {
  // A second session pointed at the same cache directory materializes
  // every variant from disk: zero variant compiles on the warm path.
  std::string Dir = ::testing::TempDir() + "kperf_diskcache_test";
  std::filesystem::remove_all(Dir); // Stale entries from a previous run.
  auto App = apps::makeApp("gaussian");
  perf::PerforationScheme Scheme =
      perf::PerforationScheme::rows(2, perf::ReconstructionKind::Linear);

  std::vector<float> Cold;
  {
    Session S;
    cantFail(S.setDiskCache(Dir));
    EXPECT_EQ(S.diskCache(), Dir);
    Variant V = cantFail(App->buildPerforated(S, Scheme, {16, 16}));
    EXPECT_EQ(S.stats().VariantCompiles, 1u);
    EXPECT_EQ(S.stats().DiskVariantStores, 1u);
    EXPECT_EQ(S.stats().DiskVariantHits, 0u);
    apps::Workload W = apps::makeImageWorkload(
        img::generateImage(img::ImageClass::Natural, 64, 64, 3));
    Cold = cantFail(App->run(S, V, W)).Output;
  }

  Session Warm;
  cantFail(Warm.setDiskCache(Dir));
  Variant V = cantFail(App->buildPerforated(Warm, Scheme, {16, 16}));
  EXPECT_EQ(Warm.stats().VariantCompiles, 0u);
  EXPECT_EQ(Warm.stats().DiskVariantHits, 1u);
  EXPECT_EQ(Warm.stats().DiskVariantStores, 0u);
  // Within one session the reloaded variant is then an in-memory hit.
  cantFail(App->buildPerforated(Warm, Scheme, {16, 16}));
  EXPECT_EQ(Warm.stats().VariantCacheHits, 1u);
  EXPECT_EQ(Warm.stats().DiskVariantHits, 1u);

  // And the reloaded kernel computes byte-identical output.
  apps::Workload W = apps::makeImageWorkload(
      img::generateImage(img::ImageClass::Natural, 64, 64, 3));
  EXPECT_EQ(Cold, cantFail(App->run(Warm, V, W)).Output);

  std::string Line = Warm.stats().str();
  EXPECT_NE(Line.find("disk: 1 hits, 0 stores"), std::string::npos) << Line;
}

TEST(SessionTest, DiskCacheKeyTracksSourceIR) {
  // The content address hashes the *printed source IR*, not just the
  // kernel name: a different kernel under the same name must miss the
  // first one's disk entry and store its own.
  std::string Dir = ::testing::TempDir() + "kperf_diskcache_samename";
  std::filesystem::remove_all(Dir); // Stale entries from a previous run.
  {
    Session S;
    cantFail(S.setDiskCache(Dir));
    Kernel K = cantFail(S.compile(ScaleSource, "scale"));
    cantFail(S.perforate(K, rows1Plan()));
    EXPECT_EQ(S.stats().DiskVariantStores, 1u);
  }

  Session S;
  cantFail(S.setDiskCache(Dir));
  Kernel K = cantFail(S.compile(Scale3Source, "scale"));
  Variant V = cantFail(S.perforate(K, rows1Plan()));
  EXPECT_EQ(S.stats().DiskVariantHits, 0u);
  EXPECT_EQ(S.stats().VariantCompiles, 1u);
  EXPECT_EQ(S.stats().DiskVariantStores, 1u);
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(Dir),
                          std::filesystem::directory_iterator()),
            2);

  std::vector<float> Data(32 * 32, 1.0f);
  unsigned In = S.createBufferFrom(Data);
  unsigned Out = S.createBuffer(Data.size());
  cantFail(S.launch(
      V, {32, 32},
      {arg::buffer(In), arg::buffer(Out), arg::i32(32), arg::i32(32)}));
  EXPECT_FLOAT_EQ(S.buffer(Out).floatAt(0), 3.0f);
}

TEST(SessionTest, DiskCacheRejectsCorruptedEntry) {
  // One changed digit in a stored variant can still parse and verify as
  // a different kernel, such as a loop counter phi reading the wrong
  // value. The file's checksum turns every such rewrite -- in the
  // header, the IR or the sum itself -- into a miss whose recompile
  // overwrites the file.
  std::string Dir = ::testing::TempDir() + "kperf_diskcache_corrupt";
  std::filesystem::remove_all(Dir); // Stale entries from a previous run.
  auto App = apps::makeApp("gaussian");
  perf::PerforationScheme Scheme =
      perf::PerforationScheme::rows(2, perf::ReconstructionKind::Linear);
  {
    Session S;
    cantFail(S.setDiskCache(Dir));
    cantFail(App->buildPerforated(S, Scheme, {16, 16}));
    ASSERT_EQ(S.stats().DiskVariantStores, 1u);
  }
  const std::string File =
      std::filesystem::directory_iterator(Dir)->path().string();
  auto readFile = [&] {
    std::ifstream In(File, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(In), {});
  };
  const std::string Stored = readFile();

  unsigned Digits = 0;
  for (size_t I = 0; I < Stored.size(); ++I) {
    if (Stored[I] < '0' || Stored[I] > '9')
      continue;
    ++Digits;
    std::string Corrupt = Stored;
    Corrupt[I] = Corrupt[I] == '9' ? '0' : Corrupt[I] + 1;
    std::ofstream(File, std::ios::binary | std::ios::trunc) << Corrupt;

    Session S;
    cantFail(S.setDiskCache(Dir));
    cantFail(App->buildPerforated(S, Scheme, {16, 16}));
    ASSERT_EQ(S.stats().DiskVariantHits, 0u) << "digit at byte " << I;
    ASSERT_EQ(S.stats().VariantCompiles, 1u) << "digit at byte " << I;
    ASSERT_EQ(S.stats().DiskVariantStores, 1u) << "digit at byte " << I;
  }
  EXPECT_GT(Digits, 100u);
  EXPECT_EQ(readFile(), Stored);
}

TEST(SessionTest, StatsLineMentionsCompilesAndHitRate) {
  Session S;
  Kernel K = cantFail(S.compile(ScaleSource, "scale"));
  cantFail(S.perforate(K, rows1Plan()));
  cantFail(S.perforate(K, rows1Plan()));
  std::string Line = S.stats().str();
  EXPECT_NE(Line.find("source compiles: 1"), std::string::npos);
  EXPECT_NE(Line.find("variant compiles: 1"), std::string::npos);
  EXPECT_NE(Line.find("50.0% hit rate"), std::string::npos);
}

} // namespace
