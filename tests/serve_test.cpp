//===- tests/serve_test.cpp - Multi-tenant serving layer tests ---------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// rt::Server: service registration, serve() parity with a direct
// session launch, accurate launches on the optimized kernel at the
// service tile, the online re-tune hot-swap (quality loop) on the
// background worker, registration while a re-tune runs, degradation when
// the budget proves unreachable, the scorer returns NaN or the service
// has spent its re-tunes, the lint-gate accurate-only path, disk-cache
// warm restarts with zero variant compiles, serving without the disk
// cache when its directory cannot be created, fresh output buffers per
// request, concurrent clients across services and on one service, and
// shutdown with re-tunes in flight.
//
//===----------------------------------------------------------------------===//

#include "apps/Kernels.h"
#include "img/Generators.h"
#include "runtime/Server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

using namespace kperf;
using namespace kperf::rt;

namespace {

ServiceConfig imageService(const char *Name, const char *Source,
                           unsigned Size = 64) {
  ServiceConfig C;
  C.Name = Name;
  C.Source = Source;
  C.Kernel = Name;
  C.Width = Size;
  C.Height = Size;
  C.Scheme = perf::PerforationScheme::rows(
      2, perf::ReconstructionKind::NearestNeighbor);
  return C;
}

std::vector<float> frame(img::ImageClass Class, unsigned Size,
                         uint64_t Seed) {
  return img::generateImage(Class, Size, Size, Seed).pixels();
}

bool bitIdentical(const std::vector<float> &A,
                  const std::vector<float> &B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) == 0;
}

/// Holds back scorer calls made by any thread other than the one that
/// built the gate -- the re-tune worker's, in particular -- until open().
/// A 60 s safety timeout turns a regression into a failure, not a hang.
class ScoreGate {
public:
  /// True on the owning thread; elsewhere blocks until open(), then
  /// returns false.
  bool pass() {
    if (std::this_thread::get_id() == Owner)
      return true;
    std::unique_lock<std::mutex> Lock(Mu);
    ++Held;
    CV.notify_all();
    CV.wait_for(Lock, std::chrono::seconds(60), [this] { return Open; });
    return false;
  }

  void open() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Open = true;
    }
    CV.notify_all();
  }

  /// Waits until another thread is held in pass().
  bool awaitHeld() {
    std::unique_lock<std::mutex> Lock(Mu);
    return CV.wait_for(Lock, std::chrono::seconds(60),
                       [this] { return Held > 0; });
  }

private:
  const std::thread::id Owner = std::this_thread::get_id();
  std::mutex Mu;
  std::condition_variable CV;
  bool Open = false;
  unsigned Held = 0;
};

TEST(ServerTest, RegistrationRejectsDuplicateNames) {
  Server Srv(ServerConfig{});
  std::vector<std::pair<const char *, const char *>> Defs = {
      {"gaussian", apps::gaussianSource()},
      {"inversion", apps::inversionSource()},
      {"sobel3", apps::sobel3Source()},
      {"mean", apps::meanSource()}};
  for (const auto &D : Defs)
    ASSERT_FALSE(
        static_cast<bool>(Srv.addService(imageService(D.first, D.second))));

  ServerStats St = Srv.stats();
  EXPECT_EQ(St.Services, 4u);
  EXPECT_EQ(St.Sessions.VariantCompiles, 4u);
  EXPECT_NE(St.str().find("services: 4"), std::string::npos);

  // Duplicate names are rejected; the original service stays.
  Error Dup = Srv.addService(imageService("gaussian", apps::gaussianSource()));
  ASSERT_TRUE(static_cast<bool>(Dup));
  EXPECT_NE(Dup.message().find("already registered"), std::string::npos);
  EXPECT_EQ(Srv.stats().Services, 4u);
}

TEST(ServerTest, ServeMatchesDirectSessionLaunch) {
  // An unchecked approximate serve must produce exactly what launching
  // the same perforated variant in a plain session produces.
  Server Srv(ServerConfig{});
  ASSERT_FALSE(static_cast<bool>(
      Srv.addService(imageService("gaussian", apps::gaussianSource()))));
  std::vector<float> Input = frame(img::ImageClass::Natural, 64, 3);
  ServeResult R = cantFail(Srv.serve("gaussian", Input));
  EXPECT_TRUE(R.UsedApproximate);
  EXPECT_FALSE(R.Checked); // CheckEvery=8: the first request is free.
  ASSERT_EQ(R.Output.size(), Input.size());

  Session S;
  Kernel K = cantFail(S.compile(apps::gaussianSource(), "gaussian"));
  perf::PerforationPlan Plan;
  Plan.Scheme = perf::PerforationScheme::rows(
      2, perf::ReconstructionKind::NearestNeighbor);
  Variant V = cantFail(S.perforate(K, Plan));
  unsigned In = S.createBufferFrom(Input);
  unsigned Out = S.createBuffer(Input.size());
  cantFail(S.launch(V, {64, 64},
                    {arg::buffer(In), arg::buffer(Out), arg::i32(64),
                     arg::i32(64)}));
  EXPECT_EQ(R.Output, S.buffer(Out).downloadFloats());
}

TEST(ServerTest, ServeErrors) {
  Server Srv(ServerConfig{});
  ASSERT_FALSE(static_cast<bool>(
      Srv.addService(imageService("inversion", apps::inversionSource()))));

  Expected<ServeResult> Unknown = Srv.serve("nope", {});
  ASSERT_FALSE(static_cast<bool>(Unknown));
  EXPECT_NE(Unknown.error().message().find("no service"), std::string::npos);

  Expected<ServeResult> Short = Srv.serve("inversion", {1.0f, 2.0f});
  ASSERT_FALSE(static_cast<bool>(Short));
  EXPECT_NE(Short.error().message().find("expected"), std::string::npos);

  ServiceConfig Bad = imageService("zero", apps::meanSource());
  Bad.Width = 0;
  Error E = Srv.addService(Bad);
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_NE(E.message().find("nonzero"), std::string::npos);

  // The tile is every launch's work group, so it must divide the frame:
  // a 40x40 service at the default 16x16 tile could serve nothing.
  Error Ragged = Srv.addService(imageService("ragged", apps::meanSource(), 40));
  ASSERT_TRUE(static_cast<bool>(Ragged));
  EXPECT_NE(Ragged.message().find("16x16 tile"), std::string::npos);
  EXPECT_NE(Ragged.message().find("40x40 frame"), std::string::npos);

  ServiceConfig ZeroTile = imageService("zerotile", apps::meanSource());
  ZeroTile.Tile = {0, 16};
  Error Z = Srv.addService(ZeroTile);
  ASSERT_TRUE(static_cast<bool>(Z));
  EXPECT_NE(Z.message().find("0x16 tile"), std::string::npos);

  // Only the first registration took: every rejected name serves nothing.
  EXPECT_EQ(Srv.stats().Services, 1u);
  for (const char *Rejected : {"zero", "ragged", "zerotile"}) {
    Expected<ServeResult> R = Srv.serve(Rejected, {});
    ASSERT_FALSE(static_cast<bool>(R)) << Rejected;
    EXPECT_EQ(R.error().message(),
              std::string("no service named '") + Rejected + "'");
  }
}

TEST(ServerTest, NonSquareTileServesEveryRequestChecksIncluded) {
  // Accurate launches use the service tile as their work group: a 96x40
  // frame at a 32x8 tile is not a multiple of 16x16, yet its checks
  // (every second request) must run.
  Server Srv(ServerConfig{});
  ServiceConfig C = imageService("mean", apps::meanSource());
  C.Width = 96;
  C.Height = 40;
  C.Tile = {32, 8};
  C.CheckEvery = 2;
  C.ErrorBudget = 10; // No check trips: every request stays approximate.
  ASSERT_FALSE(static_cast<bool>(Srv.addService(C)));

  for (unsigned I = 0; I < 6; ++I) {
    std::vector<float> Input =
        img::generateImage(img::ImageClass::Natural, 96, 40, 20 + I)
            .pixels();
    Expected<ServeResult> R = Srv.serve("mean", Input);
    ASSERT_TRUE(static_cast<bool>(R)) << "request " << I << ": "
                                      << R.error().message();
    EXPECT_TRUE(R->UsedApproximate) << "request " << I;
    EXPECT_EQ(R->Checked, I % 2 == 1) << "request " << I;
    EXPECT_EQ(R->Output.size(), Input.size());
  }
  ServerStats St = Srv.stats();
  EXPECT_EQ(St.Requests, 6u);
  EXPECT_EQ(St.Checks, 3u);
  EXPECT_EQ(St.ReTunes, 0u);
}

TEST(ServerTest, QualityLoopReTunesAndHotSwaps) {
  // Deterministic quality loop: a test-controlled scorer reports the
  // first check catastrophically over budget (forcing the monitor to
  // fall back) and every later comparison clean. The server must spend
  // one online re-tune, hot-swap the winner, and recover to serving
  // approximate -- not degrade to permanently accurate.
  Server Srv(ServerConfig{});
  ServiceConfig C = imageService("gaussian", apps::gaussianSource());
  C.CheckEvery = 1; // Every request carries a check.
  auto Calls = std::make_shared<unsigned>(0);
  C.Score = [Calls](const std::vector<float> &,
                    const std::vector<float> &) {
    return ++*Calls == 1 ? 1.0 : 0.0;
  };
  ASSERT_FALSE(static_cast<bool>(Srv.addService(C)));

  std::vector<float> Input = frame(img::ImageClass::Pattern, 64, 5);
  ServeResult First = cantFail(Srv.serve("gaussian", Input));
  EXPECT_TRUE(First.Checked);
  EXPECT_FALSE(First.UsedApproximate); // The violating check serves accurate.
  EXPECT_GT(First.MeasuredError, 0.05);
  EXPECT_TRUE(First.ReTuned);
  Srv.waitForReTunes();

  ServeResult Second = cantFail(Srv.serve("gaussian", Input));
  EXPECT_TRUE(Second.UsedApproximate); // Hot-swapped monitor is re-armed.
  EXPECT_FALSE(Second.ReTuned);

  ServerStats St = Srv.stats();
  EXPECT_EQ(St.ReTunes, 1u);
  EXPECT_EQ(St.DegradedServices, 0u);
  EXPECT_EQ(St.Requests, 2u);
  EXPECT_EQ(St.Checks, 2u);
  // The re-tune evaluated its candidate space through the session's
  // variant cache, and the winner's rebuild was a pure cache hit.
  EXPECT_GE(St.Sessions.VariantCacheHits, 1u);
  // Registration compiled the source once (frontend IR plus its launch
  // copy); the re-tune compiled none.
  EXPECT_EQ(St.Sessions.SourceCompiles, 1u);
}

TEST(ServerTest, UnreachableBudgetDegradesToAccurate) {
  // Every comparison reports over budget: the re-tune finds no candidate
  // within budget and the service degrades to permanently accurate.
  // Both accurate responses -- the tripped check's and the degraded
  // service's -- come from the launch copy optimized under the default
  // pipeline, with no private traffic and fewer ALU ops than the
  // compiled kernel itself, yet must match a launch of that kernel byte
  // for byte and in modeled time.
  Server Srv(ServerConfig{});
  ServiceConfig C = imageService("mean", apps::meanSource());
  C.CheckEvery = 1;
  C.Score = [](const std::vector<float> &, const std::vector<float> &) {
    return 1.0;
  };
  ASSERT_FALSE(static_cast<bool>(Srv.addService(C)));

  std::vector<float> Input = frame(img::ImageClass::Smooth, 64, 9);
  ServeResult First = cantFail(Srv.serve("mean", Input));
  EXPECT_TRUE(First.ReTuned);
  EXPECT_FALSE(First.UsedApproximate);
  Srv.waitForReTunes();

  ServeResult Second = cantFail(Srv.serve("mean", Input));
  EXPECT_FALSE(Second.UsedApproximate);
  EXPECT_FALSE(Second.Checked); // Accurate-only: the monitor is bypassed.

  ServerStats St = Srv.stats();
  EXPECT_EQ(St.ReTunes, 1u);
  EXPECT_EQ(St.DegradedServices, 1u);

  Session S;
  Kernel K = cantFail(S.compile(apps::meanSource(), "mean"));
  unsigned In = S.createBufferFrom(Input);
  unsigned Out = S.createBuffer(Input.size());
  sim::SimReport Compiled = cantFail(
      S.launch(Kernel{K.F}, {64, 64}, {16, 16},
               {arg::buffer(In), arg::buffer(Out), arg::i32(64),
                arg::i32(64)}));
  const std::vector<float> Want = S.buffer(Out).downloadFloats();
  for (const ServeResult *R : {&First, &Second}) {
    EXPECT_TRUE(bitIdentical(R->Output, Want));
    EXPECT_EQ(R->Report.TimeMs, Compiled.TimeMs);
    EXPECT_LT(R->Report.Totals.AluOps, Compiled.Totals.AluOps);
    EXPECT_EQ(R->Report.Totals.PrivateAccesses, 0u);
  }
}

TEST(ServerTest, NanScoreReTunesThenDegradesToAccurate) {
  // NaN compares false against any budget, yet a NaN score must trip
  // the monitor; the re-tune finds every candidate infeasible and the
  // service degrades to accurate.
  Server Srv(ServerConfig{});
  ServiceConfig C = imageService("gaussian", apps::gaussianSource());
  C.CheckEvery = 1;
  C.Score = [](const std::vector<float> &, const std::vector<float> &) {
    return std::numeric_limits<double>::quiet_NaN();
  };
  ASSERT_FALSE(static_cast<bool>(Srv.addService(C)));

  std::vector<float> Input = frame(img::ImageClass::Smooth, 64, 4);
  ServeResult First = cantFail(Srv.serve("gaussian", Input));
  EXPECT_TRUE(First.Checked);
  EXPECT_FALSE(First.UsedApproximate);
  EXPECT_TRUE(First.ReTuned);
  Srv.waitForReTunes();

  ServeResult Second = cantFail(Srv.serve("gaussian", Input));
  EXPECT_FALSE(Second.UsedApproximate);
  EXPECT_FALSE(Second.Checked);
  EXPECT_EQ(Second.Output, First.Output);

  ServerStats St = Srv.stats();
  EXPECT_EQ(St.ReTunes, 1u);
  EXPECT_EQ(St.DegradedServices, 1u);
}

TEST(ServerTest, ThirdTripAfterTwoReTunesDegrades) {
  // Every request's check trips (the test thread's scorer reports over
  // budget) and every re-tune succeeds (the worker's reports clean). A
  // service spends two re-tunes; its third trip degrades it to
  // permanently accurate instead of queuing a third.
  Server Srv(ServerConfig{});
  ServiceConfig C = imageService("gaussian", apps::gaussianSource());
  C.CheckEvery = 1;
  const std::thread::id Client = std::this_thread::get_id();
  C.Score = [Client](const std::vector<float> &,
                     const std::vector<float> &) {
    return std::this_thread::get_id() == Client ? 1.0 : 0.0;
  };
  ASSERT_FALSE(static_cast<bool>(Srv.addService(C)));

  std::vector<float> Input = frame(img::ImageClass::Smooth, 64, 12);
  for (unsigned Trip = 1; Trip <= 2; ++Trip) {
    ServeResult R = cantFail(Srv.serve("gaussian", Input));
    EXPECT_TRUE(R.Checked) << "trip " << Trip;
    EXPECT_FALSE(R.UsedApproximate) << "trip " << Trip;
    EXPECT_TRUE(R.ReTuned) << "trip " << Trip;
    Srv.waitForReTunes();
  }

  ServeResult Third = cantFail(Srv.serve("gaussian", Input));
  EXPECT_TRUE(Third.Checked);
  EXPECT_FALSE(Third.UsedApproximate);
  EXPECT_FALSE(Third.ReTuned);
  ServeResult Fourth = cantFail(Srv.serve("gaussian", Input));
  EXPECT_FALSE(Fourth.Checked); // Accurate-only: the monitor is bypassed.
  EXPECT_FALSE(Fourth.UsedApproximate);

  ServerStats St = Srv.stats();
  EXPECT_EQ(St.ReTunes, 2u);
  EXPECT_EQ(St.Checks, 3u);
  EXPECT_EQ(St.DegradedServices, 1u);
}

TEST(ServerTest, ThrowingReTuneScorerDegradesToAccurate) {
  // A scorer that throws on the re-tune worker fails that re-tune like
  // an infeasible space: the service degrades and keeps serving. (On
  // the client thread it trips the first check, then passes.)
  Server Srv(ServerConfig{});
  ServiceConfig C = imageService("gaussian", apps::gaussianSource());
  C.CheckEvery = 1;
  const std::thread::id Client = std::this_thread::get_id();
  auto Calls = std::make_shared<unsigned>(0);
  C.Score = [Client, Calls](const std::vector<float> &,
                            const std::vector<float> &) -> double {
    if (std::this_thread::get_id() != Client)
      throw std::runtime_error("scorer failed");
    return ++*Calls == 1 ? 1.0 : 0.0;
  };
  ASSERT_FALSE(static_cast<bool>(Srv.addService(C)));

  std::vector<float> Input = frame(img::ImageClass::Smooth, 64, 8);
  EXPECT_TRUE(cantFail(Srv.serve("gaussian", Input)).ReTuned);
  Srv.waitForReTunes();
  ServeResult Next = cantFail(Srv.serve("gaussian", Input));
  EXPECT_FALSE(Next.UsedApproximate);
  EXPECT_FALSE(Next.Checked);
  EXPECT_EQ(Srv.stats().DegradedServices, 1u);
}

TEST(ServerTest, TrippingRequestReturnsBeforeItsReTune) {
  // The request whose check trips returns the accurate output its check
  // computed without waiting for the re-tune it queued: the re-tune's
  // scorer calls are held until the next request has been served. While
  // the re-tune is pending the service serves accurate, unchecked, and a
  // new service registers and serves: registration and the re-tune share
  // the session's compile lock, which the held worker does not hold.
  Server Srv(ServerConfig{});
  ServiceConfig C = imageService("gaussian", apps::gaussianSource());
  C.CheckEvery = 1;
  auto Gate = std::make_shared<ScoreGate>();
  auto TestCalls = std::make_shared<unsigned>(0);
  C.Score = [Gate, TestCalls](const std::vector<float> &,
                              const std::vector<float> &) {
    if (!Gate->pass())
      return 0.0; // Re-tune candidates: all within budget.
    return ++*TestCalls == 1 ? 1.0 : 0.0;
  };
  ASSERT_FALSE(static_cast<bool>(Srv.addService(C)));

  std::vector<float> Input = frame(img::ImageClass::Pattern, 64, 5);
  ServeResult First = cantFail(Srv.serve("gaussian", Input));
  EXPECT_TRUE(First.Checked);
  EXPECT_FALSE(First.UsedApproximate);
  EXPECT_TRUE(First.ReTuned);

  Session S;
  Kernel K = cantFail(S.compile(apps::gaussianSource(), "gaussian"));
  unsigned In = S.createBufferFrom(Input);
  unsigned Out = S.createBuffer(Input.size());
  cantFail(S.launch(K, {64, 64}, {16, 16},
                    {arg::buffer(In), arg::buffer(Out), arg::i32(64),
                     arg::i32(64)}));
  EXPECT_EQ(First.Output, S.buffer(Out).downloadFloats());

  ServeResult Pending = cantFail(Srv.serve("gaussian", Input));
  EXPECT_FALSE(Pending.UsedApproximate);
  EXPECT_FALSE(Pending.Checked);
  EXPECT_FALSE(Pending.ReTuned);
  EXPECT_EQ(Pending.Output, First.Output);
  EXPECT_EQ(*TestCalls, 1u); // The pending request ran no check.

  ASSERT_TRUE(Gate->awaitHeld()); // The worker is in its scorer.
  ASSERT_FALSE(static_cast<bool>(
      Srv.addService(imageService("mean", apps::meanSource()))));
  EXPECT_TRUE(cantFail(Srv.serve("mean", Input)).UsedApproximate);

  Gate->open();
  Srv.waitForReTunes();
  ServeResult After = cantFail(Srv.serve("gaussian", Input));
  EXPECT_TRUE(After.UsedApproximate);
  EXPECT_TRUE(After.Checked);
  EXPECT_FALSE(After.ReTuned);

  ServerStats St = Srv.stats();
  EXPECT_EQ(St.ReTunes, 1u);
  EXPECT_EQ(St.DegradedServices, 0u);
  EXPECT_EQ(St.Requests, 4u);
  EXPECT_EQ(St.Checks, 2u);
}

TEST(ServerTest, ShutdownWithReTuneRunningAndQueued) {
  // Destroying the server lets the running re-tune finish, drops the
  // queued one and joins the worker, which holds Service pointers and a
  // copied frame per job. The sanitizer jobs run this for lifetime and
  // data-race errors.
  auto Srv = std::make_unique<Server>(ServerConfig{});
  auto Gate = std::make_shared<ScoreGate>();
  for (const auto &D : {std::make_pair("gaussian", apps::gaussianSource()),
                        std::make_pair("sharpen", apps::sharpenSource())}) {
    ServiceConfig C = imageService(D.first, D.second);
    C.CheckEvery = 1;
    C.Score = [Gate](const std::vector<float> &,
                     const std::vector<float> &) {
      return Gate->pass() ? 1.0 : 0.0; // Requests always trip.
    };
    ASSERT_FALSE(static_cast<bool>(Srv->addService(C)));
  }

  std::vector<float> Input = frame(img::ImageClass::Smooth, 64, 6);
  EXPECT_TRUE(cantFail(Srv->serve("gaussian", Input)).ReTuned);
  ASSERT_TRUE(Gate->awaitHeld()); // gaussian's re-tune is running...
  EXPECT_TRUE(cantFail(Srv->serve("sharpen", Input)).ReTuned); // ...queued.
  EXPECT_EQ(Srv->stats().ReTunes, 2u);

  std::thread Destroy([&Srv] { Srv.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Gate->open();
  Destroy.join();
  EXPECT_EQ(Srv, nullptr);
}

TEST(ServerTest, ResponseNeverCarriesPreviousFramePixels) {
  // A kernel that leaves pixels unwritten must return zeros there, not
  // the previous request's output: each request gets fresh buffers.
  const char *ThresholdSource = R"(
kernel void threshold(global const float* in, global float* out, int w,
                      int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  float v = in[y * w + x];
  if (v > 0.5) {
    out[y * w + x] = v;
  }
}
)";
  Server Srv(ServerConfig{});
  ASSERT_FALSE(static_cast<bool>(
      Srv.addService(imageService("threshold", ThresholdSource))));
  const std::vector<float> Bright(64 * 64, 0.9f);
  const std::vector<float> Dark(64 * 64, 0.1f);
  EXPECT_EQ(cantFail(Srv.serve("threshold", Bright)).Output, Bright);
  EXPECT_EQ(cantFail(Srv.serve("threshold", Dark)).Output,
            std::vector<float>(64 * 64, 0.0f));
}

TEST(ServerTest, LintGateRejectionServesAccurateOnly) {
  // A kernel whose perforated form fails the static gate still registers
  // -- as an accurate-only service -- and keeps serving correct frames.
  // The proven division by zero hides behind a branch that never runs at
  // h > 0, so the accurate kernel executes cleanly; the gate rejects the
  // instruction statically all the same.
  const char *GatedSource = R"(
kernel void gated(global const float* in, global float* out, int w, int h) {
  int x = get_global_id(0);
  int y = get_global_id(1);
  if (h < 0) {
    int z = 0;
    out[x / z] = 0.0;
  }
  out[y * w + x] = in[y * w + x];
}
)";
  ServerConfig SC;
  SC.LintGate = true;
  Server Srv(SC);
  ASSERT_FALSE(static_cast<bool>(Srv.addService(imageService("gated",
                                                             GatedSource))));
  // A well-behaved kernel passes the gate and serves approximate.
  ASSERT_FALSE(static_cast<bool>(
      Srv.addService(imageService("inversion", apps::inversionSource()))));

  std::vector<float> Input = frame(img::ImageClass::Smooth, 64, 2);
  ServeResult R = cantFail(Srv.serve("gated", Input));
  EXPECT_FALSE(R.UsedApproximate);
  EXPECT_EQ(R.Output, Input); // The live path is an identity copy.
  EXPECT_TRUE(cantFail(Srv.serve("inversion", Input)).UsedApproximate);

  ServerStats St = Srv.stats();
  EXPECT_EQ(St.DegradedServices, 1u);
  EXPECT_EQ(St.Sessions.LintRejections, 1u);
}

TEST(ServerTest, DiskCacheWarmRestartCompilesNothing) {
  // The acceptance criterion: a cold-restarted server over a warm disk
  // cache reports zero variant compiles for the same service set, and
  // serves byte-identical frames.
  std::string Dir = ::testing::TempDir() + "kperf_server_diskcache";
  std::filesystem::remove_all(Dir);
  ServerConfig SC;
  SC.DiskCacheDir = Dir;

  std::vector<std::pair<const char *, const char *>> Defs = {
      {"gaussian", apps::gaussianSource()},
      {"inversion", apps::inversionSource()},
      {"sobel3", apps::sobel3Source()}};
  std::vector<float> Input = frame(img::ImageClass::Natural, 64, 7);

  std::vector<std::vector<float>> ColdOutputs;
  {
    Server Cold(SC);
    for (const auto &D : Defs)
      ASSERT_FALSE(static_cast<bool>(
          Cold.addService(imageService(D.first, D.second))));
    for (const auto &D : Defs)
      ColdOutputs.push_back(cantFail(Cold.serve(D.first, Input)).Output);
    EXPECT_EQ(Cold.diskCacheError(), "");
    ServerStats St = Cold.stats();
    EXPECT_EQ(St.Sessions.VariantCompiles, 3u);
    EXPECT_EQ(St.Sessions.DiskVariantStores, 3u);
    EXPECT_EQ(St.Sessions.DiskVariantHits, 0u);
  }

  Server Warm(SC);
  for (const auto &D : Defs)
    ASSERT_FALSE(static_cast<bool>(
        Warm.addService(imageService(D.first, D.second))));
  ServerStats St = Warm.stats();
  EXPECT_EQ(St.Sessions.VariantCompiles, 0u);
  EXPECT_EQ(St.Sessions.DiskVariantHits, 3u);
  for (size_t I = 0; I < Defs.size(); ++I)
    EXPECT_EQ(cantFail(Warm.serve(Defs[I].first, Input)).Output,
              ColdOutputs[I])
        << Defs[I].first;
}

TEST(ServerTest, UncreatableCacheDirServesWithoutIt) {
  // Fault injection: a cache directory under a missing parent cannot be
  // created. The server used to abort in its constructor; it must come
  // up without the disk cache, say why, and serve every request.
  const std::string Missing = ::testing::TempDir() + "kperf_no_parent";
  std::filesystem::remove_all(Missing);
  ServerConfig SC;
  SC.DiskCacheDir = Missing + "/a/b";
  Server Srv(SC);
  EXPECT_NE(Srv.diskCacheError().find("cannot create directory"),
            std::string::npos)
      << Srv.diskCacheError();
  ASSERT_FALSE(static_cast<bool>(
      Srv.addService(imageService("gaussian", apps::gaussianSource()))));
  std::vector<float> Input = frame(img::ImageClass::Natural, 64, 3);
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(cantFail(Srv.serve("gaussian", Input)).Output.size(),
              Input.size());
  ServerStats St = Srv.stats();
  EXPECT_EQ(St.Requests, 3u);
  EXPECT_EQ(St.Sessions.VariantCompiles, 1u);
  EXPECT_EQ(St.Sessions.DiskVariantStores, 0u);
  EXPECT_FALSE(std::filesystem::exists(Missing));
}

TEST(ServerTest, ConcurrentClientsAcrossServices) {
  // Clients hammering different services proceed concurrently (distinct
  // service locks, the session synchronized internally) and each
  // stream sees exactly the single-threaded outputs.
  Server Srv(ServerConfig{});
  std::vector<std::pair<const char *, const char *>> Defs = {
      {"gaussian", apps::gaussianSource()},
      {"inversion", apps::inversionSource()},
      {"sobel3", apps::sobel3Source()},
      {"sharpen", apps::sharpenSource()}};
  for (const auto &D : Defs)
    ASSERT_FALSE(
        static_cast<bool>(Srv.addService(imageService(D.first, D.second))));

  // Single-threaded reference outputs, from an identical fresh server.
  Server Ref(ServerConfig{});
  for (const auto &D : Defs)
    ASSERT_FALSE(
        static_cast<bool>(Ref.addService(imageService(D.first, D.second))));
  std::vector<float> Input = frame(img::ImageClass::Smooth, 64, 13);
  std::vector<std::vector<float>> Want;
  for (const auto &D : Defs)
    Want.push_back(cantFail(Ref.serve(D.first, Input)).Output);

  std::atomic<unsigned> Mismatches{0};
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < Defs.size(); ++T)
    Threads.emplace_back([&, T]() {
      for (unsigned I = 0; I < 6; ++I) {
        Expected<ServeResult> R = Srv.serve(Defs[T].first, Input);
        if (!R || R->Output != Want[T])
          ++Mismatches;
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Mismatches.load(), 0u);
  EXPECT_EQ(Srv.stats().Requests, 24u);
}

TEST(ServerTest, ConcurrentClientsOnOneService) {
  // Four clients share one service. No service lock spans a launch, so
  // their requests overlap in one monitor; every output must still equal
  // a single-threaded server's for the same frame, and the check cadence
  // stays exact.
  auto Config = [] {
    ServiceConfig C = imageService("gaussian", apps::gaussianSource());
    C.CheckEvery = 4;
    C.ErrorBudget = 0.5; // No check trips on smooth frames.
    return C;
  };
  Server Srv(ServerConfig{});
  ASSERT_FALSE(static_cast<bool>(Srv.addService(Config())));
  Server Ref(ServerConfig{});
  ASSERT_FALSE(static_cast<bool>(Ref.addService(Config())));

  std::vector<std::vector<float>> Frames;
  std::vector<std::vector<float>> Want;
  for (unsigned I = 0; I < 32; ++I) {
    Frames.push_back(frame(img::ImageClass::Smooth, 64, 100 + I));
    Want.push_back(cantFail(Ref.serve("gaussian", Frames.back())).Output);
  }
  ASSERT_EQ(Ref.stats().ReTunes, 0u); // Every reference is approximate.

  std::atomic<unsigned> Mismatches{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 4; ++T)
    Threads.emplace_back([&, T]() {
      for (unsigned I = T * 8; I < T * 8 + 8; ++I) {
        Expected<ServeResult> R = Srv.serve("gaussian", Frames[I]);
        if (!R || !R->UsedApproximate || R->Output != Want[I])
          ++Mismatches;
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Mismatches.load(), 0u);
  ServerStats St = Srv.stats();
  EXPECT_EQ(St.Requests, 32u);
  EXPECT_EQ(St.Checks, 8u);
  EXPECT_EQ(St.ReTunes, 0u);
}

} // namespace
