//===- runtime/Server.cpp ---------------------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "runtime/Server.h"

#include "img/Metrics.h"
#include "perforation/Tuner.h"
#include "support/StringUtils.h"

using namespace kperf;
using namespace kperf::rt;

//===--- Internal state ------------------------------------------------------//

namespace {

/// Re-tunes a service may spend; its next trip degrades it to
/// permanently accurate.
constexpr unsigned MaxReTunesPerService = 2;

} // namespace

struct Server::Service {
  ServiceConfig C;
  /// The compiled kernel: its promoted IR is the only input of the
  /// perforating transforms, and launching it -- every accurate launch --
  /// runs the session's copy optimized under the default pipeline.
  Kernel K;
  /// Internally synchronized; null when the service registered
  /// accurate-only.
  std::unique_ptr<QualityMonitor> Mon;

  /// Guards the mode flags below. Never held across a launch or a
  /// re-tune: requests to this service run concurrently.
  std::mutex Mu;
  /// Degraded: the budget proved unreachable (or the lint gate rejected
  /// every perforation); serve accurate-only from now on.
  bool AccurateOnly = false;
  /// A re-tune is queued or running: serve accurate, unchecked, and
  /// queue no second one.
  bool ReTunePending = false;
  unsigned ReTunesLeft = MaxReTunesPerService;
};

//===--- ServerStats ---------------------------------------------------------//

namespace {

/// One frame's input and output buffers, checked out of a session for
/// the lifetime of a request or an evaluation and released on every
/// path out of it.
struct FrameBuffers {
  Session &S;
  const unsigned In;
  const unsigned Out;

  FrameBuffers(Session &S, const std::vector<float> &Input)
      : S(S), In(S.createBufferFrom(Input)),
        Out(S.createBuffer(Input.size())) {}
  ~FrameBuffers() {
    S.releaseBuffer(In);
    S.releaseBuffer(Out);
  }
  FrameBuffers(const FrameBuffers &) = delete;
  FrameBuffers &operator=(const FrameBuffers &) = delete;

  /// The standard image-kernel arguments (in, out, w, h) of \p C.
  std::vector<sim::KernelArg> args(const ServiceConfig &C) const {
    return {arg::buffer(In), arg::buffer(Out),
            arg::i32(static_cast<int32_t>(C.Width)),
            arg::i32(static_cast<int32_t>(C.Height))};
  }
};

} // namespace

std::string ServerStats::str() const {
  return format("requests: %u; checks: %u; re-tunes: %u; degraded: %u; "
                "services: %u; sessions: %s",
                Requests, Checks, ReTunes, DegradedServices, Services,
                Sessions.str().c_str());
}

//===--- Server --------------------------------------------------------------//

Server::Server(const ServerConfig &Config) {
  S.setLintGate(Config.LintGate);
  // An unusable cache directory costs warm restarts, not service: come
  // up without the disk cache and keep the reason.
  if (Error E = S.setDiskCache(Config.DiskCacheDir))
    DiskCacheError = E.message();
}

Server::~Server() {
  {
    std::lock_guard<std::mutex> Lock(ReTuneMutex);
    StopReTunes = true;
    ReTuneQueue.clear();
  }
  ReTuneCV.notify_all();
  if (ReTuneWorker.joinable())
    ReTuneWorker.join();
}

Expected<Variant>
Server::buildVariant(Service &Svc, const perf::PerforationScheme &Scheme,
                     unsigned LoopStride) {
  perf::PerforationPlan Plan;
  Plan.Scheme = Scheme;
  Plan.TileX = Svc.C.Tile.X;
  Plan.TileY = Svc.C.Tile.Y;
  Plan.PipelineSpec =
      perf::jointPipelineSpec(Plan.PipelineSpec, LoopStride);
  return S.perforate(Svc.K, Plan);
}

Error Server::addService(const ServiceConfig &C) {
  ServiceConfig Cfg = C;
  if (Cfg.Name.empty())
    Cfg.Name = Cfg.Kernel;
  if (Cfg.Width == 0 || Cfg.Height == 0)
    return makeError("service '%s': frame shape must be nonzero",
                     Cfg.Name.c_str());
  // The tile is the work group of every launch, accurate ones included.
  if (Cfg.Tile.X == 0 || Cfg.Tile.Y == 0 || Cfg.Width % Cfg.Tile.X != 0 ||
      Cfg.Height % Cfg.Tile.Y != 0)
    return makeError("service '%s': the %ux%u tile must be nonzero and "
                     "divide the %ux%u frame",
                     Cfg.Name.c_str(), Cfg.Tile.X, Cfg.Tile.Y, Cfg.Width,
                     Cfg.Height);
  if (!Cfg.Score)
    Cfg.Score = [](const std::vector<float> &R,
                   const std::vector<float> &T) {
      return img::meanRelativeError(R, T);
    };
  {
    std::lock_guard<std::mutex> Lock(ServicesMutex);
    if (ServiceMap.count(Cfg.Name))
      return makeError("service '%s' already registered",
                       Cfg.Name.c_str());
  }

  auto Svc = std::make_unique<Service>();
  Svc->C = Cfg;
  Expected<Kernel> K = S.compile(Cfg.Source, Cfg.Kernel);
  if (!K)
    return Error(K.error());
  Svc->K = *K;

  Expected<Variant> V = buildVariant(*Svc, Cfg.Scheme);
  if (!V) {
    // A lint-gate rejection is not a registration failure: the service
    // comes up accurate-only (and a later re-tune never happens, since
    // there is nothing to monitor).
    if (V.error().message().find("lint gate:") == std::string::npos)
      return Error(V.error());
    Svc->AccurateOnly = true;
  } else {
    Svc->Mon = std::make_unique<QualityMonitor>(
        S, Svc->K, *V, sim::Range2{Cfg.Width, Cfg.Height}, Cfg.Tile,
        Cfg.ErrorBudget, Cfg.CheckEvery);
  }

  std::lock_guard<std::mutex> Lock(ServicesMutex);
  if (ServiceMap.count(Cfg.Name))
    return makeError("service '%s' already registered", Cfg.Name.c_str());
  ServiceMap.emplace(Cfg.Name, std::move(Svc));
  return Error::success();
}

std::optional<Variant> Server::retune(const ReTuneJob &Job) {
  Service &Svc = *Job.Svc;
  const sim::Range2 Global{Svc.C.Width, Svc.C.Height};

  // Candidate space: the scheme families at the service tile crossed
  // with loop-perforation strides {1, 2}, mildest first. The current
  // (failing) scheme may reappear; its error on this very input just
  // measured past budget, so the filter drops it again.
  using perf::PerforationScheme;
  using perf::ReconstructionKind;
  std::vector<perf::TunerConfig> Space;
  for (PerforationScheme Scheme :
       {PerforationScheme::rows(2, ReconstructionKind::Linear),
        PerforationScheme::rows(2, ReconstructionKind::NearestNeighbor),
        PerforationScheme::cols(2, ReconstructionKind::Linear),
        PerforationScheme::stencil(),
        PerforationScheme::rows(4, ReconstructionKind::Linear)})
    for (unsigned Stride : {1u, 2u})
      Space.push_back(perf::TunerConfig{Scheme, Svc.C.Tile.X,
                                        Svc.C.Tile.Y, Stride});

  perf::EvaluateFn Evaluate =
      [&](const perf::TunerConfig &TC) -> Expected<perf::Measurement> {
    Expected<Variant> V = buildVariant(Svc, TC.Scheme, TC.LoopStride);
    if (!V)
      return V.takeError();
    FrameBuffers Eval(S, Job.Input);
    Expected<sim::SimReport> R = S.launch(*V, Global, Eval.args(Svc.C));
    if (!R)
      return R.takeError();
    perf::Measurement M;
    M.Error =
        Svc.C.Score(Job.Reference, S.buffer(Eval.Out).downloadFloats());
    M.Speedup = R->TimeMs > 0 ? Job.AccurateMs / R->TimeMs : 0;
    M.PassStats = V->PassStats;
    return M;
  };

  std::vector<perf::TunerResult> Results =
      perf::tuneExhaustive(Space, Evaluate);
  size_t Best = perf::bestWithinErrorBudget(Results, Svc.C.ErrorBudget);
  if (Best == ~size_t(0))
    return std::nullopt;

  // The winner was already compiled (and cached) during the evaluation,
  // so this hits the session's variant cache.
  Expected<Variant> Winner = buildVariant(
      Svc, Results[Best].Config.Scheme, Results[Best].Config.LoopStride);
  if (!Winner)
    return std::nullopt;
  return Winner.takeValue();
}

void Server::queueReTune(ReTuneJob Job) {
  std::lock_guard<std::mutex> Lock(ReTuneMutex);
  ReTuneQueue.push_back(std::move(Job));
  if (!ReTuneWorker.joinable())
    ReTuneWorker = std::thread([this] { reTuneLoop(); });
  ReTuneCV.notify_all();
}

void Server::reTuneLoop() {
  std::unique_lock<std::mutex> Lock(ReTuneMutex);
  for (;;) {
    ReTuneCV.wait(Lock,
                  [this] { return StopReTunes || !ReTuneQueue.empty(); });
    if (StopReTunes)
      return;
    ReTuneJob Job = std::move(ReTuneQueue.front());
    ReTuneQueue.pop_front();
    ReTuneRunning = true;
    Lock.unlock();

    std::optional<Variant> Winner;
    try {
      Winner = retune(Job);
    } catch (...) {
      // A throwing scorer fails the re-tune like an infeasible space
      // does: the service degrades to accurate below.
      Winner.reset();
    }
    {
      // Hot-swap the winner, or give up on approximating.
      std::lock_guard<std::mutex> SvcLock(Job.Svc->Mu);
      if (Winner)
        Job.Svc->Mon->rearm(*Winner);
      else
        Job.Svc->AccurateOnly = true;
      Job.Svc->ReTunePending = false;
    }

    Lock.lock();
    ReTuneRunning = false;
    ReTuneCV.notify_all();
  }
}

void Server::waitForReTunes() {
  std::unique_lock<std::mutex> Lock(ReTuneMutex);
  ReTuneCV.wait(Lock,
                [this] { return ReTuneQueue.empty() && !ReTuneRunning; });
}

Expected<ServeResult> Server::serve(const std::string &ServiceName,
                                    const std::vector<float> &Input) {
  Service *Svc = nullptr;
  {
    std::lock_guard<std::mutex> Lock(ServicesMutex);
    auto It = ServiceMap.find(ServiceName);
    if (It == ServiceMap.end())
      return makeError("no service named '%s'", ServiceName.c_str());
    Svc = It->second.get();
  }
  ++Requests;

  const size_t N = size_t(Svc->C.Width) * Svc->C.Height;
  if (Input.size() != N)
    return makeError("service '%s': expected %zu samples, got %zu",
                     Svc->C.Name.c_str(), N, Input.size());
  bool Accurately = false;
  {
    std::lock_guard<std::mutex> Lock(Svc->Mu);
    Accurately = Svc->AccurateOnly || Svc->ReTunePending;
  }
  FrameBuffers Frame(S, Input);
  const std::vector<sim::KernelArg> Args = Frame.args(Svc->C);
  const sim::Range2 Global{Svc->C.Width, Svc->C.Height};

  ServeResult Result;
  bool Queue = false;
  if (Accurately) {
    Expected<sim::SimReport> R =
        S.launch(Svc->K, Global, Svc->C.Tile, Args);
    if (!R)
      return R.takeError();
    Result.Report = *R;
  } else {
    Expected<MonitoredLaunch> L =
        Svc->Mon->launch(Args, Frame.Out, Svc->C.Score);
    if (!L)
      return L.takeError();
    Result.Report = L->Report;
    Result.UsedApproximate = L->UsedApproximate;
    Result.Checked = L->Checked;
    Result.MeasuredError = L->MeasuredError;
    if (L->Checked)
      ++Checks;
    // A checked launch that served accurate is a tripped check. Instead
    // of falling back forever, queue an online re-tune on the offending
    // input -- unless another request's trip already queued one, a
    // re-tune has since replaced the variant this check measured
    // (the monitor is re-armed), or the service spent its re-tunes.
    if (L->Checked && !L->UsedApproximate) {
      std::lock_guard<std::mutex> Lock(Svc->Mu);
      if (!Svc->ReTunePending && !Svc->AccurateOnly &&
          Svc->Mon->fellBack()) {
        if (Svc->ReTunesLeft > 0) {
          --Svc->ReTunesLeft;
          Svc->ReTunePending = Queue = true;
        } else {
          Svc->AccurateOnly = true;
        }
      }
    }
  }
  Result.Output = S.buffer(Frame.Out).downloadFloats();
  if (Queue) {
    // The tripped check already measured the accurate output and time on
    // this input: they are the re-tune's reference.
    ++ReTunes;
    Result.ReTuned = true;
    queueReTune(ReTuneJob{Svc, Input, Result.Output, Result.Report.TimeMs});
  }
  return Result;
}

ServerStats Server::stats() const {
  ServerStats St;
  St.Sessions = S.stats();
  St.Requests = Requests.load();
  St.Checks = Checks.load();
  St.ReTunes = ReTunes.load();
  std::lock_guard<std::mutex> Lock(ServicesMutex);
  St.Services = static_cast<unsigned>(ServiceMap.size());
  for (const auto &Entry : ServiceMap) {
    std::lock_guard<std::mutex> SvcLock(Entry.second->Mu);
    if (Entry.second->AccurateOnly)
      ++St.DegradedServices;
  }
  return St;
}
