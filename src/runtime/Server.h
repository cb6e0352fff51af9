//===- runtime/Server.h - Multi-tenant perforation server --------*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Long-lived serving layer over rt::Session: the "perforation as a
/// service" end-game of the paper -- compile once, serve many approximate
/// launches behind a quality guarantee, re-tune online when observed
/// error drifts past the budget.
///
/// A Server owns one rt::Session, and every service compiles and
/// launches in it. Requests never take the session's compile lock: a
/// launch runs lock-free, and on the batched tier a kernel's first launch
/// compiles its bytecode under the session's separate bytecode lock. The
/// only source and variant compiles are addService()'s and the re-tune
/// worker's candidates, and the session's one compile lock serializes
/// them; a key compiles exactly once.
///
/// Each registered service wraps one standard-signature image kernel
/// (global const float* in, global float* out, int w, int h) with a fixed
/// frame shape, an initial perforation scheme, and an error budget. The
/// service compiles its source once. The compiled kernel (Kernel::F,
/// promoted IR) is the only input of the perforating transforms (so every
/// variant and cache key is that of it); every accurate launch -- check
/// references, accurate-only and re-tune-pending requests -- runs the
/// session's launch copy of it, optimized under the library default
/// pipeline (see Session.h). The default pipeline holds only exact
/// passes, so both produce the same bytes and the same modeled time; the
/// optimized copy just simulates faster.
///
/// serve() launches the current variant through a rt::QualityMonitor;
/// when the request's own check trips the monitor (measured error past
/// budget), the request returns the accurate output at once and the
/// service turns re-tune pending: it serves the accurate kernel,
/// unchecked, while the server's one background worker runs an online
/// perf::tuneExhaustive re-tune over a candidate scheme space, using the
/// offending request's input as the tuning workload and its check's
/// accurate output and time as the reference. The worker then hot-swaps
/// the winning variant into the monitor (QualityMonitor::rearm). Only
/// when no candidate fits the budget does the service degrade to
/// permanently accurate.
///
/// Thread-safety: every public method may be called from any client
/// thread. A request waits only for its own launches: it checks its
/// frame buffers out of the session, and the service lock guards only
/// the service's mode flags, so requests to one service run concurrently
/// just as requests to different services do. They share the monitor
/// (internally synchronized) and the session (whose compile caches are
/// internally synchronized and whose launches run lock-free).
///
/// Lock order: registry lock -> service lock -> monitor lock; the service
/// lock is never held across a launch or a re-tune, and the re-tune
/// queue's lock is never held together with any other. See
/// docs/ARCHITECTURE.md ("Serving").
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_RUNTIME_SERVER_H
#define KPERF_RUNTIME_SERVER_H

#include "perforation/Scheme.h"
#include "runtime/Quality.h"
#include "runtime/Session.h"

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace kperf {
namespace rt {

/// Server-wide configuration, fixed at construction.
struct ServerConfig {
  /// Root of the content-addressed on-disk variant cache ("" = off).
  /// Warm restarts then skip recompilation entirely. A directory that
  /// cannot be created leaves the cache off; see Server::diskCacheError().
  std::string DiskCacheDir;
  /// Run every generated kernel through the static lint gate.
  bool LintGate = false;
};

/// One quality-managed kernel service. The kernel must have the standard
/// image signature (global const float* in, global float* out, int w,
/// int h) and is served at a fixed frame shape.
struct ServiceConfig {
  std::string Name;   ///< Service name ("" = kernel name).
  std::string Source; ///< PCL source text.
  std::string Kernel; ///< Kernel function name within Source.
  unsigned Width = 0; ///< Served frame shape (required, nonzero).
  unsigned Height = 0;
  /// Initial perforation scheme; the online re-tune may replace it later.
  perf::PerforationScheme Scheme;
  /// Perforation tile, and the work group of every accurate launch. It
  /// must be nonzero and divide the frame shape.
  sim::Range2 Tile{16, 16};
  double ErrorBudget = 0.05;
  unsigned CheckEvery = 8;
  /// Output scorer (defaults to img::meanRelativeError). Called from
  /// request threads and from the re-tune worker, possibly at once.
  ScoreFn Score;
};

/// Outcome of one serve() call.
struct ServeResult {
  std::vector<float> Output;
  sim::SimReport Report;
  bool UsedApproximate = false;
  bool Checked = false; ///< This request included a quality check.
  double MeasuredError = 0;
  /// This request's check tripped the monitor and queued an online
  /// re-tune; the request itself carries the accurate output.
  bool ReTuned = false;
};

/// Serving counters. Sessions is the session's own stats() (snapshot
/// semantics, see SessionStats).
struct ServerStats {
  SessionStats Sessions;
  unsigned Requests = 0;
  unsigned Checks = 0;
  unsigned ReTunes = 0; ///< Re-tunes queued (pending ones included).
  /// Services currently degraded to permanently accurate.
  unsigned DegradedServices = 0;
  unsigned Services = 0;

  /// One report line.
  std::string str() const;
};

/// Multi-tenant perforation server; see the file comment.
class Server {
public:
  explicit Server(const ServerConfig &Config = ServerConfig());
  /// Lets a running re-tune finish, drops queued ones, and joins the
  /// re-tune worker.
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Why the configured disk cache is off, e.g. "disk cache: cannot
  /// create directory '...'"; "" when it is on or none was configured.
  /// The server serves without it either way.
  const std::string &diskCacheError() const { return DiskCacheError; }

  /// Registers a service: compiles the kernel (promoted IR plus its
  /// optimized launch copy, one source compile), builds the initial
  /// perforated variant, and arms the quality monitor. Fails if
  /// the name is taken, the shape or tile is zero, the tile does not
  /// divide the shape, or compilation/perforation fails (a lint-gate
  /// rejection arms the service in accurate-only mode instead of failing
  /// registration).
  Error addService(const ServiceConfig &C);

  /// Serves one frame: \p Input must hold Width*Height samples. Returns
  /// the filtered frame plus what ran (approximate or accurate), whether
  /// this request carried a quality check, and whether it queued an
  /// online re-tune. Never waits for a re-tune.
  Expected<ServeResult> serve(const std::string &Service,
                              const std::vector<float> &Input);

  /// Blocks until no re-tune is queued or running, e.g. before reading
  /// final stats. Re-tunes that requests queue meanwhile are waited for
  /// too.
  void waitForReTunes();

  ServerStats stats() const;

private:
  struct Service;

  /// Builds the perforated variant of \p Svc for \p Scheme from its
  /// compiled kernel through the session (cached by VariantKey,
  /// so re-tunes that pick a previously built scheme hit the cache).
  /// \p LoopStride > 1 splices perforate-loop(stride) into the default
  /// cleanup pipeline (perf::jointPipelineSpec); the spec is part of the
  /// VariantKey, so strided variants cache under distinct keys.
  Expected<Variant> buildVariant(Service &Svc,
                                 const perf::PerforationScheme &Scheme,
                                 unsigned LoopStride = 1);

  /// A queued re-tune: the service, a copy of the offending frame, and
  /// the accurate output and modeled time its tripped check measured.
  struct ReTuneJob {
    Service *Svc = nullptr;
    std::vector<float> Input;
    std::vector<float> Reference;
    double AccurateMs = 0;
  };

  /// Online re-tune of \p Job's service using its input as the workload
  /// and its reference as the accurate output. Returns the fastest
  /// variant within budget, or nothing. Runs on the re-tune worker
  /// without the service lock.
  std::optional<Variant> retune(const ReTuneJob &Job);

  /// Queues \p Job, starting the worker on first use.
  void queueReTune(ReTuneJob Job);

  /// The re-tune worker's loop: runs queued re-tunes in FIFO order and
  /// applies each result under the service lock.
  void reTuneLoop();

  Session S;
  std::string DiskCacheError;

  /// Guards the service registry (not the per-service state).
  mutable std::mutex ServicesMutex;
  std::map<std::string, std::unique_ptr<Service>> ServiceMap;

  std::atomic<unsigned> Requests{0};
  std::atomic<unsigned> Checks{0};
  std::atomic<unsigned> ReTunes{0};

  /// Guards the re-tune queue and the worker's state; signalled when a
  /// job is queued, when the worker goes idle, and at shutdown.
  std::mutex ReTuneMutex;
  std::condition_variable ReTuneCV;
  std::deque<ReTuneJob> ReTuneQueue;
  bool ReTuneRunning = false;
  bool StopReTunes = false;
  /// Started on the first re-tune; declared after everything it uses.
  std::thread ReTuneWorker;
};

} // namespace rt
} // namespace kperf

#endif // KPERF_RUNTIME_SERVER_H
