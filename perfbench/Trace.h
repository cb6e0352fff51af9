//===- perfbench/Trace.h - In-memory span recorder --------------*- C++ -*-===//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Span recorder of the benchmark's traced runs. The benchmark opens one
/// span around each call it makes into a library layer; spans nest per
/// thread (the innermost open span on the calling thread is the parent,
/// unless the caller names a parent opened on another thread), stay in
/// memory while the workload runs, and are written out at exit
/// as Chrome trace-event JSON (opens in Perfetto or chrome://tracing).
///
/// A disabled recorder does nothing: untraced runs pay one branch per
/// span, so their end-to-end numbers are the ones the benchmark reports.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded call into a layer.
struct Span {
  std::string Name;   ///< "<layer>.<call>", e.g. "gpusim.launch".
  std::string Detail; ///< Request class, service or configuration.
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int Parent = -1;   ///< Index of the enclosing span, -1 at top level.
  long long Id = -1; ///< Request or configuration id (-1 = none).
  unsigned Tid = 0;  ///< Small per-thread id.

  double ms() const { return static_cast<double>(EndNs - StartNs) / 1e6; }
};

/// Per-name aggregate over the recorded spans.
struct SpanStats {
  unsigned Count = 0;
  double TotalMs = 0;
  /// Duration minus the time covered by child spans (concurrent children
  /// count once).
  double SelfMs = 0;
  std::vector<double> DurationsMs;
};

class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Opens a span on the calling thread; returns its index (-1 when
  /// disabled). \p Parent names the enclosing span when it was opened on
  /// another thread (-1 = the innermost open span of this thread).
  int begin(const char *Name, long long Id = -1, std::string Detail = "",
            int Parent = -1);
  /// Closes span \p Index (a no-op for -1).
  void end(int Index);
  /// Replaces the detail of span \p Index (e.g. once a request's class is
  /// known).
  void setDetail(int Index, std::string Detail);

  size_t size() const;

  /// Aggregates the spans by name.
  std::map<std::string, SpanStats> aggregate() const;

  /// Writes every span as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps). Returns false on an I/O error.
  bool writeChromeJson(const std::string &Path) const;

private:
  bool Enabled;
  mutable std::mutex Mu;
  std::vector<Span> Spans;
};

/// RAII span.
class Scope {
public:
  Scope(Tracer &T, const char *Name, long long Id = -1,
        std::string Detail = "")
      : T(T), Index(T.begin(Name, Id, std::move(Detail))) {}
  ~Scope() { T.end(Index); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  int Index;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
