//===- runtime/Session.h - Host-side runtime session --------------*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// OpenCL-host-like API over the compiler and simulator: a Session owns
/// one module, one simulated device, one buffer set, and the cached
/// analyses shared by all transforms -- the workflow of Fig. 1b, plus the
/// compiled-variant cache the paper's "library that automatically applies
/// and tunes the technique" needs to make tuning sweeps cheap.
///
/// Every transformed kernel is handed out as a single rt::Variant: kind,
/// launch constraints (required local shape or NDRange divisors), an
/// optional chained second pass, and the cleanup-pipeline statistics.
/// One launch(Variant, ...) entry point subsumes the accurate, perforated,
/// and output-approximated launch paths.
///
/// Variants are keyed by a canonical VariantKey{kernel, transform, tile,
/// pipeline spec}; perforate() / approximateOutput() compile each unique
/// key at most once per Session and return the cached variant afterwards.
/// compile() likewise caches per source text, so a tuning sweep compiles
/// the kernel source exactly once. Hit/miss/compile counters are surfaced
/// in stats().
///
/// A kernel compiled without a pipeline spec lives twice in the module:
/// as promoted IR (Kernel::F) -- the frontend output after one mem2reg,
/// its scalars SSA values and its loops intact -- which the transforms,
/// variant keys and printers read (unroll would leave perforate-loop no
/// loop to stride), and as a copy optimized under
/// ir::defaultPipelineSpec() (Kernel::Launch), which every launch of the
/// handle runs. The default pipeline holds only exact passes, so both
/// produce the same bytes and the same modeled time, as an OpenCL
/// compiler's optimized accurate kernel would; the copy just simulates
/// faster.
///
/// Lifetime: a Session frees no kernel or bytecode program it handed out
/// until it is destroyed, so every Kernel and Variant handle stays
/// launchable; the key spaces callers walk (a tuning grid, a service's
/// schemes) are small and finite. Compiled kernels are read-only: to
/// change a kernel, compile new source.
///
/// \code
///   rt::Session S;
///   rt::Kernel K = cantFail(S.compile(Source, "gaussian"));
///   unsigned In = S.createBufferFrom(Pixels);
///   unsigned Out = S.createBuffer(Pixels.size());
///
///   perf::PerforationPlan Plan;
///   Plan.Scheme = perf::PerforationScheme::rows(2,
///                     perf::ReconstructionKind::Linear);
///   rt::Variant V = cantFail(S.perforate(K, Plan));   // cached by key
///   auto Report = S.launch(V, {W, H},
///                          {rt::arg::buffer(In), rt::arg::buffer(Out),
///                           rt::arg::i32(W), rt::arg::i32(H)});
/// \endcode
///
/// Concurrency: a Session may be shared by worker threads (the parallel
/// tuner's model: one simulator run per thread over shared read-only
/// variants). compile()/perforate()/approximateOutput() serialize on an
/// internal mutex -- concurrent requests for the same key still compile
/// exactly once -- and buffer creation/release goes through a mutex-
/// protected free list, so each worker checks out its own buffer set with
/// createBuffer*/releaseBuffer. launch() runs outside the compile lock:
/// it takes only the buffer lock, for its snapshot, and on the batched
/// tier the bytecode lock, for its program lookup.
/// See docs/ARCHITECTURE.md ("Concurrency model") for what callers own.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_RUNTIME_SESSION_H
#define KPERF_RUNTIME_SESSION_H

#include "gpusim/Interpreter.h"
#include "ir/AnalysisManager.h"
#include "ir/Function.h"
#include "pcl/Compiler.h"
#include "perforation/OutputApprox.h"
#include "perforation/Transform.h"
#include "support/Error.h"

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace kperf {
namespace rt {

/// Handle to a compiled kernel (owned by the Session's module).
struct Kernel {
  /// The kernel as compiled: what perforate()/approximateOutput(), the
  /// variant keys and printing read. Promoted IR without a pipeline spec
  /// (see the file comment), the spec's output with one.
  ir::Function *F = nullptr;
  /// What launch() runs in F's place: the Session's optimized copy of a
  /// kernel compiled without a pipeline spec. Null -- every variant's
  /// handle, or a handle built as Kernel{F} -- launches F itself.
  ir::Function *Launch = nullptr;
  const std::string &name() const { return F->name(); }
};

/// How a Variant's kernel was derived from its source kernel.
enum class VariantKind : uint8_t {
  Accurate,     ///< The kernel as compiled (no transform).
  Perforated,   ///< Local memory-aware input perforation (paper core);
                ///< SchemeKind::None yields the accurate local-prefetch
                ///< baseline.
  OutputApprox, ///< Paraprox-style output approximation (related work).
};

/// A kernel variant ready to launch: one handle covers accurate,
/// perforated, and output-approximated kernels.
struct Variant {
  VariantKind Kind = VariantKind::Accurate;
  Kernel K;
  /// Perforated variants must launch with exactly this local shape; for
  /// the others it is the preferred shape the variant was built for.
  sim::Range2 Local{16, 16};
  unsigned LocalMemWords = 0; ///< Tile storage the kernel allocates.
  /// Output-approximation NDRange shrink: launch covers
  /// ceil(global / Div) items per dimension. Applies to the final pass.
  unsigned DivX = 1;
  unsigned DivY = 1;
  /// Optional chained second pass (ConvolutionSeparable): pass 1 runs K
  /// into an intermediate buffer, then K2 reads it. K2.F == nullptr for
  /// single-pass variants.
  Kernel K2;
  sim::Range2 Local2{16, 16};
  /// What the cleanup pipeline did to this variant (tuner reports).
  ir::PipelineStats PassStats;

  bool isTwoPass() const { return K2.F != nullptr; }

  /// Views of a two-pass variant's stages as single-pass variants, for
  /// launching each stage through launch(Variant, ...). The NDRange
  /// shrink belongs to the final pass.
  Variant firstPass() const;
  Variant secondPass() const;
};

/// Canonical cache key of one compiled variant: source kernel, transform
/// descriptor (scheme/tile or output-approx parameters), and cleanup
/// pipeline spec. Two plans producing the same key produce byte-identical
/// kernels, so the Session compiles each key at most once.
struct VariantKey {
  std::string Kernel;    ///< Source kernel function name.
  std::string Transform; ///< Canonical transform descriptor.
  std::string Pipeline;  ///< Cleanup pipeline spec.

  static VariantKey forPerforation(const ir::Function &F,
                                   const perf::PerforationPlan &Plan);
  static VariantKey forOutputApprox(const ir::Function &F,
                                    const perf::OutputApproxPlan &Plan);

  /// The flat string the cache is keyed by, "kernel|transform|pipeline".
  std::string str() const;
};

/// Compile and cache accounting of one Session. Counters are atomics:
/// they are bumped on every compile()/cache probe, which under the
/// parallel tuner happens from many threads at once. Reading a counter is
/// an implicit relaxed-consistency load; a copy taken mid-sweep is a
/// per-counter snapshot, not an atomic snapshot of all of them.
struct SessionStats {
  std::atomic<unsigned> SourceCompiles{0};  ///< Frontend runs.
  std::atomic<unsigned> SourceCacheHits{0}; ///< compile() cache hits.
  std::atomic<unsigned> VariantCompiles{0}; ///< Transform+pipeline runs.
  std::atomic<unsigned> VariantCacheHits{0};
  std::atomic<unsigned> BufferCreates{0};     ///< Fresh buffer slots.
  std::atomic<unsigned> BufferReuses{0};      ///< Free-list checkouts.
  std::atomic<unsigned> BytecodeCompiles{0};  ///< IR-to-bytecode runs.
  std::atomic<unsigned> BytecodeCacheHits{0}; ///< Bytecode cache hits.
  /// Perforated kernels rejected by the opt-in lint gate. Rejections are
  /// not VariantCompiles: nothing was inserted into the cache, so
  /// counting them there would skew the hit rate.
  std::atomic<unsigned> LintRejections{0};
  /// Variants materialized from the on-disk cache instead of compiling.
  std::atomic<unsigned> DiskVariantHits{0};
  /// Variants serialized to the on-disk cache after compiling.
  std::atomic<unsigned> DiskVariantStores{0};

  SessionStats() = default;
  SessionStats(const SessionStats &O) { *this = O; }
  SessionStats &operator=(const SessionStats &O);

  unsigned variantLookups() const {
    return VariantCompiles + VariantCacheHits;
  }
  /// Fraction of variant lookups served from the cache (0 when none).
  double variantHitRate() const;

  /// One report line, e.g.
  /// "source compiles: 1 (cache hits: 69); variant compiles: 60;
  ///  variant cache: 10 hits / 70 lookups (14.3% hit rate);
  ///  buffers: 4 created, 116 reused".
  std::string str() const;
};

/// Argument construction shorthand.
namespace arg {
inline sim::KernelArg i32(int32_t V) { return sim::KernelArg::makeInt(V); }
inline sim::KernelArg f32(float V) { return sim::KernelArg::makeFloat(V); }
inline sim::KernelArg buffer(unsigned Index) {
  return sim::KernelArg::makeBuffer(Index);
}
} // namespace arg

/// Owns the IR module, device configuration, buffers, cached analyses,
/// and compiled-variant cache of one simulated device session.
class Session {
public:
  explicit Session(sim::DeviceConfig Device = sim::DeviceConfig());
  ~Session();
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  const sim::DeviceConfig &device() const { return Device; }
  sim::DeviceConfig &device() { return Device; }

  /// Compiles all kernels in \p Source; returns the one named \p Name.
  /// Compilation is cached per (source text, options): repeated calls --
  /// a tuning sweep, an app building several variants -- run the frontend
  /// once. The handle's F is the frontend IR promoted by mem2reg, loops
  /// intact; launching it runs a copy optimized under the default
  /// pipeline (see the file comment); both live, read-only, as long as
  /// the Session.
  Expected<Kernel> compile(const std::string &Source,
                           const std::string &Name);

  /// As above with frontend pipeline options (e.g. a post-verify
  /// optimization pipeline). With a PipelineSpec, F itself is optimized
  /// by it and launches run F: no copy is made. Note:
  /// CompileOptions::Stats only accumulates the spec's run on the actual
  /// (first) compile, not on cache hits.
  Expected<Kernel> compile(const std::string &Source,
                           const std::string &Name,
                           const pcl::CompileOptions &Opts);

  /// Compiles (or returns the cached) kernels of \p Source in declaration
  /// order. Without a PipelineSpec each kernel is promoted by mem2reg,
  /// then cloned once and the clone optimized under the default pipeline
  /// as its launch copy; a copy the verifier rejects fails the compile
  /// with its message.
  Expected<std::vector<Kernel>> compileAll(
      const std::string &Source,
      const pcl::CompileOptions &Opts = pcl::CompileOptions());

  /// Creates a zero-initialized buffer of \p NumElements 32-bit elements.
  /// Reuses a released slot when one is available (free-list checkout);
  /// thread-safe, so parallel workers can check out independent buffer
  /// sets from one Session.
  unsigned createBuffer(size_t NumElements);

  /// Creates a buffer initialized with \p Values.
  unsigned createBufferFrom(const std::vector<float> &Values);

  /// Returns \p Index to the free list: its storage is dropped and the
  /// slot is handed out again by a later createBuffer*(). Launching with
  /// a released index fails until the slot is reused. Thread-safe.
  void releaseBuffer(unsigned Index);

  sim::BufferData &buffer(unsigned Index);
  const sim::BufferData &buffer(unsigned Index) const;

  //===--- Variant construction (cached) -----------------------------------//

  /// Applies local memory-aware input perforation to \p K (paper core).
  /// The variant must be launched with local shape Variant::Local; the
  /// result is cached by VariantKey, so identical plans return the same
  /// variant without recompiling.
  Expected<Variant> perforate(const Kernel &K,
                              const perf::PerforationPlan &Plan);

  /// Applies Paraprox-style output approximation to \p K; cached like
  /// perforate(). Launch through launch(Variant, ...) which applies the
  /// NDRange shrink.
  Expected<Variant> approximateOutput(const Kernel &K,
                                      const perf::OutputApproxPlan &Plan);

  /// Wraps \p K as an untransformed Variant preferring local shape
  /// \p Local (not cached -- there is nothing to compile). Launching it
  /// runs K's launch copy when K has one.
  Variant accurate(const Kernel &K, sim::Range2 Local) const;

  /// Opt-in static safety gate: when enabled, every kernel perforate()
  /// generates is run through the ir/Lint.h checks (range analysis
  /// seeded with the variant's work-group shape) and error-severity
  /// diagnostics -- a proven out-of-bounds access, a barrier under
  /// divergent control flow, a definite division by zero -- fail the
  /// perforation instead of faulting later inside a launch. The rejected
  /// kernel is removed from the module; nothing is cached. Warnings
  /// never gate. Off by default; thread-safe.
  void setLintGate(bool Enabled) { LintGate.store(Enabled); }
  bool lintGate() const { return LintGate.load(); }

  //===--- Launching --------------------------------------------------------//

  /// Selects the execution tier of subsequent launches (default: the
  /// process-wide sim::defaultExecTier(), i.e. KPERF_EXEC_TIER or the
  /// tree walker). The batched tier compiles each kernel to bytecode
  /// once per Session and caches the program alongside the variant
  /// cache; both tiers produce byte-identical outputs and identical
  /// SimReport counters. Thread-safe; takes effect for launches that
  /// start after the call.
  void setExecTier(sim::ExecTier Tier) { this->Tier.store(Tier); }
  sim::ExecTier execTier() const { return Tier.load(); }

  /// Unified launch: covers \p FullGlobal items with \p V's kernel at its
  /// required local shape, applying the NDRange shrink of
  /// output-approximated variants (rounded up to a multiple of the local
  /// shape). Two-pass variants must be launched stage by stage via
  /// firstPass()/secondPass() -- chaining needs an intermediate buffer
  /// only the caller knows.
  Expected<sim::SimReport> launch(const Variant &V, sim::Range2 FullGlobal,
                                  const std::vector<sim::KernelArg> &Args);

  /// Raw launch of \p K over \p Global items in groups of \p Local. Runs
  /// K.Launch if the handle has one and K.F otherwise; both live as long
  /// as the Session. Takes no compile lock, so launches proceed while
  /// other threads compile through this session. Fails if one buffer is
  /// bound to both a const and a writable pointer parameter: optimized
  /// kernels assume nothing writes a const buffer during a launch.
  Expected<sim::SimReport> launch(const Kernel &K, sim::Range2 Global,
                                  sim::Range2 Local,
                                  const std::vector<sim::KernelArg> &Args);

  //===--- Introspection ----------------------------------------------------//

  /// Access to the underlying module (printing, verification, tests).
  /// NOT synchronized: use only while no other thread is compiling
  /// through this session. The kernels in it are read-only (see the file
  /// comment).
  ir::Module &module();

  /// Cached per-function analyses (access summaries, dominator trees)
  /// shared across this session's transforms. NOT synchronized; same
  /// rule as module().
  ir::AnalysisManager &analyses() { return Analyses; }

  /// Enables the content-addressed on-disk variant cache rooted at
  /// \p Dir (created if absent). On a variant-cache miss the Session
  /// probes Dir for a file addressed by the hash of the source kernel's
  /// printed IR + the transform descriptor + the pipeline spec; a valid
  /// file (format-version stamp and checksum checked, IR re-verified) is
  /// deserialized into the module instead of recompiling and counted as
  /// a DiskVariantHits. Freshly compiled variants are serialized back
  /// (atomic rename), so warm restarts and cross-process sweeps skip
  /// recompilation; a variant loaded from disk lives as long as the
  /// Session, like a compiled one. Pass "" to disable. Not thread-safe
  /// against concurrent compiles; set it before sharing the session.
  Error setDiskCache(const std::string &Dir);
  const std::string &diskCache() const { return DiskCacheDir; }

  /// Compile/cache counters since construction (or the last reset).
  const SessionStats &stats() const { return Stats; }
  void resetStats() { Stats = SessionStats(); }

private:
  /// Snapshots stable buffer addresses for a lock-free interpreter run;
  /// released slots are nulled so a stale index fails the launch.
  std::vector<sim::BufferData *> snapshotBufferBank();

  /// Puts \p Data in a free slot, or a new one, and returns its index.
  /// Callers allocate and fill the storage before, outside BufferMutex.
  unsigned placeBuffer(sim::BufferData Data);

  /// Builds one variant into the module under the fresh kernel name it
  /// is given, or fails (transform refused, lint gate).
  using VariantBuilder = std::function<Expected<Variant>(const std::string &)>;

  /// The cached path perforate() and approximateOutput() share for a
  /// variant of \p Source: probes the variant cache, then the disk cache
  /// for a \p Kind variant, then runs \p Build on the name
  /// "<source>.<Suffix><N>", counts it as a VariantCompiles, caches it
  /// and stores it to disk. Takes CompileMutex and holds it across the
  /// build, so concurrent requests for one key compile it exactly once.
  Expected<Variant> cachedVariant(const ir::Function &Source,
                                  const VariantKey &VK, VariantKind Kind,
                                  const char *Suffix,
                                  const VariantBuilder &Build);

  /// Clones \p F under its own name (the variant name counter is left
  /// alone) and runs the default pipeline on the clone. If the verifier
  /// rejects the clone, drops it and returns the verifier's message: the
  /// default pipeline is exact, so that is a pipeline bug. CompileMutex
  /// held.
  Expected<ir::Function *> buildLaunchCopy(const ir::Function &F);

  /// Disk-cache probe: materializes the variant stored under
  /// \p ContentKey into the module, or returns false. CompileMutex held.
  bool loadVariantFromDisk(uint64_t ContentKey, VariantKind Kind,
                           Variant &V);

  /// Best-effort disk-cache store of a freshly compiled variant.
  /// CompileMutex held.
  void storeVariantToDisk(uint64_t ContentKey, const Variant &V);

  /// Content address of one (source kernel, transform, pipeline) triple:
  /// a hash over the printed source IR and the canonical key, so two
  /// same-named kernels with different bodies never share a disk entry.
  /// CompileMutex held.
  uint64_t contentKeyFor(const ir::Function &F, const VariantKey &Key);

  /// Returns the cached bytecode program of \p F, compiling it on first
  /// request; it lives as long as the Session. Takes only BytecodeMutex
  /// (never CompileMutex); held across the compile so concurrent requests
  /// for one kernel compile it exactly once.
  Expected<const sim::bc::Program *> bytecodeFor(const ir::Function &F);

  sim::DeviceConfig Device;
  std::unique_ptr<ir::Module> M;
  ir::AnalysisManager Analyses;

  /// Serializes everything that touches the module, the analyses, and
  /// the two compile caches. Held across actual compiles, so concurrent
  /// requests for one key block until the first inserts it, then hit.
  mutable std::mutex CompileMutex;
  /// Guards the buffer table and free list. Never held during a launch,
  /// nor while buffer storage is allocated, filled or freed: concurrent
  /// requests contend only for the slot bookkeeping.
  mutable std::mutex BufferMutex;

  /// Buffer slots; a deque so element addresses survive growth and
  /// in-flight launches keep valid pointers while other workers create
  /// buffers.
  std::deque<sim::BufferData> Buffers;
  std::vector<unsigned> FreeBuffers; ///< Released slot indices.

  unsigned NameCounter = 0;
  SessionStats Stats;

  /// Variant cache keyed by source-function identity + VariantKey::str()
  /// (the identity prefix keeps two same-named functions from colliding).
  std::map<std::string, Variant> Variants;

  /// Source cache: (pipeline options key + source text) -> the handles
  /// of its kernels in declaration order, launch copies included.
  std::map<std::string, std::vector<Kernel>> Sources;

  /// Opt-in post-perforation static-check gate (setLintGate).
  std::atomic<bool> LintGate{false};

  /// Root of the content-addressed on-disk variant cache ("" = off).
  std::string DiskCacheDir;

  /// Execution tier of launches through this session.
  std::atomic<sim::ExecTier> Tier{sim::defaultExecTier()};
  /// Guards BytecodePrograms. Launches take it alone, briefly; a program
  /// is never freed before the Session, so a launch runs on the raw
  /// pointer after releasing it.
  mutable std::mutex BytecodeMutex;
  std::map<const ir::Function *, std::unique_ptr<const sim::bc::Program>>
      BytecodePrograms;
};

} // namespace rt
} // namespace kperf

#endif // KPERF_RUNTIME_SESSION_H
