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
/// as frontend IR (Kernel::F), which the transforms, variant keys and
/// printers read -- unroll would leave perforate-loop no loop to stride
/// -- and as a copy optimized under ir::defaultPipelineSpec()
/// (Kernel::Launch), which every launch of the handle runs. The default
/// pipeline holds only exact passes, so both produce the same bytes and
/// the same modeled time, as an OpenCL compiler's optimized accurate
/// kernel would; the copy just simulates faster.
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
/// createBuffer*/releaseBuffer. launch() itself runs outside every lock.
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
#include <initializer_list>
#include <list>
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
  /// variant keys and printing read.
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
  std::atomic<unsigned> Invalidations{0};     ///< invalidate() calls.
  std::atomic<unsigned> VariantEvictions{0};  ///< LRU cache evictions.
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
  ///  evictions: 0; buffers: 4 created, 116 reused".
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
  /// once. The handle's F is frontend IR; launching it runs a copy
  /// optimized under the default pipeline (see the file comment).
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
  /// order. Without a PipelineSpec each kernel is cloned once and the
  /// clone optimized under the default pipeline as its launch copy; a
  /// copy the verifier rejects fails the compile with its message.
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

  /// Caps the variant cache at \p N entries, evicting least-recently-used
  /// variants as new ones are compiled; 0 (the default) means unlimited.
  /// An evicted kernel is reclaimed once no launch is in flight; a
  /// Variant handle held past the eviction therefore either still
  /// launches (reclamation deferred) or fails the launch with an
  /// "evicted" error -- never a dangling access. Re-request evicted keys
  /// through perforate()/approximateOutput(), which recompile them.
  void setVariantCapacity(unsigned N);
  unsigned variantCapacity() const;

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
  /// K's current launch copy if it has one -- a handle held across
  /// invalidate() runs the rebuilt copy -- and K.F otherwise.
  Expected<sim::SimReport> launch(const Kernel &K, sim::Range2 Global,
                                  sim::Range2 Local,
                                  const std::vector<sim::KernelArg> &Args);

  //===--- Introspection ----------------------------------------------------//

  /// Access to the underlying module (printing, verification, tests).
  /// NOT synchronized: use only while no other thread is compiling
  /// through this session.
  ir::Module &module();

  /// Cached per-function analyses (access summaries, dominator trees)
  /// shared across this session's transforms. NOT synchronized; same
  /// rule as module().
  ir::AnalysisManager &analyses() { return Analyses; }

  /// Drops the cached analyses and cached variants derived from \p K.
  /// Callers that mutate a compiled kernel directly must call this before
  /// the next perforate()/approximateOutput() or launch of that kernel,
  /// or they will be served stale variants or a stale launch copy.
  ///
  /// The generated variant kernels and K.F's launch copy are detached
  /// from the module and retired through the same graveyard/quiescence
  /// discipline LRU eviction uses: a launch already in flight on a
  /// dropped kernel finishes safely, and the kernel is destroyed at the
  /// next quiescent point. A mutate/re-perforate loop therefore keeps the
  /// module's function count bounded instead of leaking one function per
  /// invalidated variant. The launch copy is rebuilt from the mutated
  /// K.F at once, and every handle of K.F launches the rebuilt one. If
  /// the verifier rejects the rebuilt copy, those launches fail with its
  /// message until a later invalidate() rebuilds a valid one.
  void invalidate(const Kernel &K);

  /// Enables the content-addressed on-disk variant cache rooted at
  /// \p Dir (created if absent). On a variant-cache miss the Session
  /// probes Dir for a file addressed by the hash of the source kernel's
  /// printed IR + the transform descriptor + the pipeline spec; a valid
  /// file (format-version stamp checked, IR re-verified) is deserialized
  /// into the module instead of recompiling and counted as a
  /// DiskVariantHits. Freshly compiled variants are serialized back
  /// (atomic rename), so warm restarts and cross-process sweeps skip
  /// recompilation. Pass "" to disable. Not thread-safe against
  /// concurrent compiles; set it before sharing the session.
  Error setDiskCache(const std::string &Dir);
  const std::string &diskCache() const { return DiskCacheDir; }

  /// Compile/cache counters since construction (or the last reset).
  const SessionStats &stats() const { return Stats; }
  void resetStats() { Stats = SessionStats(); }

  /// True if \p E is launch()'s evicted-variant error. Callers racing a
  /// capacity-bounded cache (a parallel sweep with --variant-cap) test
  /// this to re-request the variant and retry instead of failing.
  static bool isEvictedError(const Error &E);

private:
  /// Variant cache entry: the variant plus its source kernel (recorded so
  /// invalidate() can drop the right entries) and its position in the LRU
  /// list (front = most recently used).
  struct CachedVariant {
    Variant V;
    const ir::Function *Source = nullptr;
    std::list<std::string>::iterator LruIt;
  };

  /// Snapshots stable buffer addresses for a lock-free interpreter run;
  /// released slots are nulled so a stale index fails the launch.
  std::vector<sim::BufferData *> snapshotBufferBank();

  /// Moves \p It to the most-recently-used position. CompileMutex held.
  void touchVariant(std::map<std::string, CachedVariant>::iterator It);

  /// Inserts a variant and evicts past the capacity. CompileMutex held.
  void insertVariant(std::string Key, const Variant &V,
                     const ir::Function *Source);

  /// Evicts the least-recently-used variant. CompileMutex held.
  void evictOneVariant();

  /// Shared retirement discipline of eviction and invalidation: drops the
  /// cached analyses and bytecode of the generated kernels \p Fns (null
  /// entries skipped), detaches them from the module, and parks them in
  /// the graveyard until the next quiescent point (no launch in flight).
  /// CompileMutex held.
  void retireKernels(std::initializer_list<const ir::Function *> Fns);

  /// Clones \p F under its own name (the variant name counter is left
  /// alone) and runs the default pipeline on the clone. If the verifier
  /// rejects the clone, drops it and returns the verifier's message: the
  /// default pipeline is exact, so that is a pipeline bug or a caller's
  /// invalid mutation of \p F. CompileMutex held.
  Expected<ir::Function *> buildLaunchCopy(const ir::Function &F);

  /// Marks that retired kernels exist and frees the graveyard if no
  /// launch is in flight. CompileMutex held.
  void reclaimAtQuiescence();

  /// Disk-cache probe: materializes the variant stored under
  /// \p ContentKey into the module, or returns false. CompileMutex held.
  bool loadVariantFromDisk(uint64_t ContentKey, VariantKind Kind,
                           Variant &V);

  /// Best-effort disk-cache store of a freshly compiled variant.
  /// CompileMutex held.
  void storeVariantToDisk(uint64_t ContentKey, const Variant &V);

  /// Content address of one (source kernel, transform, pipeline) triple:
  /// a hash over the printed source IR and the canonical key, so a
  /// mutated kernel never hits a stale disk entry. CompileMutex held.
  uint64_t contentKeyFor(const ir::Function &F, const VariantKey &Key);

  /// Returns the cached bytecode program of \p F, compiling it on first
  /// request. Takes only BytecodeMutex (never CompileMutex); held across
  /// the compile so concurrent requests for one kernel compile it exactly
  /// once.
  Expected<std::shared_ptr<const sim::bc::Program>>
  bytecodeFor(const ir::Function &F);

  /// Drops the cached bytecode of \p F (kernel mutated or evicted).
  /// BytecodeMutex must NOT be held.
  void dropBytecode(const ir::Function *F);

  sim::DeviceConfig Device;
  std::unique_ptr<ir::Module> M;
  ir::AnalysisManager Analyses;

  /// Serializes everything that touches the module, the analyses, and
  /// the two compile caches. Held across actual compiles, so concurrent
  /// requests for one key block until the first inserts it, then hit.
  mutable std::mutex CompileMutex;
  /// Guards the buffer table and free list (never held during a launch).
  mutable std::mutex BufferMutex;

  /// Buffer slots; a deque so element addresses survive growth and
  /// in-flight launches keep valid pointers while other workers create
  /// buffers.
  std::deque<sim::BufferData> Buffers;
  std::vector<unsigned> FreeBuffers; ///< Released slot indices.

  unsigned NameCounter = 0;
  unsigned VariantCapacity = 0; ///< 0 = unlimited.
  SessionStats Stats;

  /// Deferred reclamation of retired kernels: eviction and invalidation
  /// both move detached variant functions here (guarded by
  /// CompileMutex), launches in flight pin them, and the graveyard is
  /// freed at the next quiescent point (no launch in flight).
  std::vector<std::unique_ptr<ir::Function>> Graveyard;
  /// Every launch increments this lock-free on entry (seq_cst), so a
  /// retirement that starts mid-launch sees it nonzero and defers the
  /// reclamation even if that launch never took the validation path.
  std::atomic<unsigned> InFlightLaunches{0};
  /// Sticky: set on the first retirement (eviction or invalidation),
  /// never cleared. Launches validate their kernel (and synchronize on
  /// CompileMutex) only once this is set, so sessions that never retire
  /// a kernel launch lock-free.
  std::atomic<bool> KernelsRetired{false};

  /// Variant cache keyed by source-function identity + VariantKey::str()
  /// (the identity prefix keeps two same-named functions from colliding),
  /// plus the LRU order for eviction.
  std::map<std::string, CachedVariant> Variants;
  std::list<std::string> Lru;

  /// Source cache: (pipeline options key + source text) -> compiled
  /// kernels in declaration order.
  std::map<std::string, std::vector<ir::Function *>> Sources;
  /// A frontend kernel's current launch copy; null, with the verifier's
  /// message, after invalidate() rejected the rebuild.
  struct LaunchCopy {
    ir::Function *F = nullptr;
    std::string Rejection;
  };
  /// Frontend kernel -> its launch copy (kernels compiled without a
  /// pipeline spec). Guarded by CompileMutex; launch() reads it only on
  /// its validation path, which already holds that lock.
  std::map<const ir::Function *, LaunchCopy> LaunchCopies;

  /// Opt-in post-perforation static-check gate (setLintGate).
  std::atomic<bool> LintGate{false};

  /// Root of the content-addressed on-disk variant cache ("" = off).
  std::string DiskCacheDir;

  /// Execution tier of launches through this session.
  std::atomic<sim::ExecTier> Tier{sim::defaultExecTier()};
  /// Guards BytecodePrograms. Acquired after CompileMutex where both are
  /// needed (invalidation paths); launches take it alone, briefly, and
  /// run on a shared_ptr copy so eviction never frees a program under a
  /// running launch.
  mutable std::mutex BytecodeMutex;
  std::map<const ir::Function *, std::shared_ptr<const sim::bc::Program>>
      BytecodePrograms;
};

} // namespace rt
} // namespace kperf

#endif // KPERF_RUNTIME_SESSION_H
