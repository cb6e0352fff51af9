//===- runtime/Session.cpp -------------------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "runtime/Session.h"

#include "gpusim/Bytecode.h"
#include "ir/Clone.h"
#include "ir/Lint.h"
#include "ir/Mem2Reg.h"
#include "ir/Passes.h"
#include "ir/Printer.h"
#include "ir/Serializer.h"
#include "ir/Verifier.h"
#include "pcl/Compiler.h"
#include "support/StringUtils.h"

#include <cassert>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <sys/stat.h>
#include <unistd.h>

using namespace kperf;
using namespace kperf::rt;

//===--- Variant -------------------------------------------------------------//

Variant Variant::firstPass() const {
  assert(isTwoPass() && "firstPass() on a single-pass variant");
  Variant V;
  V.Kind = Kind;
  V.K = K;
  V.Local = Local;
  V.LocalMemWords = LocalMemWords;
  return V;
}

Variant Variant::secondPass() const {
  assert(isTwoPass() && "secondPass() on a single-pass variant");
  Variant V;
  V.Kind = Kind;
  V.K = K2;
  V.Local = Local2;
  V.DivX = DivX;
  V.DivY = DivY;
  return V;
}

//===--- VariantKey ----------------------------------------------------------//

VariantKey VariantKey::forPerforation(const ir::Function &F,
                                      const perf::PerforationPlan &Plan) {
  VariantKey Key;
  Key.Kernel = F.name();
  std::string Bufs;
  for (unsigned B : Plan.BufferArgs)
    Bufs += format(",b%u", B);
  Key.Transform = format("perf:%s@%ux%u%s", Plan.Scheme.str().c_str(),
                         Plan.TileX, Plan.TileY, Bufs.c_str());
  Key.Pipeline = Plan.PipelineSpec;
  return Key;
}

VariantKey VariantKey::forOutputApprox(const ir::Function &F,
                                       const perf::OutputApproxPlan &Plan) {
  VariantKey Key;
  Key.Kernel = F.name();
  Key.Transform =
      format("oapprox:%u:%u:w%u:h%u", static_cast<unsigned>(Plan.Kind),
             Plan.ApproxPerComputed, Plan.WidthArgIndex,
             Plan.HeightArgIndex);
  Key.Pipeline = Plan.PipelineSpec;
  return Key;
}

std::string VariantKey::str() const {
  return Kernel + "|" + Transform + "|" + Pipeline;
}

//===--- SessionStats --------------------------------------------------------//

SessionStats &SessionStats::operator=(const SessionStats &O) {
  SourceCompiles = O.SourceCompiles.load();
  SourceCacheHits = O.SourceCacheHits.load();
  VariantCompiles = O.VariantCompiles.load();
  VariantCacheHits = O.VariantCacheHits.load();
  BufferCreates = O.BufferCreates.load();
  BufferReuses = O.BufferReuses.load();
  BytecodeCompiles = O.BytecodeCompiles.load();
  BytecodeCacheHits = O.BytecodeCacheHits.load();
  LintRejections = O.LintRejections.load();
  DiskVariantHits = O.DiskVariantHits.load();
  DiskVariantStores = O.DiskVariantStores.load();
  return *this;
}

double SessionStats::variantHitRate() const {
  unsigned Lookups = variantLookups();
  return Lookups == 0 ? 0.0
                      : static_cast<double>(VariantCacheHits.load()) / Lookups;
}

std::string SessionStats::str() const {
  // Appended fields only: the prefix format is pinned by session_test
  // and the CI stats grep.
  return format("source compiles: %u (cache hits: %u); "
                "variant compiles: %u; variant cache: %u hits / %u "
                "lookups (%.1f%% hit rate); "
                "buffers: %u created, %u reused; "
                "bytecode compiles: %u (cache hits: %u); "
                "lint rejections: %u; disk: %u hits, %u stores",
                SourceCompiles.load(), SourceCacheHits.load(),
                VariantCompiles.load(), VariantCacheHits.load(),
                variantLookups(), 100.0 * variantHitRate(),
                BufferCreates.load(), BufferReuses.load(),
                BytecodeCompiles.load(), BytecodeCacheHits.load(),
                LintRejections.load(), DiskVariantHits.load(),
                DiskVariantStores.load());
}

//===--- Session -------------------------------------------------------------//

Session::Session(sim::DeviceConfig Device)
    : Device(Device), M(std::make_unique<ir::Module>()) {}

Session::~Session() = default;

ir::Module &Session::module() { return *M; }

Expected<std::vector<Kernel>>
Session::compileAll(const std::string &Source,
                    const pcl::CompileOptions &Opts) {
  // The options key separates pipelines with '\x01' (never in a spec) so
  // "spec" + source and spec + "source" cannot collide.
  std::string Key = Opts.PipelineSpec;
  if (Opts.VerifyEach)
    Key += "\x01v";
  Key += '\x01';
  Key += Source;

  // Held across the compile: a concurrent request for the same source
  // blocks until the first inserts it, then takes the cache hit.
  std::lock_guard<std::mutex> Lock(CompileMutex);
  auto It = Sources.find(Key);
  if (It == Sources.end()) {
    ++Stats.SourceCompiles;
    Expected<std::vector<ir::Function *>> Fns =
        pcl::compile(*M, Source, Opts);
    if (!Fns)
      return Fns.takeError();
    std::vector<Kernel> Kernels;
    for (ir::Function *F : *Fns)
      Kernels.push_back(Kernel{F});
    // Promoted IR, loops intact, is the transforms' input; launches run
    // a copy optimized under the default pipeline.
    if (Opts.PipelineSpec.empty())
      for (Kernel &K : Kernels) {
        ir::AnalysisManager AM;
        ir::promoteMemoryToRegisters(*K.F, *M, AM);
        Expected<ir::Function *> Copy = buildLaunchCopy(*K.F);
        if (!Copy) {
          // Nothing of this source was handed out yet: drop it whole.
          for (const Kernel &Built : Kernels) {
            M->takeFunction(Built.Launch);
            M->takeFunction(Built.F);
          }
          return Copy.takeError();
        }
        K.Launch = *Copy;
      }
    It = Sources.emplace(std::move(Key), std::move(Kernels)).first;
  } else {
    ++Stats.SourceCacheHits;
  }
  return It->second;
}

Expected<ir::Function *> Session::buildLaunchCopy(const ir::Function &F) {
  ir::CloneMap Map;
  ir::Function *Copy = ir::cloneFunction(*M, F, F.name(), Map);
  ir::runDefaultPipeline(*Copy, *M);
  if (Error E = ir::verifyFunction(*Copy)) {
    M->takeFunction(Copy);
    return makeError("launch copy of kernel '%s': the default pipeline's "
                     "output failed verification: %s",
                     F.name().c_str(), E.message().c_str());
  }
  return Copy;
}

Expected<Kernel> Session::compile(const std::string &Source,
                                  const std::string &Name) {
  return compile(Source, Name, pcl::CompileOptions());
}

Expected<Kernel> Session::compile(const std::string &Source,
                                  const std::string &Name,
                                  const pcl::CompileOptions &Opts) {
  Expected<std::vector<Kernel>> Kernels = compileAll(Source, Opts);
  if (!Kernels)
    return Kernels.takeError();
  for (const Kernel &K : *Kernels)
    if (K.name() == Name)
      return K;
  return makeError("no kernel named '%s' in source", Name.c_str());
}

unsigned Session::createBuffer(size_t NumElements) {
  return placeBuffer(sim::BufferData(NumElements));
}

unsigned Session::createBufferFrom(const std::vector<float> &Values) {
  sim::BufferData Data;
  Data.uploadFloats(Values);
  return placeBuffer(std::move(Data));
}

unsigned Session::placeBuffer(sim::BufferData Data) {
  std::lock_guard<std::mutex> Lock(BufferMutex);
  if (!FreeBuffers.empty()) {
    unsigned Index = FreeBuffers.back();
    FreeBuffers.pop_back();
    Buffers[Index] = std::move(Data);
    ++Stats.BufferReuses;
    return Index;
  }
  ++Stats.BufferCreates;
  Buffers.push_back(std::move(Data));
  return static_cast<unsigned>(Buffers.size() - 1);
}

void Session::releaseBuffer(unsigned Index) {
  sim::BufferData Dropped; // Freed after the lock is released.
  std::lock_guard<std::mutex> Lock(BufferMutex);
  assert(Index < Buffers.size() && "releaseBuffer index out of range");
#ifndef NDEBUG
  for (unsigned Free : FreeBuffers)
    assert(Free != Index && "double release of a session buffer");
#endif
  std::swap(Buffers[Index], Dropped);
  FreeBuffers.push_back(Index);
}

sim::BufferData &Session::buffer(unsigned Index) {
  std::lock_guard<std::mutex> Lock(BufferMutex);
  assert(Index < Buffers.size() && "buffer index out of range");
  return Buffers[Index]; // Deque elements are address-stable.
}

const sim::BufferData &Session::buffer(unsigned Index) const {
  std::lock_guard<std::mutex> Lock(BufferMutex);
  assert(Index < Buffers.size() && "buffer index out of range");
  return Buffers[Index];
}

std::vector<sim::BufferData *> Session::snapshotBufferBank() {
  std::lock_guard<std::mutex> Lock(BufferMutex);
  std::vector<sim::BufferData *> Bank;
  Bank.reserve(Buffers.size());
  for (sim::BufferData &B : Buffers)
    Bank.push_back(&B);
  for (unsigned Free : FreeBuffers)
    Bank[Free] = nullptr; // A stale released index must not launch.
  return Bank;
}

namespace {

/// Internal cache key: the canonical VariantKey prefixed with the source
/// function's identity, so two same-named functions in one module (e.g.
/// the same source compiled under different pipeline options) never
/// collide.
std::string cacheKeyFor(const ir::Function &F, const VariantKey &Key) {
  return format("%p|", static_cast<const void *>(&F)) + Key.str();
}

} // namespace

Expected<Variant>
Session::cachedVariant(const ir::Function &Source, const VariantKey &VK,
                       VariantKind Kind, const char *Suffix,
                       const VariantBuilder &Build) {
  const std::string Key = cacheKeyFor(Source, VK);
  // Held across the build: N concurrent requests for one key compile it
  // exactly once (the rest block, then hit).
  std::lock_guard<std::mutex> Lock(CompileMutex);
  auto It = Variants.find(Key);
  if (It != Variants.end()) {
    ++Stats.VariantCacheHits;
    return It->second;
  }
  const uint64_t ContentKey =
      DiskCacheDir.empty() ? 0 : contentKeyFor(Source, VK);
  {
    Variant V;
    if (!DiskCacheDir.empty() && loadVariantFromDisk(ContentKey, Kind, V)) {
      ++Stats.DiskVariantHits;
      Variants.emplace(Key, V);
      return V;
    }
  }
  Expected<Variant> V =
      Build(format("%s.%s%u", Source.name().c_str(), Suffix, NameCounter++));
  if (!V)
    return V.takeError();
  ++Stats.VariantCompiles;
  Variants.emplace(Key, *V);
  if (!DiskCacheDir.empty())
    storeVariantToDisk(ContentKey, *V);
  return V;
}

Expected<Variant> Session::perforate(const Kernel &K,
                                     const perf::PerforationPlan &Plan) {
  assert(K.F && "perforate of null kernel");
  return cachedVariant(
      *K.F, VariantKey::forPerforation(*K.F, Plan), VariantKind::Perforated,
      "perf", [&](const std::string &Name) -> Expected<Variant> {
        Expected<perf::TransformResult> R =
            perf::applyInputPerforation(*M, *K.F, Plan, Name, &Analyses);
        if (!R)
          return R.takeError();
        if (LintGate.load()) {
          // Static safety gate: reject the generated kernel on any proven
          // fault before it can reach a launch. The range analysis is
          // seeded with the work-group shape the variant must launch with.
          ir::lint::LintOptions LO;
          LO.Bounds.LocalSize[0] = R->LocalX;
          LO.Bounds.LocalSize[1] = R->LocalY;
          ir::lint::LintResult LR = ir::lint::run(*R->Kernel, Analyses, LO);
          if (LR.hasErrors()) {
            // Rejections are not VariantCompiles: nothing was inserted, so
            // counting them there would skew the reported hit rate.
            ++Stats.LintRejections;
            Analyses.invalidate(*R->Kernel);
            std::unique_ptr<ir::Function> Rejected =
                M->takeFunction(R->Kernel);
            return makeError("lint gate: perforated kernel '%s' failed the "
                             "static checks:\n%s",
                             Name.c_str(), LR.str().c_str());
          }
        }
        Variant V;
        V.Kind = VariantKind::Perforated;
        V.K = Kernel{R->Kernel};
        V.Local = sim::Range2{R->LocalX, R->LocalY};
        V.LocalMemWords = R->LocalMemWords;
        V.PassStats = std::move(R->PassStats);
        return V;
      });
}

Expected<Variant>
Session::approximateOutput(const Kernel &K,
                           const perf::OutputApproxPlan &Plan) {
  assert(K.F && "approximateOutput of null kernel");
  return cachedVariant(
      *K.F, VariantKey::forOutputApprox(*K.F, Plan), VariantKind::OutputApprox,
      "oapprox", [&](const std::string &Name) -> Expected<Variant> {
        Expected<perf::OutputApproxResult> R =
            perf::applyOutputApproximation(*M, *K.F, Plan, Name);
        if (!R)
          return R.takeError();
        Variant V;
        V.Kind = VariantKind::OutputApprox;
        V.K = Kernel{R->Kernel};
        V.DivX = R->DivX;
        V.DivY = R->DivY;
        V.PassStats = std::move(R->PassStats);
        return V;
      });
}

Variant Session::accurate(const Kernel &K, sim::Range2 Local) const {
  Variant V;
  V.Kind = VariantKind::Accurate;
  V.K = K;
  V.Local = Local;
  return V;
}

namespace {

/// Refuses one buffer bound to both a const and a writable pointer
/// parameter of \p F. The memory-SSA passes assume nothing writes a const
/// buffer during a launch (ir/MemorySSA.h), so an optimized kernel may
/// read such a buffer once where the kernel as written reads it again
/// after a store. Binding one buffer to several const parameters is fine.
Error checkConstBuffersUnwritten(const ir::Function &F,
                                 const std::vector<sim::KernelArg> &Args) {
  auto bufferParam = [&](unsigned I) {
    return I < Args.size() && F.argument(I)->type().isPointer() &&
           Args[I].K == sim::KernelArg::Kind::Buffer;
  };
  for (unsigned C = 0; C < F.numArguments(); ++C) {
    if (!bufferParam(C) || !F.argument(C)->isConst())
      continue;
    for (unsigned W = 0; W < F.numArguments(); ++W)
      if (bufferParam(W) && !F.argument(W)->isConst() &&
          Args[W].BufferIndex == Args[C].BufferIndex)
        return makeError("launch: kernel '%s' binds buffer %u to both the "
                         "const parameter '%s' and the writable parameter "
                         "'%s'",
                         F.name().c_str(), Args[C].BufferIndex,
                         F.argument(C)->name().c_str(),
                         F.argument(W)->name().c_str());
  }
  return Error::success();
}

} // namespace

Expected<sim::SimReport>
Session::launch(const Kernel &K, sim::Range2 Global, sim::Range2 Local,
                const std::vector<sim::KernelArg> &Args) {
  assert(K.F && "launch of null kernel");
  const ir::Function &Run = K.Launch ? *K.Launch : *K.F;
  if (Error E = checkConstBuffersUnwritten(Run, Args))
    return E;
  // Snapshot stable buffer addresses, then run without any session lock:
  // concurrent workers each drive their own interpreter instance over a
  // kernel (and program) the session never frees before it dies.
  sim::LaunchOptions Options;
  Options.Tier = Tier.load();
  if (Options.Tier != sim::ExecTier::Tree) {
    Expected<const sim::bc::Program *> Prog = bytecodeFor(Run);
    if (!Prog)
      return Prog.takeError();
    Options.Program = *Prog;
  }
  return sim::launchKernel(Run, Global, Local, Args, snapshotBufferBank(),
                           Device, Options);
}

Expected<const sim::bc::Program *>
Session::bytecodeFor(const ir::Function &F) {
  // Held across the compile: concurrent launches of one kernel compile
  // its bytecode exactly once.
  std::lock_guard<std::mutex> Lock(BytecodeMutex);
  auto It = BytecodePrograms.find(&F);
  if (It != BytecodePrograms.end()) {
    ++Stats.BytecodeCacheHits;
    return It->second.get();
  }
  ++Stats.BytecodeCompiles;
  Expected<sim::bc::Program> Prog = sim::bc::compile(F);
  if (!Prog)
    return Prog.takeError();
  auto Owned =
      std::make_unique<const sim::bc::Program>(Prog.takeValue());
  const sim::bc::Program *Raw = Owned.get();
  BytecodePrograms.emplace(&F, std::move(Owned));
  return Raw;
}

Expected<sim::SimReport>
Session::launch(const Variant &V, sim::Range2 FullGlobal,
                const std::vector<sim::KernelArg> &Args) {
  if (V.isTwoPass())
    return makeError("two-pass variant '%s': launch each stage via "
                     "firstPass()/secondPass()",
                     V.K.F ? V.K.F->name().c_str() : "?");
  sim::Range2 Global = FullGlobal;
  if (V.DivX != 1 || V.DivY != 1) {
    auto roundUp = [](unsigned Value, unsigned To) {
      return (Value + To - 1) / To * To;
    };
    Global.X = roundUp((FullGlobal.X + V.DivX - 1) / V.DivX, V.Local.X);
    Global.Y = roundUp((FullGlobal.Y + V.DivY - 1) / V.DivY, V.Local.Y);
  }
  return launch(V.K, Global, V.Local, Args);
}

//===--- On-disk variant cache -----------------------------------------------//
//
// One file per variant under DiskCacheDir, named <16-hex-content-key>.kpv:
//
//   KPERF-VARIANT-v2
//   kind <u8>          (VariantKind; must match the requested kind)
//   local <x> <y>
//   localmem <words>
//   div <x> <y>
//   endheader
//   <ir::serializeFunction text, own format-version stamp included>
//   sum <16-hex>       (fnv1a64 of every byte before this line)
//
// A file with a stale stamp, a missing or wrong sum, a parse error or IR
// that fails to verify is a miss; the recompile that follows overwrites
// it. The sum catches what parsing and verification cannot: one changed
// digit can still load as a valid but different kernel, such as a loop
// counter phi reading the wrong value.
//
// The content key hashes the printed source-kernel IR, the canonical
// VariantKey, and the lint-gate setting, so a different kernel body under
// the same name or a changed gate never hits a stale entry. Only
// single-pass variants are stored (two-pass chaining is assembled above
// the Session). PassStats are not persisted; disk hits report
// default-constructed pipeline stats.

namespace {
const char *kVariantFileStamp = "KPERF-VARIANT-v2";

/// The last line of a variant file, which checksums \p Body before it.
std::string variantFileSum(const std::string &Body) {
  return format("sum %016llx\n",
                static_cast<unsigned long long>(fnv1a64(Body)));
}
} // namespace

Error Session::setDiskCache(const std::string &Dir) {
  std::lock_guard<std::mutex> Lock(CompileMutex);
  if (Dir.empty()) {
    DiskCacheDir.clear();
    return Error::success();
  }
  if (::mkdir(Dir.c_str(), 0755) != 0 && errno != EEXIST)
    return makeError("disk cache: cannot create directory '%s'",
                     Dir.c_str());
  struct stat St;
  if (::stat(Dir.c_str(), &St) != 0 || !S_ISDIR(St.st_mode))
    return makeError("disk cache: '%s' is not a directory", Dir.c_str());
  DiskCacheDir = Dir;
  return Error::success();
}

uint64_t Session::contentKeyFor(const ir::Function &F,
                                const VariantKey &Key) {
  std::string Content = ir::printFunction(F);
  Content += '\x01';
  Content += Key.str();
  if (LintGate.load())
    Content += "\x01gated";
  return fnv1a64(Content);
}

bool Session::loadVariantFromDisk(uint64_t ContentKey, VariantKind Kind,
                                  Variant &V) {
  const std::string Path =
      DiskCacheDir + "/" + format("%016llx.kpv",
                                  static_cast<unsigned long long>(ContentKey));
  std::string Text;
  {
    std::ifstream File(Path, std::ios::binary);
    if (!File)
      return false;
    std::ostringstream Whole;
    Whole << File.rdbuf();
    Text = Whole.str();
  }
  // The last line is the sum of every byte before it.
  const size_t SumAt = Text.rfind("\nsum ");
  if (SumAt == std::string::npos ||
      Text.compare(SumAt + 1, std::string::npos,
                   variantFileSum(Text.substr(0, SumAt + 1))) != 0)
    return false;
  Text.resize(SumAt + 1);
  std::istringstream In(Text);
  std::string Line;
  if (!std::getline(In, Line) || Line != kVariantFileStamp)
    return false; // Stale format version: recompile and overwrite.
  Variant Loaded;
  bool SawEnd = false;
  while (std::getline(In, Line)) {
    if (Line == "endheader") {
      SawEnd = true;
      break;
    }
    std::istringstream LS(Line);
    std::string Tag;
    LS >> Tag;
    if (Tag == "kind") {
      unsigned Kind8 = 0;
      LS >> Kind8;
      Loaded.Kind = static_cast<VariantKind>(Kind8);
    } else if (Tag == "local") {
      LS >> Loaded.Local.X >> Loaded.Local.Y;
    } else if (Tag == "localmem") {
      LS >> Loaded.LocalMemWords;
    } else if (Tag == "div") {
      LS >> Loaded.DivX >> Loaded.DivY;
    } else {
      return false; // Unknown header record: treat as corrupt.
    }
    if (LS.fail())
      return false;
  }
  if (!SawEnd || Loaded.Kind != Kind)
    return false;
  std::ostringstream Body;
  Body << In.rdbuf();
  Expected<ir::Function *> F = ir::deserializeFunction(*M, Body.str());
  if (!F)
    return false;
  // The deserializer checks structure only; re-verify the full per-opcode
  // type contracts before the kernel can reach a launch.
  if (Error E = ir::verifyFunction(**F)) {
    M->takeFunction(*F);
    return false;
  }
  // Keep reloaded names unique: a fresh session's NameCounter restarts,
  // so a later compile could otherwise mint the same name.
  if ((*F)->name().empty() ||
      M->function((*F)->name()) != *F)
    (*F)->setName(format("%s.disk%u", (*F)->name().c_str(), NameCounter++));
  Loaded.K = Kernel{*F};
  V = Loaded;
  return true;
}

void Session::storeVariantToDisk(uint64_t ContentKey, const Variant &V) {
  if (!V.K.F || V.isTwoPass())
    return; // Two-pass chains are assembled above the Session.
  const std::string Path =
      DiskCacheDir + "/" + format("%016llx.kpv",
                                  static_cast<unsigned long long>(ContentKey));
  // Write-to-temp + rename keeps concurrent processes sharing one cache
  // directory safe: readers only ever see complete files.
  const std::string Tmp =
      Path + format(".tmp.%ld", static_cast<long>(::getpid()));
  {
    std::ofstream Out(Tmp, std::ios::trunc | std::ios::binary);
    if (!Out)
      return; // Best effort: an unwritable cache never fails a compile.
    std::ostringstream Body;
    Body << kVariantFileStamp << "\n";
    Body << "kind " << static_cast<unsigned>(V.Kind) << "\n";
    Body << "local " << V.Local.X << " " << V.Local.Y << "\n";
    Body << "localmem " << V.LocalMemWords << "\n";
    Body << "div " << V.DivX << " " << V.DivY << "\n";
    Body << "endheader\n";
    Body << ir::serializeFunction(*V.K.F);
    Out << Body.str() << variantFileSum(Body.str());
    Out.flush();
    if (!Out) {
      Out.close();
      std::remove(Tmp.c_str());
      return;
    }
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return;
  }
  ++Stats.DiskVariantStores;
}
