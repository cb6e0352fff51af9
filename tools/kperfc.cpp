//===- tools/kperfc.cpp - Kernel perforation command-line driver -------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Developer tool over the library:
//
//   kperfc dump-ir <file.pcl> [--kernel name]
//       Compile and print the kernel's frontend IR.
//
//   kperfc analyze <file.pcl> [--kernel name]
//       Print the detected input footprints and output sites.
//
//   kperfc perforate <file.pcl> [--kernel name] [--scheme S] [--recon R]
//                    [--wg WxH] [--passes SPEC]
//       Apply the perforation transform and print the generated IR.
//       --passes selects the cleanup pipeline run over the perforated
//       clone (default: the mem2reg-led default pipeline); --time-passes
//       prints what it did.
//
//   kperfc run <file.pcl> --image in.pgm [--out out.pgm] [--kernel name]
//              [--scheme S] [--recon R] [--wg WxH] [--passes SPEC]
//       Run a kernel(in, out, w, h) image filter on a PGM file,
//       accurately or perforated, and report simulated time + quality.
//       --passes selects the perforated variant's cleanup pipeline;
//       --time-passes prints its per-pass statistics.
//
//   Commands that launch kernels (run, tune) simulate on the execution
//   tier $KPERF_EXEC_TIER names (default: the tree walker). Both tiers
//   produce byte-identical outputs and identical SimReport counters; the
//   batched tier is just faster wall-clock.
//
//   kperfc tune <file.pcl> [--kernel name] [--image in.pgm] [--budget E]
//               [--size N] [--jobs N]
//       Explore scheme x reconstruction x work-group configurations for a
//       kernel(in, out, w, h) filter, print the Pareto front, and pick
//       the fastest configuration whose error stays within the budget
//       (default 0.05). Without --image a synthetic natural image of
//       edge length --size (default 256; must be a multiple of 128) is
//       used. The whole sweep shares one rt::Session, so the source is
//       compiled once and every unique (scheme, tile, pipeline) variant
//       at most once; the final "session:" line reports the compile
//       counts, the variant-cache hit rate, and the buffer-reuse counts.
//       --jobs N evaluates configurations on N worker threads (0 = one
//       per hardware thread; default 1) -- results and the chosen
//       configuration are identical to the serial sweep.
//
//   kperfc lint <file.pcl> [--kernel name] [--passes SPEC] [--wg WxH]
//               [--Werror] [--time-passes]
//       Run the static kernel checks (ir/Lint.h: out-of-bounds accesses,
//       barriers under divergent control flow, local-memory races,
//       never-initialized private loads, division by zero) over every
//       kernel in the file, after the default cleanup pipeline (or
//       --passes). --wg seeds the range analysis with the local shape.
//       Exit 1 when any error-severity diagnostic fires (warnings too
//       under --Werror); --time-passes adds the analysis-cache counters.
//
//   kperfc passes <file.pcl> [--kernel name] [--passes SPEC]
//               [--time-passes] [--verify-each]
//       Run an optimization pipeline on the kernel and print the
//       per-pass change counts with net IR-size and static-ALU deltas
//       (and, with --time-passes, wall-clock timings) plus the
//       optimized IR. The default pipeline is
//       mem2reg,unroll,fixpoint(simplify,sroa,mem2reg,gvn,
//       memopt-forward,licm,memopt-dse,dce); --passes accepts any
//       spec in that grammar,
//       including parameterized passes such as unroll(512), e.g.
//       --passes=fixpoint(simplify,gvn,dce). Invoking kperfc with
//       --passes and no command is shorthand for the passes command.
//       See docs/PASSES.md for the full grammar and pass reference.
//
// Schemes: baseline | rows1 | rows2 | cols1 | cols2 | stencil
// Recon:   nn | li
//
// Flags may appear anywhere and accept both "--flag value" and
// "--flag=value". --passes also optimizes the compiled kernel for
// dump-ir; --time-passes adds per-variant pass statistics to tune.
//
//===----------------------------------------------------------------------===//

#include "img/Generators.h"
#include "img/Metrics.h"
#include "img/PGM.h"
#include "ir/Lint.h"
#include "ir/Passes.h"
#include "ir/Printer.h"
#include "perforation/AccessAnalysis.h"
#include "perforation/Pareto.h"
#include "perforation/Tuner.h"
#include "pcl/Compiler.h"
#include "runtime/Session.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

using namespace kperf;

namespace {

struct Options {
  std::string Command;
  std::string File;
  std::string KernelName; ///< Empty: first kernel in the file.
  std::string ImagePath;
  std::string OutPath;
  perf::PerforationScheme Scheme = perf::PerforationScheme::none();
  bool SchemeGiven = false;
  unsigned WgX = 16, WgY = 16;
  double Budget = 0.05;
  unsigned Size = 256; ///< tune: synthetic-image edge length.
  unsigned Jobs = 1;   ///< tune: worker threads (0 = hardware threads).
  std::string PassSpec; ///< --passes pipeline spec.
  bool PassSpecGiven = false;
  bool TimePasses = false;
  bool VerifyEach = false;
  bool Werror = false; ///< lint: warnings also fail the exit code.
};

int usage() {
  std::fprintf(stderr,
               "usage: kperfc <dump-ir|analyze|perforate|run|tune|passes|"
               "lint> <file.pcl>\n"
               "              [--kernel NAME] [--scheme baseline|rows1|"
               "rows2|cols1|cols2|stencil]\n"
               "              [--recon nn|li] [--wg WxH]\n"
               "              [--image in.pgm] [--out out.pgm] "
               "[--budget E] [--size N]\n"
               "              [--jobs N] [--passes SPEC] [--time-passes] "
               "[--verify-each] [--Werror]\n"
               "       kperfc --passes=SPEC [--time-passes] <file.pcl>\n");
  return 2;
}

bool parseScheme(const std::string &Name, perf::PerforationScheme &S) {
  if (Name == "baseline")
    S = perf::PerforationScheme::none();
  else if (Name == "rows1")
    S.Kind = perf::SchemeKind::Rows, S.Period = 2;
  else if (Name == "rows2")
    S.Kind = perf::SchemeKind::Rows, S.Period = 4;
  else if (Name == "cols1")
    S.Kind = perf::SchemeKind::Cols, S.Period = 2;
  else if (Name == "cols2")
    S.Kind = perf::SchemeKind::Cols, S.Period = 4;
  else if (Name == "stencil")
    S = perf::PerforationScheme::stencil();
  else
    return false;
  return true;
}

Expected<Options> parseArgs(int Argc, char **Argv) {
  Options O;
  std::vector<std::string> Positional;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (!startsWith(A, "--")) {
      Positional.push_back(A);
      continue;
    }
    // Split "--flag=value" into the flag and an inline value.
    std::string Inline;
    bool HasInline = false;
    size_t Eq = A.find('=');
    if (Eq != std::string::npos) {
      Inline = A.substr(Eq + 1);
      HasInline = true;
      A = A.substr(0, Eq);
    }
    auto next = [&]() -> Expected<std::string> {
      if (HasInline)
        return Inline;
      if (I + 1 >= Argc)
        return makeError("missing value after %s", A.c_str());
      return std::string(Argv[++I]);
    };
    // Flags that take no value reject an inline one ("--flag=x").
    auto noValue = [&]() -> Error {
      if (HasInline)
        return makeError("option %s takes no value", A.c_str());
      return Error::success();
    };
    if (A == "--passes") {
      auto V = next();
      if (!V)
        return V.takeError();
      O.PassSpec = *V;
      O.PassSpecGiven = true;
    } else if (A == "--time-passes") {
      if (Error E = noValue())
        return E;
      O.TimePasses = true;
    } else if (A == "--verify-each") {
      if (Error E = noValue())
        return E;
      O.VerifyEach = true;
    } else if (A == "--Werror") {
      if (Error E = noValue())
        return E;
      O.Werror = true;
    } else if (A == "--kernel") {
      auto V = next();
      if (!V)
        return V.takeError();
      O.KernelName = *V;
    } else if (A == "--scheme") {
      auto V = next();
      if (!V)
        return V.takeError();
      if (!parseScheme(*V, O.Scheme))
        return makeError("unknown scheme '%s'", V->c_str());
      O.SchemeGiven = true;
    } else if (A == "--recon") {
      auto V = next();
      if (!V)
        return V.takeError();
      if (*V == "nn")
        O.Scheme.Recon = perf::ReconstructionKind::NearestNeighbor;
      else if (*V == "li")
        O.Scheme.Recon = perf::ReconstructionKind::Linear;
      else
        return makeError("unknown reconstruction '%s'", V->c_str());
    } else if (A == "--wg") {
      auto V = next();
      if (!V)
        return V.takeError();
      if (std::sscanf(V->c_str(), "%ux%u", &O.WgX, &O.WgY) != 2)
        return makeError("bad --wg value '%s' (expected WxH)", V->c_str());
    } else if (A == "--image") {
      auto V = next();
      if (!V)
        return V.takeError();
      O.ImagePath = *V;
    } else if (A == "--out") {
      auto V = next();
      if (!V)
        return V.takeError();
      O.OutPath = *V;
    } else if (A == "--budget") {
      auto V = next();
      if (!V)
        return V.takeError();
      if (!parseNonNegative(*V, O.Budget))
        return makeError("bad --budget value '%s' (expected a finite "
                         "number >= 0)",
                         V->c_str());
    } else if (A == "--size") {
      auto V = next();
      if (!V)
        return V.takeError();
      unsigned N = 0;
      if (!parseUnsigned(*V, N) || N == 0 || N % 128 != 0)
        return makeError("bad --size value '%s' (expected a positive "
                         "multiple of 128)",
                         V->c_str());
      O.Size = N;
    } else if (A == "--jobs") {
      auto V = next();
      if (!V)
        return V.takeError();
      if (!parseUnsigned(*V, O.Jobs))
        return makeError("bad --jobs value '%s' (expected a non-negative "
                         "integer; 0 = hardware threads)",
                         V->c_str());
    } else {
      return makeError("unknown option '%s'", A.c_str());
    }
  }
  // Two positionals: command + file. One positional with --passes:
  // shorthand for the passes command on that file.
  if (Positional.size() == 2) {
    O.Command = Positional[0];
    O.File = Positional[1];
  } else if (Positional.size() == 1 && O.PassSpecGiven) {
    O.Command = "passes";
    O.File = Positional[0];
  } else if (Positional.size() > 2) {
    return makeError("unexpected extra argument '%s'",
                     Positional[2].c_str());
  } else {
    return makeError("missing command or file");
  }
  return O;
}

Expected<std::string> readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return makeError("cannot open '%s'", Path.c_str());
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Compiles the requested (or first) kernel of the file in \p S.
Expected<rt::Kernel> compileFrom(rt::Session &S, const Options &O,
                                 const std::string &Source) {
  if (!O.KernelName.empty())
    return S.compile(Source, O.KernelName);
  Expected<std::vector<rt::Kernel>> All = S.compileAll(Source);
  if (!All)
    return All.takeError();
  return All->front();
}

/// Compiles the requested (or first) kernel of the file into \p M with
/// \p CO, outside any Session, so that dump-ir and passes start from the
/// frontend IR rather than a session's promoted kernel.
Expected<ir::Function *> compileFrontend(ir::Module &M, const Options &O,
                                         const std::string &Source,
                                         const pcl::CompileOptions &CO) {
  if (!O.KernelName.empty())
    return pcl::compileKernel(M, Source, O.KernelName, CO);
  Expected<std::vector<ir::Function *>> All = pcl::compile(M, Source, CO);
  if (!All)
    return All.takeError();
  return All->front();
}

int cmdDumpIR(const Options &O, const std::string &Source) {
  // --passes runs over the compiled kernel as a post-verify step.
  pcl::CompileOptions CO;
  if (O.PassSpecGiven) {
    CO.PipelineSpec = O.PassSpec;
    CO.VerifyEach = O.VerifyEach;
  }
  ir::Module M;
  Expected<ir::Function *> F = compileFrontend(M, O, Source, CO);
  if (!F) {
    std::fprintf(stderr, "error: %s\n", F.error().message().c_str());
    return 1;
  }
  std::fputs(ir::printFunction(**F).c_str(), stdout);
  return 0;
}

int cmdAnalyze(const Options &O, const std::string &Source) {
  rt::Session Ctx;
  Expected<rt::Kernel> K = compileFrom(Ctx, O, Source);
  if (!K) {
    std::fprintf(stderr, "error: %s\n", K.error().message().c_str());
    return 1;
  }
  Expected<perf::KernelAccessInfo> Info =
      perf::analyzeKernelAccesses(*K->F);
  if (!Info) {
    std::fprintf(stderr, "error: %s\n", Info.error().message().c_str());
    return 1;
  }
  std::printf("kernel %s:\n", K->F->name().c_str());
  for (const perf::BufferAccess &A : Info->Inputs)
    std::printf("  input  %-10s footprint dy=[%d,%d] dx=[%d,%d] "
                "halo=%dx%d stride=%s (%zu loads)\n",
                A.Buffer->name().c_str(), A.DyMin, A.DyMax, A.DxMin,
                A.DxMax, A.haloX(), A.haloY(),
                A.WidthArg->name().c_str(), A.Loads.size());
  for (const perf::StoreSite &S : Info->Outputs)
    std::printf("  output %-10s stride=%s\n", S.Buffer->name().c_str(),
                S.WidthArg->name().c_str());
  if (Info->UnmatchedInputLoads)
    std::printf("  (%u input loads did not match the 2-D pattern)\n",
                Info->UnmatchedInputLoads);
  if (Info->Inputs.empty())
    std::printf("  no perforatable input buffers\n");
  return 0;
}

int cmdPerforate(const Options &O, const std::string &Source) {
  rt::Session Ctx;
  Expected<rt::Kernel> K = compileFrom(Ctx, O, Source);
  if (!K) {
    std::fprintf(stderr, "error: %s\n", K.error().message().c_str());
    return 1;
  }
  perf::PerforationPlan Plan;
  Plan.Scheme = O.SchemeGiven
                    ? O.Scheme
                    : perf::PerforationScheme::rows(
                          2, perf::ReconstructionKind::NearestNeighbor);
  Plan.TileX = O.WgX;
  Plan.TileY = O.WgY;
  if (O.PassSpecGiven)
    Plan.PipelineSpec = O.PassSpec;
  Plan.VerifyEach = O.VerifyEach;
  Expected<rt::Variant> P = Ctx.perforate(*K, Plan);
  if (!P) {
    std::fprintf(stderr, "error: %s\n", P.error().message().c_str());
    return 1;
  }
  std::printf("; scheme %s, work group %ux%u, local memory %u words\n",
              Plan.Scheme.str().c_str(), P->Local.X, P->Local.Y,
              P->LocalMemWords);
  if (O.TimePasses)
    std::printf("; cleanup: %s\n", P->PassStats.str().c_str());
  std::fputs(ir::printFunction(*P->K.F).c_str(), stdout);
  return 0;
}

int cmdRun(const Options &O, const std::string &Source) {
  if (O.ImagePath.empty()) {
    std::fprintf(stderr, "error: run requires --image\n");
    return 1;
  }
  Expected<img::Image> In = img::readPGM(O.ImagePath);
  if (!In) {
    std::fprintf(stderr, "error: %s\n", In.error().message().c_str());
    return 1;
  }
  unsigned W = In->width(), H = In->height();
  if (W % O.WgX != 0 || H % O.WgY != 0) {
    std::fprintf(stderr,
                 "error: image %ux%u not divisible by work group %ux%u\n",
                 W, H, O.WgX, O.WgY);
    return 1;
  }

  rt::Session Ctx;
  Expected<rt::Kernel> K = compileFrom(Ctx, O, Source);
  if (!K) {
    std::fprintf(stderr, "error: %s\n", K.error().message().c_str());
    return 1;
  }
  unsigned InBuf = Ctx.createBufferFrom(In->pixels());
  unsigned OutBuf = Ctx.createBuffer(In->size());
  std::vector<sim::KernelArg> Args = {
      rt::arg::buffer(InBuf), rt::arg::buffer(OutBuf),
      rt::arg::i32(static_cast<int32_t>(W)),
      rt::arg::i32(static_cast<int32_t>(H))};

  // Accurate run (always, as the quality reference).
  Expected<sim::SimReport> Acc =
      Ctx.launch(*K, {W, H}, {O.WgX, O.WgY}, Args);
  if (!Acc) {
    std::fprintf(stderr, "error: %s\n", Acc.error().message().c_str());
    return 1;
  }
  std::vector<float> Reference = Ctx.buffer(OutBuf).downloadFloats();
  std::printf("accurate:   %.4f ms (%llu read tx)\n", Acc->TimeMs,
              static_cast<unsigned long long>(
                  Acc->Totals.GlobalReadTransactions));

  std::vector<float> Final = Reference;
  if (O.SchemeGiven && O.Scheme.Kind != perf::SchemeKind::None) {
    perf::PerforationPlan Plan;
    Plan.Scheme = O.Scheme;
    Plan.TileX = O.WgX;
    Plan.TileY = O.WgY;
    if (O.PassSpecGiven)
      Plan.PipelineSpec = O.PassSpec;
    Plan.VerifyEach = O.VerifyEach;
    Expected<rt::Variant> P = Ctx.perforate(*K, Plan);
    if (!P) {
      std::fprintf(stderr, "error: %s\n", P.error().message().c_str());
      return 1;
    }
    Expected<sim::SimReport> App = Ctx.launch(*P, {W, H}, Args);
    if (!App) {
      std::fprintf(stderr, "error: %s\n", App.error().message().c_str());
      return 1;
    }
    Final = Ctx.buffer(OutBuf).downloadFloats();
    std::printf("perforated: %.4f ms (%llu read tx)  [%s]\n", App->TimeMs,
                static_cast<unsigned long long>(
                    App->Totals.GlobalReadTransactions),
                O.Scheme.str().c_str());
    if (O.TimePasses)
      std::printf("cleanup:    %s\n", P->PassStats.str().c_str());
    std::printf("speedup:    %.2fx\n", Acc->TimeMs / App->TimeMs);
    std::printf("MRE:        %.5f   mean error: %.5f   PSNR: %.1f dB\n",
                img::meanRelativeError(Reference, Final),
                img::meanError(Reference, Final),
                img::psnr(Reference, Final));
  }

  if (!O.OutPath.empty()) {
    img::Image Out(W, H);
    Out.pixels() = Final;
    if (Error E = img::writePGM(Out, O.OutPath)) {
      std::fprintf(stderr, "error: %s\n", E.message().c_str());
      return 1;
    }
    std::printf("wrote %s\n", O.OutPath.c_str());
  }
  return 0;
}

int cmdTune(const Options &O, const std::string &Source) {
  // Workload: the user's PGM, or a synthetic natural image whose edge
  // length every Fig. 9 work-group shape divides.
  img::Image In(O.Size, O.Size);
  if (!O.ImagePath.empty()) {
    Expected<img::Image> Loaded = img::readPGM(O.ImagePath);
    if (!Loaded) {
      std::fprintf(stderr, "error: %s\n",
                   Loaded.error().message().c_str());
      return 1;
    }
    In = *Loaded;
  } else {
    In = img::generateImage(img::ImageClass::Natural, O.Size, O.Size, 11);
  }
  unsigned W = In.width(), H = In.height();

  // One session for the whole sweep: the source compiles once, every
  // unique (scheme, tile, pipeline) variant compiles at most once, and
  // the accurate baseline is measured once per work-group shape instead
  // of once per configuration.
  rt::Session S;
  Expected<rt::Kernel> K = compileFrom(S, O, Source);
  if (!K) {
    std::fprintf(stderr, "error: %s\n", K.error().message().c_str());
    return 1;
  }

  std::vector<perf::TunerConfig> Space = perf::defaultTuningSpace();

  // Accurate output once, as the quality reference (the kernel as
  // written, launched as the session's optimized copy of it the way an
  // OpenCL compiler would build it, is also the speedup denominator --
  // for arbitrary user kernels we cannot know whether a local-prefetch
  // baseline would be faster, so the tool reports speedup vs. the
  // unmodified kernel), and accurate timing per work-group shape in the
  // space (timing does not depend on input content, so one launch per
  // shape covers all schemes at it; the reference launch covers 16x16).
  // Both are measured up front on checked-out buffers so the sweep
  // itself only reads them -- that is what lets worker threads evaluate
  // configurations concurrently.
  std::vector<float> Reference;
  std::map<std::pair<unsigned, unsigned>, double> AccurateMs;
  {
    unsigned InBuf = S.createBufferFrom(In.pixels());
    unsigned OutBuf = S.createBuffer(In.size());
    std::vector<sim::KernelArg> Args = {
        rt::arg::buffer(InBuf), rt::arg::buffer(OutBuf),
        rt::arg::i32(static_cast<int32_t>(W)),
        rt::arg::i32(static_cast<int32_t>(H))};
    Expected<sim::SimReport> R = S.launch(*K, {W, H}, {16, 16}, Args);
    if (!R) {
      std::fprintf(stderr, "error: %s\n", R.error().message().c_str());
      return 1;
    }
    Reference = S.buffer(OutBuf).downloadFloats();
    AccurateMs.emplace(std::make_pair(16u, 16u), R->TimeMs);
    for (const perf::TunerConfig &Config : Space) {
      auto Key = std::make_pair(Config.TileX, Config.TileY);
      if (AccurateMs.count(Key) || W % Config.TileX != 0 ||
          H % Config.TileY != 0)
        continue;
      Expected<sim::SimReport> T =
          S.launch(*K, {W, H}, {Config.TileX, Config.TileY}, Args);
      if (!T) {
        std::fprintf(stderr, "error: %s\n", T.error().message().c_str());
        return 1;
      }
      AccurateMs.emplace(Key, T->TimeMs);
    }
    S.releaseBuffer(InBuf);
    S.releaseBuffer(OutBuf);
  }

  // Thread-safe evaluation: the session serializes variant compiles (a
  // concurrent duplicate request blocks, then hits the cache), and each
  // evaluation checks out its own input/output buffers from the session
  // free list, runs its own simulator instance, and releases them.
  perf::EvaluateFn Evaluate =
      [&](const perf::TunerConfig &Config)
      -> Expected<perf::Measurement> {
    if (W % Config.TileX != 0 || H % Config.TileY != 0)
      return makeError("image %ux%u not divisible by %ux%u", W, H,
                       Config.TileX, Config.TileY);
    auto Acc = AccurateMs.find({Config.TileX, Config.TileY});
    if (Acc == AccurateMs.end())
      return makeError("no accurate baseline at %ux%u", Config.TileX,
                       Config.TileY);
    if (Config.Scheme.Kind == perf::SchemeKind::None &&
        Config.LoopStride <= 1)
      return perf::Measurement{1.0, 0.0, {}};
    perf::PerforationPlan Plan;
    Plan.Scheme = Config.Scheme;
    Plan.TileX = Config.TileX;
    Plan.TileY = Config.TileY;
    // The stride axis rides in the pipeline spec (VariantKey embeds the
    // spec, so strided variants cache under distinct keys for free).
    Plan.PipelineSpec = perf::jointPipelineSpec(
        O.PassSpecGiven ? O.PassSpec : Plan.PipelineSpec,
        Config.LoopStride);
    Plan.VerifyEach = O.VerifyEach;
    Expected<rt::Variant> P = S.perforate(*K, Plan);
    if (!P)
      return P.takeError();
    unsigned InBuf = S.createBufferFrom(In.pixels());
    unsigned OutBuf = S.createBuffer(In.size());
    Expected<sim::SimReport> App = S.launch(
        *P, {W, H},
        {rt::arg::buffer(InBuf), rt::arg::buffer(OutBuf),
         rt::arg::i32(static_cast<int32_t>(W)),
         rt::arg::i32(static_cast<int32_t>(H))});
    if (!App) {
      S.releaseBuffer(InBuf);
      S.releaseBuffer(OutBuf);
      return App.takeError();
    }
    perf::Measurement M;
    M.Speedup = Acc->second / App->TimeMs;
    M.Error = img::meanRelativeError(Reference,
                                     S.buffer(OutBuf).downloadFloats());
    M.PassStats = P->PassStats;
    S.releaseBuffer(InBuf);
    S.releaseBuffer(OutBuf);
    return M;
  };

  std::printf("tuning over %zu configurations on %ux%u input (%u %s)"
              "...\n\n",
              Space.size(), W, H, O.Jobs,
              O.Jobs == 1 ? "job" : "jobs");
  std::vector<perf::TunerResult> Results =
      perf::tuneParallel(Space, Evaluate, O.Jobs);

  unsigned Feasible = 0;
  for (const perf::TunerResult &R : Results)
    if (R.Feasible)
      ++Feasible;
  std::printf("%u/%zu configurations feasible\n\nPareto front:\n",
              Feasible, Results.size());
  std::vector<perf::TradeoffPoint> Points = toTradeoffPoints(Results);
  for (size_t I : perf::paretoFront(Points))
    std::printf("  %-24s speedup %5.2fx  MRE %.5f\n",
                Points[I].Label.c_str(), Points[I].Speedup,
                Points[I].Error);

  if (O.TimePasses) {
    std::printf("\nper-variant pass statistics:\n");
    for (const perf::TunerResult &R : Results)
      if (R.Feasible)
        std::printf("  %s\n", R.summary().c_str());
  }

  size_t Best = perf::bestWithinErrorBudget(Results, O.Budget);
  if (Best == ~size_t(0)) {
    std::printf("\nno configuration meets the %.3f budget\n", O.Budget);
  } else {
    std::printf("\nchosen for budget %.3f: %s (speedup %.2fx, "
                "MRE %.5f)\n",
                O.Budget, Results[Best].Config.str().c_str(),
                Results[Best].M.Speedup, Results[Best].M.Error);
    // Re-evaluate the winner through the variant cache: no
    // recompilation, and the cached variant reproduces the measurement
    // exactly.
    Expected<perf::Measurement> Re = Evaluate(Results[Best].Config);
    if (Re)
      std::printf("re-validated from cache: speedup %.2fx, MRE %.5f\n",
                  Re->Speedup, Re->Error);
  }
  std::printf("session: %s\n", S.stats().str().c_str());
  return 0;
}

int cmdLint(const Options &O, const std::string &Source) {
  rt::Session Ctx;
  // Lint the kernels as they would execute: the default cleanup
  // pipeline (or --passes) first, checks over the optimized SSA.
  pcl::CompileOptions CO;
  CO.PipelineSpec =
      O.PassSpecGiven ? O.PassSpec : ir::defaultPipelineSpec();
  CO.VerifyEach = O.VerifyEach;
  std::vector<rt::Kernel> Kernels;
  if (!O.KernelName.empty()) {
    Expected<rt::Kernel> K = Ctx.compile(Source, O.KernelName, CO);
    if (!K) {
      std::fprintf(stderr, "error: %s\n", K.error().message().c_str());
      return 1;
    }
    Kernels.push_back(*K);
  } else {
    Expected<std::vector<rt::Kernel>> All = Ctx.compileAll(Source, CO);
    if (!All) {
      std::fprintf(stderr, "error: %s\n", All.error().message().c_str());
      return 1;
    }
    Kernels = std::move(*All);
  }

  ir::lint::LintOptions LO;
  LO.Bounds.LocalSize[0] = O.WgX;
  LO.Bounds.LocalSize[1] = O.WgY;
  unsigned Errors = 0, Warnings = 0;
  for (const rt::Kernel &K : Kernels) {
    ir::lint::LintResult R = ir::lint::run(*K.F, Ctx.analyses(), LO);
    std::fputs(R.str().c_str(), stdout);
    Errors += R.numErrors();
    Warnings += R.numWarnings();
  }
  std::printf("%zu kernel%s checked: %u error%s, %u warning%s\n",
              Kernels.size(), Kernels.size() == 1 ? "" : "s", Errors,
              Errors == 1 ? "" : "s", Warnings,
              Warnings == 1 ? "" : "s");
  if (O.TimePasses)
    std::printf("analyses: %s\n",
                Ctx.analyses().counters().str().c_str());
  return Errors != 0 || (O.Werror && Warnings != 0) ? 1 : 0;
}

int cmdPasses(const Options &O, const std::string &Source) {
  ir::Module M;
  Expected<ir::Function *> F =
      compileFrontend(M, O, Source, pcl::CompileOptions());
  if (!F) {
    std::fprintf(stderr, "error: %s\n", F.error().message().c_str());
    return 1;
  }
  const std::string Spec =
      O.PassSpecGiven ? O.PassSpec : ir::defaultPipelineSpec();
  Expected<ir::PassPipeline> Pipeline = ir::PassPipeline::parse(Spec);
  if (!Pipeline) {
    std::fprintf(stderr, "error: %s\n",
                 Pipeline.error().message().c_str());
    return 1;
  }

  size_t Before = ir::functionInstructionCount(**F);

  ir::PassRunOptions RunOpts;
  RunOpts.VerifyEach = O.VerifyEach;
  ir::AnalysisManager AM;
  Expected<ir::PipelineStats> StatsOr = Pipeline->run(**F, M, AM, RunOpts);
  if (!StatsOr) {
    std::fprintf(stderr, "error: %s\n", StatsOr.error().message().c_str());
    return 1;
  }
  const ir::PipelineStats &Stats = *StatsOr;

  size_t After = ir::functionInstructionCount(**F);

  std::printf("; pipeline: %s\n", Pipeline->str().c_str());
  if (O.TimePasses)
    std::printf("; %-16s %6s %9s %8s %8s %9s\n", "pass", "runs",
                "changes", "d-instr", "d-alu", "ms");
  else
    std::printf("; %-16s %6s %9s %8s %8s\n", "pass", "runs", "changes",
                "d-instr", "d-alu");
  long long SizeDelta = 0, AluDelta = 0;
  for (const ir::PassExecution &E : Stats.Passes) {
    SizeDelta += E.SizeDelta;
    AluDelta += E.AluDelta;
    if (O.TimePasses)
      std::printf("; %-16s %6u %9u %+8lld %+8lld %9.3f\n", E.Name.c_str(),
                  E.Invocations, E.Changes, E.SizeDelta, E.AluDelta,
                  E.Millis);
    else
      std::printf("; %-16s %6u %9u %+8lld %+8lld\n", E.Name.c_str(),
                  E.Invocations, E.Changes, E.SizeDelta, E.AluDelta);
  }
  if (O.TimePasses)
    std::printf("; %-16s %6s %9u %+8lld %+8lld %9.3f  (%u rounds)\n",
                "total", "", Stats.total(), SizeDelta, AluDelta,
                Stats.totalMillis(), Stats.Iterations);
  else
    std::printf("; %-16s %6s %9u %+8lld %+8lld  (%u rounds)\n", "total",
                "", Stats.total(), SizeDelta, AluDelta, Stats.Iterations);
  std::printf("; instructions: %zu -> %zu\n", Before, After);
  if (O.TimePasses)
    std::printf("; analyses: %s\n", AM.counters().str().c_str());
  std::fputs(ir::printFunction(**F).c_str(), stdout);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Expected<Options> O = parseArgs(Argc, Argv);
  if (!O) {
    std::fprintf(stderr, "error: %s\n", O.error().message().c_str());
    return usage();
  }
  Expected<std::string> Source = readFile(O->File);
  if (!Source) {
    std::fprintf(stderr, "error: %s\n", Source.error().message().c_str());
    return 1;
  }
  if (O->Command == "dump-ir")
    return cmdDumpIR(*O, *Source);
  if (O->Command == "analyze")
    return cmdAnalyze(*O, *Source);
  if (O->Command == "perforate")
    return cmdPerforate(*O, *Source);
  if (O->Command == "run")
    return cmdRun(*O, *Source);
  if (O->Command == "tune")
    return cmdTune(*O, *Source);
  if (O->Command == "passes")
    return cmdPasses(*O, *Source);
  if (O->Command == "lint")
    return cmdLint(*O, *Source);
  std::fprintf(stderr, "error: unknown command '%s'\n",
               O->Command.c_str());
  return usage();
}
