//===- apps/App.cpp --------------------------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "apps/App.h"

#include "apps/Kernels.h"
#include "support/Rng.h"

using namespace kperf;
using namespace kperf::apps;

App::App(std::string Name, std::string Domain, bool UseMre)
    : Name(std::move(Name)), Domain(std::move(Domain)), UseMre(UseMre),
      PipelineSpec(ir::defaultPipelineSpec()) {}

App::~App() = default;

const char *App::metricName() const {
  return UseMre ? "Mean relative error" : "Mean error";
}

double App::score(const std::vector<float> &Reference,
                  const std::vector<float> &Test) const {
  return UseMre ? img::meanRelativeError(Reference, Test)
                : img::meanError(Reference, Test);
}

Expected<rt::Variant> App::buildPlain(rt::Session &S,
                                      sim::Range2 Local) const {
  Expected<rt::Kernel> K = S.compile(source(), kernelName());
  if (!K)
    return K.takeError();
  return S.accurate(*K, Local);
}

Expected<rt::Variant> App::buildBaseline(rt::Session &S,
                                         sim::Range2 Local) const {
  if (!baselineUsesLocalMemory())
    return buildPlain(S, Local);
  // The accurate local-prefetch baseline is the perforation machinery with
  // the "load everything" scheme.
  return buildPerforated(S, perf::PerforationScheme::none(), Local);
}

Expected<rt::Variant>
App::buildPerforated(rt::Session &S, perf::PerforationScheme Scheme,
                     sim::Range2 Local) const {
  Expected<rt::Kernel> K = S.compile(source(), kernelName());
  if (!K)
    return K.takeError();
  perf::PerforationPlan Plan;
  Plan.Scheme = Scheme;
  Plan.TileX = Local.X;
  Plan.TileY = Local.Y;
  Plan.PipelineSpec = pipelineSpec();
  Plan.VerifyEach = VerifyEach;
  return S.perforate(*K, Plan);
}

Expected<rt::Variant>
App::buildOutputApprox(rt::Session &S, perf::OutputSchemeKind Kind,
                       unsigned ApproxPerComputed,
                       sim::Range2 Local) const {
  Expected<rt::Kernel> K = S.compile(source(), kernelName());
  if (!K)
    return K.takeError();
  perf::OutputApproxPlan Plan;
  Plan.Kind = Kind;
  Plan.ApproxPerComputed = ApproxPerComputed;
  Plan.WidthArgIndex = widthArgIndex();
  Plan.HeightArgIndex = heightArgIndex();
  Plan.PipelineSpec = pipelineSpec();
  Plan.VerifyEach = VerifyEach;
  Expected<rt::Variant> V = S.approximateOutput(*K, Plan);
  if (!V)
    return V.takeError();
  V->Local = Local;
  return V;
}

namespace {

/// Accumulates the counters and modeled time of multiple launches.
void accumulate(sim::SimReport &Total, const sim::SimReport &Step) {
  Total.Totals += Step.Totals;
  Total.Cycles += Step.Cycles;
  Total.TimeMs += Step.TimeMs;
  Total.ComputeCycles += Step.ComputeCycles;
  Total.MemoryCycles += Step.MemoryCycles;
  Total.EnergyMJ += Step.EnergyMJ;
}

/// Image applications: signature kernel(in, out, w, h).
class ImageApp : public App {
public:
  using ReferenceFn = img::Image (*)(const img::Image &);

  ImageApp(std::string Name, std::string Domain, bool UseMre,
           const char *Source, ReferenceFn Ref, bool BaselineLocal)
      : App(std::move(Name), std::move(Domain), UseMre), Source(Source),
        Ref(Ref), BaselineLocal(BaselineLocal) {}

  const char *source() const override { return Source; }
  const char *kernelName() const override { return name().c_str(); }
  bool baselineUsesLocalMemory() const override { return BaselineLocal; }

  std::vector<float> reference(const Workload &W) const override {
    return Ref(W.Input).pixels();
  }

  Expected<RunOutcome> run(rt::Session &S, const rt::Variant &V,
                           const Workload &W) const override {
    unsigned Width = W.Input.width();
    unsigned Height = W.Input.height();
    unsigned In = S.createBufferFrom(W.Input.pixels());
    unsigned Out = S.createBuffer(W.Input.size());
    Expected<sim::SimReport> R = S.launch(
        V, sim::Range2{Width, Height},
        {rt::arg::buffer(In), rt::arg::buffer(Out),
         rt::arg::i32(static_cast<int32_t>(Width)),
         rt::arg::i32(static_cast<int32_t>(Height))});
    if (!R) {
      S.releaseBuffer(In);
      S.releaseBuffer(Out);
      return R.takeError();
    }
    RunOutcome Outcome;
    Outcome.Output = S.buffer(Out).downloadFloats();
    Outcome.Report = *R;
    // Return the workload buffers to the session free list: repeated and
    // concurrent runs (sweeps, the parallel tuner) reuse the slots
    // instead of growing the buffer table per run.
    S.releaseBuffer(In);
    S.releaseBuffer(Out);
    return Outcome;
  }

protected:
  unsigned widthArgIndex() const override { return 2; }
  unsigned heightArgIndex() const override { return 3; }

private:
  const char *Source;
  ReferenceFn Ref;
  bool BaselineLocal;
};

/// Hotspot: kernel(power, temp, out, w, h, cap, rx, ry, rz, amb), iterated
/// with temperature ping-pong buffers.
class HotspotApp : public App {
public:
  HotspotApp()
      : App("hotspot", "Physics simulation", /*UseMre=*/true) {}

  const char *source() const override { return hotspotSource(); }
  const char *kernelName() const override { return "hotspot"; }

  std::vector<float> reference(const Workload &W) const override {
    return referenceHotspot(W.Power, W.Input, W.Hotspot, W.Iterations)
        .pixels();
  }

  Expected<RunOutcome> run(rt::Session &S, const rt::Variant &V,
                           const Workload &W) const override {
    unsigned Width = W.Input.width();
    unsigned Height = W.Input.height();
    unsigned Power = S.createBufferFrom(W.Power.pixels());
    unsigned TempA = S.createBufferFrom(W.Input.pixels());
    unsigned TempB = S.createBuffer(W.Input.size());
    const HotspotParams &P = W.Hotspot;

    RunOutcome Outcome;
    unsigned Src = TempA, Dst = TempB;
    auto ReleaseAll = [&] {
      S.releaseBuffer(Power);
      S.releaseBuffer(TempA);
      S.releaseBuffer(TempB);
    };
    for (unsigned I = 0; I < W.Iterations; ++I) {
      Expected<sim::SimReport> R = S.launch(
          V, sim::Range2{Width, Height},
          {rt::arg::buffer(Power), rt::arg::buffer(Src),
           rt::arg::buffer(Dst), rt::arg::i32(static_cast<int32_t>(Width)),
           rt::arg::i32(static_cast<int32_t>(Height)), rt::arg::f32(P.Cap),
           rt::arg::f32(P.Rx), rt::arg::f32(P.Ry), rt::arg::f32(P.Rz),
           rt::arg::f32(P.Ambient)});
      if (!R) {
        ReleaseAll();
        return R.takeError();
      }
      accumulate(Outcome.Report, *R);
      std::swap(Src, Dst);
    }
    Outcome.Output = S.buffer(Src).downloadFloats();
    ReleaseAll();
    return Outcome;
  }

protected:
  unsigned widthArgIndex() const override { return 3; }
  unsigned heightArgIndex() const override { return 4; }
};

/// ConvolutionSeparable: two chained 1D convolution passes (row, then
/// column), each a kernel of its own, as in the NVIDIA-SDK benchmark
/// Paraprox evaluates (paper 4.3). Every variant builder builds *both*
/// passes into one two-pass rt::Variant and run() chains them through an
/// intermediate buffer. Output approximation shrinks only the second pass
/// -- the first pass must stay complete because the column pass reads
/// every intermediate row.
class ConvSepApp : public App {
public:
  ConvSepApp()
      : App("convsep", "Image processing", /*UseMre=*/true) {}

  const char *source() const override { return convSepRowSource(); }
  const char *kernelName() const override { return "convsep_row"; }

  std::vector<float> reference(const Workload &W) const override {
    return referenceConvSep(W.Input).pixels();
  }

  Expected<rt::Variant> buildPlain(rt::Session &S,
                                   sim::Range2 Local) const override {
    Expected<rt::Variant> V = App::buildPlain(S, Local);
    if (!V)
      return V.takeError();
    Expected<rt::Kernel> Col = S.compile(convSepColSource(), "convsep_col");
    if (!Col)
      return Col.takeError();
    V->K2 = *Col;
    V->Local2 = Local;
    return V;
  }

  Expected<rt::Variant>
  buildPerforated(rt::Session &S, perf::PerforationScheme Scheme,
                  sim::Range2 Local) const override {
    Expected<rt::Variant> V = App::buildPerforated(S, Scheme, Local);
    if (!V)
      return V.takeError();
    Expected<rt::Kernel> Col = S.compile(convSepColSource(), "convsep_col");
    if (!Col)
      return Col.takeError();
    perf::PerforationPlan Plan;
    Plan.Scheme = Scheme;
    Plan.TileX = Local.X;
    Plan.TileY = Local.Y;
    Plan.PipelineSpec = pipelineSpec();
    Plan.VerifyEach = verifyEach();
    Expected<rt::Variant> P = S.perforate(*Col, Plan);
    if (!P)
      return P.takeError();
    V->K2 = P->K;
    V->Local2 = P->Local;
    return V;
  }

  Expected<rt::Variant>
  buildOutputApprox(rt::Session &S, perf::OutputSchemeKind Kind,
                    unsigned ApproxPerComputed,
                    sim::Range2 Local) const override {
    Expected<rt::Variant> V = App::buildPlain(S, Local);
    if (!V)
      return V.takeError();
    Expected<rt::Kernel> Col = S.compile(convSepColSource(), "convsep_col");
    if (!Col)
      return Col.takeError();
    perf::OutputApproxPlan Plan;
    Plan.Kind = Kind;
    Plan.ApproxPerComputed = ApproxPerComputed;
    Plan.WidthArgIndex = widthArgIndex();
    Plan.HeightArgIndex = heightArgIndex();
    Plan.PipelineSpec = pipelineSpec();
    Plan.VerifyEach = verifyEach();
    Expected<rt::Variant> A = S.approximateOutput(*Col, Plan);
    if (!A)
      return A.takeError();
    V->Kind = rt::VariantKind::OutputApprox;
    V->K2 = A->K;
    V->Local2 = Local;
    V->DivX = A->DivX; // run() applies the shrink to pass 2 only.
    V->DivY = A->DivY;
    return V;
  }

  Expected<RunOutcome> run(rt::Session &S, const rt::Variant &V,
                           const Workload &W) const override {
    assert(V.isTwoPass() && "convsep variants are built with two passes");
    unsigned Width = W.Input.width();
    unsigned Height = W.Input.height();
    unsigned In = S.createBufferFrom(W.Input.pixels());
    unsigned Mid = S.createBuffer(W.Input.size());
    unsigned Out = S.createBuffer(W.Input.size());
    sim::Range2 Global{Width, Height};
    std::vector<sim::KernelArg> WidthHeight = {
        rt::arg::i32(static_cast<int32_t>(Width)),
        rt::arg::i32(static_cast<int32_t>(Height))};

    RunOutcome Outcome;
    auto ReleaseAll = [&] {
      S.releaseBuffer(In);
      S.releaseBuffer(Mid);
      S.releaseBuffer(Out);
    };
    Expected<sim::SimReport> R1 =
        S.launch(V.firstPass(), Global,
                 {rt::arg::buffer(In), rt::arg::buffer(Mid),
                  WidthHeight[0], WidthHeight[1]});
    if (!R1) {
      ReleaseAll();
      return R1.takeError();
    }
    accumulate(Outcome.Report, *R1);

    Expected<sim::SimReport> R2 =
        S.launch(V.secondPass(), Global,
                 {rt::arg::buffer(Mid), rt::arg::buffer(Out),
                  WidthHeight[0], WidthHeight[1]});
    if (!R2) {
      ReleaseAll();
      return R2.takeError();
    }
    accumulate(Outcome.Report, *R2);
    Outcome.Output = S.buffer(Out).downloadFloats();
    ReleaseAll();
    return Outcome;
  }

protected:
  unsigned widthArgIndex() const override { return 2; }
  unsigned heightArgIndex() const override { return 3; }
};

} // namespace

std::vector<std::unique_ptr<App>> apps::makeAllApps() {
  std::vector<std::unique_ptr<App>> Apps;
  Apps.push_back(makeApp("gaussian"));
  Apps.push_back(makeApp("median"));
  Apps.push_back(makeApp("hotspot"));
  Apps.push_back(makeApp("inversion"));
  Apps.push_back(makeApp("sobel3"));
  Apps.push_back(makeApp("sobel5"));
  return Apps;
}

std::vector<std::unique_ptr<App>> apps::makeExtensionApps() {
  std::vector<std::unique_ptr<App>> Apps;
  Apps.push_back(makeApp("mean"));
  Apps.push_back(makeApp("sharpen"));
  Apps.push_back(makeApp("convsep"));
  return Apps;
}

std::unique_ptr<App> apps::makeApp(const std::string &Name) {
  if (Name == "gaussian")
    return std::make_unique<ImageApp>(
        "gaussian", "Image processing", /*UseMre=*/true, gaussianSource(),
        &referenceGaussian, /*BaselineLocal=*/true);
  if (Name == "inversion")
    return std::make_unique<ImageApp>(
        "inversion", "Image processing", /*UseMre=*/true,
        inversionSource(), &referenceInversion, /*BaselineLocal=*/false);
  if (Name == "median")
    return std::make_unique<ImageApp>(
        "median", "Medical imaging", /*UseMre=*/true, medianSource(),
        &referenceMedian, /*BaselineLocal=*/true);
  if (Name == "sobel3")
    return std::make_unique<ImageApp>(
        "sobel3", "Image processing", /*UseMre=*/false, sobel3Source(),
        &referenceSobel3, /*BaselineLocal=*/true);
  if (Name == "sobel5")
    return std::make_unique<ImageApp>(
        "sobel5", "Image processing", /*UseMre=*/false, sobel5Source(),
        &referenceSobel5, /*BaselineLocal=*/true);
  if (Name == "hotspot")
    return std::make_unique<HotspotApp>();
  if (Name == "mean")
    return std::make_unique<ImageApp>(
        "mean", "Image processing", /*UseMre=*/true, meanSource(),
        &referenceMean, /*BaselineLocal=*/true);
  if (Name == "sharpen")
    return std::make_unique<ImageApp>(
        "sharpen", "Image processing", /*UseMre=*/false, sharpenSource(),
        &referenceSharpen, /*BaselineLocal=*/true);
  if (Name == "convsep")
    return std::make_unique<ConvSepApp>();
  return nullptr;
}

Workload apps::makeImageWorkload(img::Image Input) {
  Workload W;
  W.Input = std::move(Input);
  return W;
}

Workload apps::makeHotspotWorkload(unsigned Size, uint64_t Seed,
                                   unsigned Iterations) {
  Rng R(Seed);
  Workload W;
  W.Iterations = Iterations;

  // Power map: background leakage plus a few rectangular hot units,
  // mirroring the structure of Rodinia's generated power traces.
  img::Image Power(Size, Size, 0.05f);
  unsigned NumUnits = 3 + static_cast<unsigned>(R.below(4));
  for (unsigned U = 0; U < NumUnits; ++U) {
    unsigned X0 = static_cast<unsigned>(R.below(Size));
    unsigned Y0 = static_cast<unsigned>(R.below(Size));
    unsigned BW = Size / 8 + static_cast<unsigned>(R.below(Size / 4 + 1));
    unsigned BH = Size / 8 + static_cast<unsigned>(R.below(Size / 4 + 1));
    float P = static_cast<float>(R.uniform(0.5, 2.0));
    for (unsigned Y = Y0; Y < std::min(Size, Y0 + BH); ++Y)
      for (unsigned X = X0; X < std::min(Size, X0 + BW); ++X)
        Power.set(X, Y, P);
  }
  W.Power = std::move(Power);

  // Initial temperature: ambient plus a gentle gradient and noise.
  img::Image Temp(Size, Size);
  for (unsigned Y = 0; Y < Size; ++Y)
    for (unsigned X = 0; X < Size; ++X)
      Temp.set(X, Y,
               80.0f + 10.0f * static_cast<float>(X + Y) / (2.0f * Size) +
                   static_cast<float>(R.uniform(-0.5, 0.5)));
  W.Input = std::move(Temp);
  return W;
}
