//===- tests/ir_digest_test.cpp - Pinned IR of every generated kernel -------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Pins the printed IR of every kernel the library generates for the nine
// standard image kernels and hotspot:
//  * the launch copy rt::Session::compile optimizes (Kernel::Launch);
//  * every perf::defaultTuningSpace() configuration, built under
//    perf::jointPipelineSpec(ir::defaultPipelineSpec(), stride);
//  * cols(2, Linear) at every Fig. 9 shape with loop strides 1 and 2, the
//    one scheme of rt::Server's re-tune candidates the space lacks;
//  * for the nine standard kernels, the three output-approximation kinds
//    at ApproxPerComputed = 2.
// A change to a pass, the pipeline or a transform that is meant to be
// behaviour-neutral must leave every digest below unchanged.
//
// A kernel's digest is fnv1a64 over its configurations' labels and
// printed IR, in the order above; a refused configuration contributes
// "refused: <message>". Beside each digest sits one 16-bit fingerprint
// per configuration. The fingerprints gate nothing: they only name the
// first configuration whose IR changed when a digest no longer matches.
//
//===----------------------------------------------------------------------===//

#include "apps/App.h"
#include "apps/Kernels.h"
#include "ir/PassManager.h"
#include "ir/Printer.h"
#include "perforation/Tuner.h"
#include "runtime/Session.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

using namespace kperf;

namespace {

/// One generated kernel: its configuration label and printed IR (or the
/// refusal).
struct Generated {
  std::string Label;
  std::string Text;
};

/// Builds every pinned configuration of kernel \p Name in one session, in
/// a fixed order (the session's variant names count up along it).
std::vector<Generated> generate(const std::string &Name, const char *Source,
                                bool OutputApprox) {
  rt::Session S;
  rt::Kernel K = cantFail(S.compile(Source, Name));
  std::vector<Generated> Out;
  Out.push_back({"launch", ir::printFunction(*K.Launch)});
  auto Record = [&](std::string Label, const Expected<rt::Variant> &V) {
    Out.push_back({std::move(Label),
                   V ? ir::printFunction(*V->K.F)
                     : "refused: " + V.error().message()});
  };

  std::vector<perf::TunerConfig> Configs = perf::defaultTuningSpace();
  for (auto [X, Y] : perf::figure9WorkGroupShapes())
    for (unsigned Stride : {1u, 2u})
      Configs.push_back(perf::TunerConfig{
          perf::PerforationScheme::cols(2, perf::ReconstructionKind::Linear),
          X, Y, Stride});
  for (const perf::TunerConfig &C : Configs) {
    perf::PerforationPlan Plan;
    Plan.Scheme = C.Scheme;
    Plan.TileX = C.TileX;
    Plan.TileY = C.TileY;
    Plan.PipelineSpec =
        perf::jointPipelineSpec(ir::defaultPipelineSpec(), C.LoopStride);
    Record(C.str(), S.perforate(K, Plan));
  }

  if (OutputApprox)
    for (auto [Kind, Label] :
         {std::pair{perf::OutputSchemeKind::Rows, "output rows/2"},
          std::pair{perf::OutputSchemeKind::Cols, "output cols/2"},
          std::pair{perf::OutputSchemeKind::Center, "output center/2"}}) {
      perf::OutputApproxPlan Plan;
      Plan.Kind = Kind;
      Plan.ApproxPerComputed = 2;
      Plan.WidthArgIndex = 2; // kernel(in, out, w, h)
      Plan.HeightArgIndex = 3;
      Record(Label, S.approximateOutput(K, Plan));
    }
  return Out;
}

uint64_t digestOf(const std::vector<Generated> &All) {
  std::string Stream;
  for (const Generated &G : All)
    Stream += G.Label + "\n" + G.Text + "\n";
  return fnv1a64(Stream);
}

std::string fingerprintsOf(const std::vector<Generated> &All) {
  std::string Hex;
  for (const Generated &G : All)
    Hex += format("%04x", static_cast<unsigned>(
                              fnv1a64(G.Label + "\n" + G.Text) & 0xffff));
  return Hex;
}

/// The pinned values of one kernel.
struct Pinned {
  const char *Kernel;
  uint64_t Digest;
  const char *Fingerprints; ///< Four hex digits per configuration.
};

/// Renders \p Name's new values as a Pinned table entry.
std::string pinnedEntry(const std::string &Name, uint64_t Digest,
                        const std::string &Fingerprints) {
  std::string Entry =
      format("    {\"%s\", 0x%016llxull,\n", Name.c_str(),
             static_cast<unsigned long long>(Digest));
  for (size_t I = 0; I < Fingerprints.size(); I += 64)
    Entry += "     \"" + Fingerprints.substr(I, 64) + "\"\n";
  Entry.back() = '}';
  return Entry + ",\n";
}

void checkPinned(const Pinned &P, const std::vector<Generated> &All) {
  uint64_t Digest = digestOf(All);
  if (Digest == P.Digest)
    return;
  std::string Now = fingerprintsOf(All);
  std::string Was = P.Fingerprints;
  std::string First = "none (the configuration list changed length or a "
                      "fingerprint collided)";
  for (size_t I = 0; I < All.size() && 4 * I + 4 <= Was.size(); ++I)
    if (Now.compare(4 * I, 4, Was, 4 * I, 4) != 0) {
      First = All[I].Label;
      break;
    }
  ADD_FAILURE() << "kernel '" << P.Kernel << "': printed IR changed\n"
                << "  first changed configuration: " << First << "\n"
                << "  new digest: "
                << format("0x%016llx",
                          static_cast<unsigned long long>(Digest))
                << "\n  new table entry:\n"
                << pinnedEntry(P.Kernel, Digest, Now);
}

// clang-format off
const Pinned PinnedKernels[] = {
    {"gaussian", 0xeb71a77888fb8435ull,
     "d011d424053eb58ca3bca25cad70100b412548a92103dc738207e4c3d00121f7"
     "6d3f75357ec351ac15a03dcfc47f07accf72747cffea71e876e05a9205d6cef8"
     "0e8413fc038e5a40bb107edb081d24db46573c50c002ceb3daa71918d73cd514"
     "9652b41acc8cc42e0bbc9caacc46eb10cfaa46e0c7886f581aee652abcee9d10"
     "cb72c7a8c7927766514a8b00e4402352955ae54a81305c7252aef951e027b7a9"
     "4f798b663f30814279ba801f197f54b5ae1bf81ba9c584cfb26d5e03164b12ad"
     "4e6701e515318ebbdd39fa2a41880d0f5ceb3f611249419726cdcc1f5309b2ab"
     "8fa13d0049d8778d30fb40d84a40b236b394fbae2c684909ef4d410eea66473d"
     "e877974341b550bb3945fd2f2b0f1c87b5651c2e2efe0b2223e4f52674c2a607"
     "586d6c10e672f2969a26e2c21e4ed04209b6226a69405bbe7dbeb7860ec0dfce"
     "25f6a087ef492e15"},
    {"inversion", 0x254945474e46f17bull,
     "7b1664d399ff0f0f2cfd04224aa8c9e3b38f54ad379dae58c54663f6b8d6ce10"
     "a2723e38622833ae1448f9be9100f34f801bbaf6d21e3d0c97becdd0688e5c7b"
     "008d8c6c59dcafa9ed6b31f2d5e288a35871e2cdd559cb20ae7624fd515f473f"
     "646736efff1b41c739d3f0f48b4a5e6778f70d3d15df40c3c493873bfbc18b43"
     "9efbd28f3b23ce9125cf5c615ad3f0e0a2fed1a55d7167fed8b47d9d211162d3"
     "b1e419282398a6cace5c9e9c4e2e0c4a9976867e3b963dee818e19778f1d92fe"
     "14d298184c5ad4826713a63fd7cfcbe1b573af7287a406ed6135855f3eebff14"
     "ae004ebefc2c19a4fbcc6c08e786700a9dce9315cee56342eee0aaba8ba086dd"
     "42659be1393d38a2b2d6dcb98b23b6888ca0ce334c3d217033bc8355c507ecb3"
     "937f3ec06c2c995d6cffbb1f4ab1e4ef7c4158f3eb97f489416bc4b053902583"
     "9c09df3a0d24199e"},
    {"median", 0x37ba464402a014aeull,
     "5163d8f6c31082f04a10f4685c0c8a3395ad53b5856f82fbbe9fe13d4b0b01d3"
     "808b0825a213f54830ccb20189313f8a394c4772adfc04cc4974598a594e32ca"
     "e3e65d540722eeea61facc01d48f0175c671d818357a8bcfc59336ea456e5f3c"
     "23ca27361bf02a38c426d1a2207ec126eac8ec028edae7e86a9e555261b6cafe"
     "565419bad788e80abe9ef5e024409a54b19c47a22a84c37816444f93aeb5ef03"
     "461350fcc0a25199afe10e3cba1c73102a06a18a1a2c3d880916bfce95d6fefe"
     "cbf89972c30e5e886e4676ff84bdb7403694884693ee5894f99ae7bc876e476e"
     "4024c4cda3554cc8be06c43bb1f34b5bec01448bc91596a2f026e12d67ed1564"
     "b646998ad9e4ea8cd33eb7cab622518c35fadb13485babeba295ede22d8e98c1"
     "571bde2ca0da32906d68eae08a8cdc3674ea2a4cc8f6bc3e9ff61d60879e109a"
     "cd1a72eb5251b400"},
    {"sobel3", 0xf5df55e4eba9d2b4ull,
     "cf2a812a702440f819f4071ceec4a2954cffc13b85d553cd99c10b1fe7094f45"
     "a44d914f4f51c33c3c40e9988f7876d1e84b427d58ef1727050ffea5e1013221"
     "79b511f709354ca9a3099af456a27154c918b9c1c753922207767e3f648388fd"
     "5203fdd799d12c41050fdf9b5cf75933bacd18c98671086d8b4bc4ee05b25b1e"
     "c3b4885e11fcd4c28d46e430fcc0bbc8e430a04a012c82580624288b342d0455"
     "8235c8c8d1f27dad6365bbb6e4a610daf214b1788e1e3052335cbfd4561cb9dc"
     "845ae7789844acbab2dc35b7548dbc0c7474bf9218a6ed6e97dc903a24bc9b44"
     "bae2d71df7b1b76ed81cdcc10af5bb731ce9fb3aeeeceed7724ff6149af89e19"
     "51f39c3b1a2d94f1ca8bcc0742bbb021042f69e844fc52462cb8e4a3530b5e50"
     "c1323667a9ddaf630bef419ff81f45219c393173667d8729fd5d47e1d4efac0b"
     "be5f4b2aa4f0ef61"},
    {"sobel5", 0xea605e5545019ef6ull,
     "c1d248e9d94474d1dac203c3dd22da90e7d9753ceebd052f9882aceb9590d7d2"
     "39d148588bf13b63bd64df70d33c204dd653e9de6b2227c401f67c468ff8dd21"
     "ab7357fea93a17660a44481cbc0c4648b928b6cd7f267f443c1db5f04e7781ee"
     "11fb8e849b3d11046ca53ecdba2aeffca50d31493e3af6b1cbe6b1f67cf61d59"
     "8babe9e2b0ac99ca8ade35189728c2cbde21bf68e174559ccb58e4b4c2b08d06"
     "f3f23c640b69cd15ec424653f8a84a4fc2926eb9dd441fe1c0ce45dac723ebf5"
     "700098d08669b65c2cc98fd35449070a63ce95a4dcbadbe61cce6ebe656a94ff"
     "e679aca8253832a210fac663af873e13f7394c63aac17a766b0a5056478ee8ad"
     "3c2724ab08293fb86f126c1d65a9f0ada27fcaef060f48eb209177a743b0acc4"
     "964d1ab6fe4b13595306821ad3055f9fac1e4f6be5d8a374339b9fab7d443f0f"
     "6a54ddd8ec42a0fb"},
    {"mean", 0x5fd01300359ea5beull,
     "3fceb5dfa05134e35b35dc0fa9fcf76cf01f3ad209c16ce4206db3e0feb31e54"
     "23dfae388d3209338a439ee543f53bfe5c621c50edc91e18871f00061241b02c"
     "bd8fc630741dcc3ce129092503a1a6ad84f5b448cf2540b7d57631fa7af8854e"
     "af7acd0c48f8cb7830200508e0ba815657346320f827585ccfb1df859cb8d363"
     "0bc3894921222263dcaa46e92ec87a4b8dde11cb9f8c41535c5083627e8ebb02"
     "4c1a0092a1047baa17eb44a335071eb551cfaaab1265d26fe75d25df717bbf05"
     "8d919b5d977852f7d8f63ffab48d21f7f39073bf55fd78b3936dd3130091f4ef"
     "650db2b0ea36c89da821980ead31353e1b01df44fb4b270d546cd0d065224435"
     "980dd26b41bfc0f7de1bc4472ef13eff89f97cfe9f15063c1a179ce96d11487c"
     "b58879a91b0c881b64f4c5378d1cc3835bf8e1a72fba697b757aa4f57f39aa51"
     "d86de2dbf4f4cdf0"},
    {"sharpen", 0x1771cc0b2aa1f8c7ull,
     "a7290312a456432802fa44f0c7d2a1c380770091b81978abe7f9b6e533e9ad7f"
     "1a41c21b69bf86ba25d08f656d6f739a75fac9f262ce146cd072d30e49702b8c"
     "84dacf56b1c2168c62fa298d801910a1fa5b5c143e44d247334d86823bdc6c78"
     "f34423ae2f0e9afe9566cc8c27eaaf7063ac342e7458e36c348054eedae4e614"
     "acf0d46696fe025a968c84acd73a014ea5602114c89c75a277348fa1bcd9308d"
     "7ef3fd505f1c9162615841b1dc7b181dd1fdf9f3608707fb338721f5b3d3ed59"
     "c3c1a701693b46a700577002876a5723b6e97d17a6edfa9bf6dba82b070f9a37"
     "254b1b34ffae692df735664c32b620fad0be122e81761539e743bce4e3369d1b"
     "7ddbaca948cd2c7982c5328735fddfbd6e25e9de427489faf056731a72ace21f"
     "4a23ec12b7e6965e2968b03e94186a9e406855043b78dc1ae9f40b44433ce83e"
     "581c6f6638561f47"},
    {"convsep_row", 0x489cda01be47d597ull,
     "4434f4f78703dc053953051bbbe10fea6126cfa6d03656195f2b2927ec1b1814"
     "6f8a4b28b5241017f139cc473bf1aff3f2a345466efab9ca10546c4dc6370932"
     "3dd4de9f38e31139f1df0bd1db65725f857d7fca86c2a89612347b38b0d64bd4"
     "6fc0403941e10397286fd0ca674c36fb5a37c80a6cfcf496fbda4c6484a22672"
     "56f6eb0f02cfc3fb6279f7a41ddaf51dcd838dde4a36ee52dc04f5ee4cd662d3"
     "b1e401af11a3552dc2eb2e8174ffc811cfd1dcf41a48d22470b07f8ff239ce60"
     "0a109f1143ebd482671332ad4bdd29dca3be6cf034522b60c4c8e26474e09029"
     "18ed3c4af67857ac454c0221266ff0e991152f14546c96f2d23c5cc49e52129d"
     "d40d484c12c89a4f48ab680e4f3872f8fb005d2881eeafb8cbf4e3b1ce171fa4"
     "28e82c3bdddfb1e02efe1c7db92fce73ae29ead3787f5026caa072b407ccf77e"
     "795848fb4a031cf8"},
    {"convsep_col", 0x6dec31a98b532143ull,
     "e7be5ec0fd94207095ca6e8dd9b780ac3c90e64c11e443a1386bba3b52cb8049"
     "dd478c3dc3fdbdddfbf385b09a9ef95cd6c8ad872827b56cb9ae53f0498a0c86"
     "0de835c498844ad96c0f3a045384ae643c72a6060cba8badc2e7581064623d71"
     "1569bd399255376e873217ac8e0a72bd49958875d9733f3c0d646352d854277b"
     "3e230bc01b74245d66ab4fd1d017bd0bede159e1e79d949c1cde0f3f7e6b1a33"
     "f3554653821b0468fada0f3388ed461c8eb092989d885ac72b87a8393b9f639c"
     "2e305b1cbd62e1316c4579e109d9b69a6bd81f8996f7fb1b9f4b37c934c53aee"
     "2072e2699d73eb7272ca0a0bf8b57ea4d5a8bf46c16edb51bb17382d7697da77"
     "8a27a0656451d5b76b438acf116d373826b0d5078ec1440d39b17e2424ba1d63"
     "e53f1313f26f20dd4a83d64e5ed838a67fa43cdbe58f56c9ac23a3612c3935ff"
     "2451fa96ad2f6435"},
    {"hotspot", 0x73efc7a0111f2b58ull,
     "199c6a97ae1bf6bbf2e965ba5198114e85d2ef7cff7c2807352d5519f6157be5"
     "c7c73346e65ae0784e7ee69116abbad6a1e65e318fbda29537d3a16928c3f336"
     "196c9adb4fd78d7a3cbc3e8b996f24359a3f67e4058c2d94c0a2ddf477d6ecd2"
     "7c46e592515a8896ceae3491061f8e96beeaa439a58b1e3cb740898debfb709d"
     "5a612986296e4c7c57caa12c1096bc1756856e52d5d278130cedab760ae6160b"
     "da7e526fc1a3448944afd881bda77abbd663b4cb6047bfcf7663d2768f08e337"
     "d82f7b50267ebca8634be43a3b9a2fb7e921fa8ea180d96913716de1e8c5aef4"
     "2c40af1d31e37518a8a0a680a8e68d7d1a99bb5e77f62c44a776cacd860f4ffb"
     "000bb1f7356b278679c251556ab3cfca00cafa5d8bb3d029f545fc5db61b01a6"
     "ed42ef8c01a0a2ab53eda78ffd8d3f8d44cf85e1add51e8d37b3c283944b090d"
     "6497"},
};
// clang-format on

const Pinned &pinned(const std::string &Kernel) {
  for (const Pinned &P : PinnedKernels)
    if (Kernel == P.Kernel)
      return P;
  ADD_FAILURE() << "no pinned digest for kernel '" << Kernel << "'";
  return PinnedKernels[0];
}

TEST(IrDigestTest, StandardKernelsKeepTheirIR) {
  std::vector<apps::ImageKernel> Kernels = apps::standardImageKernels();
  ASSERT_EQ(Kernels.size(), 9u);
  for (const apps::ImageKernel &K : Kernels)
    checkPinned(pinned(K.Name),
                generate(K.Name, K.Source, /*OutputApprox=*/true));
}

TEST(IrDigestTest, HotspotKeepsItsIR) {
  auto Hotspot = apps::makeApp("hotspot");
  checkPinned(pinned("hotspot"),
              generate(Hotspot->kernelName(), Hotspot->source(),
                       /*OutputApprox=*/false));
}

} // namespace
