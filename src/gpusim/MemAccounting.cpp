//===- gpusim/MemAccounting.cpp --------------------------------------------==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "gpusim/MemAccounting.h"

#include <algorithm>

using namespace kperf;
using namespace kperf::sim;

namespace {

constexpr bool isPow2(uint64_t X) { return X != 0 && (X & (X - 1)) == 0; }

} // namespace

void WriteKeySet::clear() {
  if (++Epoch == 0) {
    // Epoch counter wrapped: really wipe so stale tags cannot alias.
    std::fill(Slots.begin(), Slots.end(), Slot());
    Epoch = 1;
  }
  Count = 0;
  HaveLast = false;
}

void WriteKeySet::grow() {
  std::vector<Slot> Old(Slots.size() * 2);
  Old.swap(Slots);
  size_t Mask = Slots.size() - 1;
  for (const Slot &S : Old) {
    if (S.Epoch != Epoch)
      continue;
    size_t Idx = hash(S.Hi, S.Lo) & Mask;
    while (Slots[Idx].Epoch == Epoch)
      Idx = (Idx + 1) & Mask;
    Slots[Idx] = S;
  }
}

MemAccounting::MemAccounting(const DeviceConfig &Device, Counters &Out)
    : Out(Out), WavefrontSize(Device.WavefrontSize),
      SegmentBytes(Device.SegmentBytes), NumLocalBanks(Device.NumLocalBanks) {
  SegPow2 = isPow2(SegmentBytes) && SegmentBytes >= 4;
  if (SegPow2)
    for (unsigned S = SegmentBytes / 4; S > 1; S >>= 1)
      ++SegShiftWords;
  BankPow2 = isPow2(NumLocalBanks);
  BankMask = BankPow2 ? NumLocalBanks - 1 : 0;
}

void MemAccounting::beginLaunch(unsigned GroupItems, uint32_t LocalOps,
                                const std::vector<KernelArg> &Args,
                                const std::vector<BufferData *> &Buffers) {
  NumWf = (GroupItems + WavefrontSize - 1) / WavefrontSize;
  NumLocalOps = LocalOps;
  Epoch = 0;
  ExecCap = 0;
  LMax.clear();
  LBank.clear();
  PerBuf.assign(Buffers.size(), BufAcct());
  // Lay the argument buffers' (segment, wavefront) cells end to end. A
  // buffer two arguments name is laid out twice and keeps the later range.
  uint64_t NextCell = 0;
  for (const KernelArg &Arg : Args) {
    if (Arg.K != KernelArg::Kind::Buffer)
      continue;
    size_t Words = Buffers[Arg.BufferIndex]->size();
    BufAcct &B = PerBuf[Arg.BufferIndex];
    B.Cells = Words ? (segOfWord(Words - 1) + 1) * NumWf : 0;
    B.CellBase = NextCell;
    NextCell += B.Cells;
  }
}

void MemAccounting::beginGroup() {
  Writes.clear();
  if (++Epoch == 0) {
    for (BufAcct &B : PerBuf)
      std::fill(B.Seen.begin(), B.Seen.end(), 0u);
    std::fill(LMax.begin(), LMax.end(), AcctCell());
    std::fill(LBank.begin(), LBank.end(), AcctCell());
    Epoch = 1;
  }
}

void MemAccounting::allocBitmap(BufAcct &B) { B.Seen.assign(B.Cells, 0u); }

void MemAccounting::growLocal(uint32_t NeedExec) {
  // The layout is exec-major, so existing cells keep their indices.
  uint32_t NewCap = ExecCap ? ExecCap : 4;
  while (NewCap <= NeedExec)
    NewCap *= 2;
  size_t Groups = static_cast<size_t>(NewCap) * NumLocalOps * NumWf;
  LMax.resize(Groups);
  LBank.resize(Groups * NumLocalBanks);
  ExecCap = NewCap;
}
