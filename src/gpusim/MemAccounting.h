//===- gpusim/MemAccounting.h - Coalescing and bank accounting ---*- C++ -*-==//
//
// Part of the kernel-perforation project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory accounting both execution tiers share: coalesced global
/// transactions and local-memory bank conflicts, the two device counts
/// the paper's speedups rest on. An executor reports each lane's access
/// as it runs (in any item order) and the component adds to the work
/// group's Counters as it goes, so a group needs no fold at its end.
/// All per-group state lives in flat epoch-tagged arrays: starting a
/// group is one epoch increment, and nothing hashes except a write key
/// the last-key memo does not absorb.
///
///  * Reads: one transaction per unique (wavefront, buffer, segment) in
///    the group. This models coalescing (lanes of a wavefront touching
///    one segment share a transaction) and per-wavefront L1 reuse (a
///    segment the wavefront already fetched, e.g. through an
///    overlapping stencil tap, stays in L1). Reuse *across* wavefronts
///    is conservatively a miss -- that is what keeps an explicit
///    local-memory prefetch profitable, as on the paper's GPU. Kept as
///    one epoch bitmap per buffer over (segment, wavefront).
///  * Writes: one transaction per unique (store instruction, exec
///    instance, wavefront, buffer, segment). Writes drain through
///    write-combining buffers per store burst, so partially filled
///    segments (the strided stores of a column scheme) are not merged
///    across instructions (paper 6.4). Kept as an open-addressing set of
///    exact two-word keys behind a last-key memo.
///  * Local: lanes of one (local op, exec instance, wavefront) access
///    group that hit the same bank serialize; the group costs one
///    LocalWavefrontOps and (most lanes on one bank) - 1
///    BankConflictExtra. Kept in direct-indexed arrays laid out
///    exec-major, grown geometrically in the exec dimension.
///
//===----------------------------------------------------------------------===//

#ifndef KPERF_GPUSIM_MEMACCOUNTING_H
#define KPERF_GPUSIM_MEMACCOUNTING_H

#include "gpusim/Buffer.h"
#include "gpusim/DeviceConfig.h"
#include "gpusim/Interpreter.h"
#include "gpusim/SimReport.h"

#include <cstdint>
#include <vector>

namespace kperf {
namespace sim {

/// Counter cell whose tag says which work group wrote it; a cell with a
/// stale tag reads as zero.
struct AcctCell {
  uint32_t V = 0;
  uint32_t E = 0;
};

/// Open-addressing set of write-coalescing keys with O(1) epoch clear,
/// fronted by a memo of the last key (consecutive lanes storing into one
/// segment repeat it). Keys are exec-numbered, hence unbounded, which is
/// why writes are not direct-indexed like reads and local accesses.
class WriteKeySet {
public:
  WriteKeySet() : Slots(1024) {}

  /// Empties the set: one epoch increment.
  void clear();

  /// Returns true if (\p Hi, \p Lo) was newly inserted.
  bool insert(uint64_t Hi, uint64_t Lo) {
    if (HaveLast && Hi == LastHi && Lo == LastLo)
      return false;
    HaveLast = true;
    LastHi = Hi;
    LastLo = Lo;
    if ((Count + 1) * 10 >= Slots.size() * 7)
      grow();
    size_t Mask = Slots.size() - 1;
    for (size_t Idx = hash(Hi, Lo) & Mask;; Idx = (Idx + 1) & Mask) {
      Slot &S = Slots[Idx];
      if (S.Epoch != Epoch) {
        S = Slot{Hi, Lo, Epoch};
        ++Count;
        return true;
      }
      if (S.Hi == Hi && S.Lo == Lo)
        return false;
    }
  }

private:
  struct Slot {
    uint64_t Hi = 0;
    uint64_t Lo = 0;
    uint32_t Epoch = 0;
  };

  static uint64_t hash(uint64_t Hi, uint64_t Lo) {
    uint64_t X = Lo ^ (Hi * 0x9e3779b97f4a7c15ull);
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
    X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
    return X ^ (X >> 31);
  }

  void grow();

  std::vector<Slot> Slots;
  uint32_t Epoch = 1;
  size_t Count = 0;
  uint64_t LastHi = 0, LastLo = 0;
  bool HaveLast = false;
};

/// One launch's memory accounting; see the file comment for the model.
/// Global accesses name their buffer by its index in the launch's buffer
/// bank, local accesses by their word offset. Accesses must be in bounds
/// (executors report them after their bounds check).
class MemAccounting {
public:
  /// Accounting that adds to \p Out, which the executor resets between
  /// work groups.
  MemAccounting(const DeviceConfig &Device, Counters &Out);

  /// Sizes the accounting for a launch of \p GroupItems items per group
  /// with \p LocalOps local load/store instructions, over the buffers
  /// \p Args name in \p Buffers (other entries of \p Buffers are never
  /// read).
  void beginLaunch(unsigned GroupItems, uint32_t LocalOps,
                   const std::vector<KernelArg> &Args,
                   const std::vector<BufferData *> &Buffers);

  /// Forgets every access of the previous work group.
  void beginGroup();

  uint64_t segOfWord(uint64_t WordOff) const {
    return SegPow2 ? WordOff >> SegShiftWords : WordOff * 4 / SegmentBytes;
  }

  uint32_t bankOf(int32_t WordOff) const {
    uint32_t W = static_cast<uint32_t>(WordOff);
    return BankPow2 ? (W & BankMask) : W % NumLocalBanks;
  }

  //===--- Global reads ----------------------------------------------------//

  /// The (segment, wavefront) bitmap of buffer \p Base, for callers that
  /// hoist it out of a loop over lanes reading one buffer.
  uint32_t *readBitmap(uint32_t Base) {
    BufAcct &B = PerBuf[Base];
    if (B.Seen.empty())
      allocBitmap(B);
    return B.Seen.data();
  }

  /// A read of word \p WordOff by a lane of wavefront \p Wf, through the
  /// buffer's readBitmap().
  void markRead(uint32_t *Seen, uint64_t WordOff, unsigned Wf) {
    uint32_t &Cell = Seen[segOfWord(WordOff) * NumWf + Wf];
    if (Cell != Epoch) {
      Cell = Epoch;
      ++Out.GlobalReadTransactions;
    }
  }

  void noteRead(uint32_t Base, uint64_t WordOff, unsigned Wf) {
    markRead(readBitmap(Base), WordOff, Wf);
  }

  //===--- Global writes ---------------------------------------------------//

  /// Execution \p Exec of global store \p OpId by a lane of wavefront
  /// \p Wf, to word \p WordOff of buffer \p Base. The key is exact: op
  /// and exec take a 32-bit half each, and (buffer, segment, wavefront)
  /// is the launch-wide index of the read bitmaps laid end to end.
  void noteWrite(uint32_t OpId, uint32_t Exec, uint32_t Base,
                 uint64_t WordOff, unsigned Wf) {
    uint64_t Hi = (static_cast<uint64_t>(OpId) << 32) | Exec;
    uint64_t Lo = PerBuf[Base].CellBase + segOfWord(WordOff) * NumWf + Wf;
    if (Writes.insert(Hi, Lo))
      ++Out.GlobalWriteTransactions;
  }

  //===--- Local accesses --------------------------------------------------//

  /// Execution \p Exec of local load/store \p OpId by a lane of wavefront
  /// \p Wf at word \p WordOff. A new access group counts one
  /// LocalWavefrontOps; every rise of its busiest bank's count adds the
  /// rise to BankConflictExtra, which totals (max - 1) per group.
  void noteLocal(uint32_t OpId, uint32_t Exec, int32_t WordOff,
                 unsigned Wf) {
    if (Exec >= ExecCap)
      growLocal(Exec);
    size_t GIdx = (static_cast<size_t>(Exec) * NumLocalOps + OpId) * NumWf + Wf;
    AcctCell &M = LMax[GIdx];
    bool NewGroup = M.E != Epoch;
    if (NewGroup) {
      M = AcctCell{0, Epoch};
      ++Out.LocalWavefrontOps;
    }
    AcctCell &B = LBank[GIdx * NumLocalBanks + bankOf(WordOff)];
    if (B.E != Epoch)
      B = AcctCell{0, Epoch};
    uint32_t Count = ++B.V;
    if (Count > M.V) {
      Out.BankConflictExtra += Count - M.V - (NewGroup ? 1 : 0);
      M.V = Count;
    }
  }

  /// A whole access group the caller folded itself, whose busiest bank
  /// took \p MaxBankCount lanes. Only valid when no lane of the group
  /// goes through noteLocal().
  void noteLocalGroup(uint32_t MaxBankCount) {
    ++Out.LocalWavefrontOps;
    Out.BankConflictExtra += MaxBankCount - 1;
  }

private:
  /// Per-buffer read state: the lazily allocated (segment, wavefront)
  /// bitmap, and where its cells start in the launch-wide index.
  struct BufAcct {
    std::vector<uint32_t> Seen;
    uint64_t Cells = 0;    ///< Segments * wavefronts.
    uint64_t CellBase = 0; ///< Cells of the buffers laid out before.
  };

  void allocBitmap(BufAcct &B);
  void growLocal(uint32_t NeedExec);

  Counters &Out;
  unsigned WavefrontSize, SegmentBytes, NumLocalBanks;
  bool SegPow2 = false;
  unsigned SegShiftWords = 0;
  bool BankPow2 = false;
  uint32_t BankMask = 0;

  unsigned NumWf = 1;
  uint32_t NumLocalOps = 0;
  uint32_t Epoch = 0; ///< Tags the read bitmaps and local cells.

  std::vector<BufAcct> PerBuf; ///< By index in the buffer bank.
  WriteKeySet Writes;
  std::vector<AcctCell> LMax;  ///< Per (exec, op, wf): busiest bank.
  std::vector<AcctCell> LBank; ///< Per (exec, op, wf, bank): lanes.
  uint32_t ExecCap = 0;        ///< Exec instances LMax/LBank cover.
};

} // namespace sim
} // namespace kperf

#endif // KPERF_GPUSIM_MEMACCOUNTING_H
