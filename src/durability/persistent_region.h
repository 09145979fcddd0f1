// PersistentRegion — a PMEM allocation with an explicit persistence
// domain.
//
// Real App Direct code sees one pointer; durability is a property of
// *which bytes made it past the CPU caches*. On the modeled platform
// (Cascade Lake + Optane DC, ADR) a store is durable only once it has
// left the CPU caches and reached the iMC's write-pending queue: the ADR
// domain flushes the WPQ on power loss, the caches are lost. The region
// records that journey per 64 B line:
//
//   kClean        the persisted bytes are the volatile bytes
//   kDirtyCache   stored but still in a (modeled) CPU cache — lost on crash
//   kAcceptedWpq  flushed/nt-stored into the WPQ — survives a crash, but
//                 the drain is asynchronous until an sfence retires it
//
// The Allocation's bytes are the volatile image (what loads see). Besides
// one state per line, the region keeps one in-flight list: an entry per
// line not kClean, holding the line's persisted bytes (what a crash
// restores if the new bytes are lost). So the persisted image costs host
// memory only for in-flight lines, a fence or a crash costs O(in-flight
// lines), and a fresh region's zero-filled storage costs host memory only
// once written. The four primitives mirror the instructions
// the paper prices:
//
//   Store      cached store: volatile write, line dirty in cache
//   NtStore    non-temporal store: volatile write, line accepted into WPQ
//   FlushRange clwb: dirty lines accepted into WPQ
//   Fence      sfence: accepted lines drained — promoted to persisted
//
// Each primitive is one crash boundary (CrashInjector) and accrues
// modeled seconds from PersistCostModel, so a commit protocol's cost and
// its crash surface come from the same call sites — the persist-order
// lint pass checks those call sites per source path (DESIGN §16).
//
// Threading: primitives and ApplyCrash are single-writer (the ingest
// thread); data() is safe for concurrent readers only on ranges the
// writer no longer mutates (the committed prefix DurableTable exposes).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/zeroed_array.h"
#include "core/pmem_space.h"
#include "memsys/persist.h"

namespace pmemolap {

class CrashInjector;
struct CrashReport;
class PersistOrderChecker;

/// Where one 64 B line sits between the CPU caches and the persistence
/// domain.
enum class PersistLineState : uint8_t {
  kClean = 0,  ///< zero: a fresh state table reads all clean
  kDirtyCache = 1,
  kAcceptedWpq = 2,
};

class PersistentRegion {
 public:
  /// Allocates `size` bytes of PMEM on `socket`, XPLine-aligned, and
  /// registers with `crash` (which may be nullptr: no crash surface).
  /// `cost` must outlive the region.
  static Result<std::unique_ptr<PersistentRegion>> Create(
      PmemSpace* space, uint64_t size, int socket, CrashInjector* crash,
      const PersistCostModel* cost);

  ~PersistentRegion();

  // --- Primitives (each a crash boundary) ----------------------------------
  Status Store(uint64_t offset, const void* src, uint64_t size);
  Status NtStore(uint64_t offset, const void* src, uint64_t size);
  Status FlushRange(uint64_t offset, uint64_t size);
  Status Fence();

  /// Durable truncation: everything at and past `offset` reverts to zero
  /// in both images. Models a log's O(1) tail-pointer update (one
  /// line store + flush + fence), not a media wipe — but the model zeroes
  /// the suffix so stale records can never be re-scanned. Host work is
  /// bounded by the bytes written past `offset` and the in-flight lines.
  /// One crash boundary; if the crash fires here, the truncation never
  /// happened.
  Status TruncateTo(uint64_t offset);

  /// Volatile image — what loads (and post-crash recovery) read.
  const std::byte* data() const { return allocation_.data(); }
  /// A copy of the persisted image — what a crash would preserve: the
  /// volatile image with every in-flight line's saved bytes in place.
  // lint:allow(test-only-api): read-back oracle for the persisted image
  std::vector<std::byte> PersistedImage() const;
  uint64_t size() const { return allocation_.size(); }

  /// Where 64 B line `line` sits on the persist ladder.
  PersistLineState line_state(uint64_t line) const { return state_[line]; }
  /// Accumulated modeled cost of all primitives issued so far.
  double modeled_seconds() const { return modeled_seconds_; }
  uint64_t store_lines() const { return store_lines_; }
  uint64_t flush_lines() const { return flush_lines_; }
  uint64_t fences() const { return fences_; }

  /// Crash semantics (called by CrashInjector::TriggerCrash): dirty lines
  /// revert to their persisted bytes; accepted lines survive with
  /// probability `survival_p`, drawn in ascending line order, and revert
  /// otherwise; volatile = persisted afterwards. Updates `report` if
  /// non-null.
  void ApplyCrash(Rng* survival, double survival_p, CrashReport* report);

  /// Mirrors every subsequent primitive into the runtime durability
  /// oracle (persist_order_checker.h) under `name`. Attach before the
  /// first primitive or the oracle's drift check will (correctly) fire.
  /// `checker` must outlive the region's primitive calls.
  void AttachOrderChecker(PersistOrderChecker* checker, std::string name);

 private:
  PersistentRegion(PmemSpace* space, Allocation allocation,
                   CrashInjector* crash, const PersistCostModel* cost);

  /// Fails fast once the injector fired: the modeled process is dead.
  Status CheckAlive() const;
  Status BoundsCheck(uint64_t offset, uint64_t size) const;

  /// Stages the partial effect of a write primitive cut mid-flight: a
  /// seeded prefix of [offset, offset+size) lands in the volatile image
  /// with its lines accepted (ntstore path only), then the crash fires.
  Status CrashDuringWrite(uint64_t offset, const void* src, uint64_t size,
                          bool accepted);
  Status CrashNow();

  /// Moves every line that [offset, offset+size) covers to `next`,
  /// listing a clean line as in flight with its persisted bytes, then
  /// copies `src` into the volatile image.
  void WriteVolatile(uint64_t offset, const void* src, uint64_t size,
                     PersistLineState next);
  /// clwb over [offset, offset+size): dirty lines move to accepted.
  /// Returns the lines moved (the count the flush pays for).
  uint64_t AcceptDirty(uint64_t offset, uint64_t size);

  /// One in-flight line and its persisted bytes (zero past the region's
  /// end).
  struct InFlightLine {
    uint64_t line = 0;
    std::array<std::byte, kCacheLineBytes> saved{};
  };

  PmemSpace* space_;
  Allocation allocation_;
  /// One state per 64 B line (the last may be partial), zero-on-demand:
  /// kClean is 0, so lines never written cost no host memory.
  ZeroedArray<PersistLineState> state_;
  /// One entry per line not kClean, in the order the lines left kClean.
  std::vector<InFlightLine> in_flight_;
  /// Volatile bytes at and past this offset are zero.
  uint64_t written_end_ = 0;
  CrashInjector* crash_;
  const PersistCostModel* cost_;
  PersistOrderChecker* order_ = nullptr;
  double modeled_seconds_ = 0.0;
  uint64_t store_lines_ = 0;
  uint64_t flush_lines_ = 0;
  uint64_t fences_ = 0;
};

}  // namespace pmemolap
