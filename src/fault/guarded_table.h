// GuardedTable / GuardedDimension — the recovery half of the fault layer.
//
// GuardedTable: a byte table striped across the sockets' PMEM (the fact
// layout of best practice #4), cut into fixed-size chunks each protected
// by a CRC32 (reusing common/crc32). Reads are poison-aware: bounded
// retry first (transient errors clear), then the chunk scrubber — CRC
// verification and a rewrite from the retained source — and only when no
// source is available does the read surface kDataLoss.
//
// GuardedDimension: the per-socket replicated payload store of §6.2's
// dimension tables, with failover — a reader whose near replica is
// poisoned is served from a healthy socket's copy, and when every replica
// is poisoned the local copy is repaired from the retained source.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "core/pmem_space.h"
#include "core/replicator.h"
#include "fault/circuit_breaker.h"
#include "fault/fault_injector.h"
#include "fault/retry_policy.h"

namespace pmemolap {

class GuardedTable {
 public:
  struct Options {
    /// Chunk granularity of the CRC protection (per stripe).
    uint64_t chunk_bytes = 64 * kKiB;
    Media media = Media::kPmem;
    RetryPolicy retry;
    /// Attempts per stripe when the space's armed hook injects allocation
    /// failures (each attempt advances the injector's failure schedule).
    int alloc_attempts = 8;
  };

  /// Materializes `bytes` of `source` striped across the sockets of
  /// `space`'s topology, computing per-chunk CRCs. The source pointer is
  /// retained as the repair origin (a stand-in for re-fetching from
  /// primary storage) and must outlive the table; the armed injector
  /// poisons the fresh stripes per its spec.
  static Result<std::unique_ptr<GuardedTable>> Create(
      PmemSpace* space, FaultInjector* injector, const std::byte* source,
      uint64_t bytes, const Options& options);

  uint64_t size() const { return bytes_; }
  int num_stripes() const { return stripes_.num_stripes(); }

  /// Copies [offset, offset + size) into `dst`: bounded retry, then
  /// scrub-and-repair of the affected chunks, then a final read. Fails
  /// with kDataLoss only when corrupt data cannot be repaired (source
  /// dropped). A non-OK `cancel` aborts the retry loop between attempts
  /// with that status (the engine binds its query's CancelToken here, so
  /// a deadline cuts a retry storm short instead of charging backoff past
  /// it). Thread-safe.
  Status Read(uint64_t offset, uint64_t size, std::byte* dst,
              const CancelCheck& cancel = CancelCheck());

  /// CRC32 check of one chunk of one stripe against its stored checksum.
  bool VerifyChunk(int stripe, uint64_t chunk) const;

  /// Verifies every chunk, rewriting corrupt or poisoned ones from the
  /// source; returns the number of chunks repaired. Thread-safe.
  Result<uint64_t> ScrubAll();

  /// Forgets the repair source: subsequent unrecoverable reads surface
  /// kDataLoss (exercises the terminal path in tests).
  // lint:allow(test-only-api): fault-injection seam (unrecoverable reads)
  void DropSource() { source_ = nullptr; }

  /// Routes reads through per-stripe circuit breakers: retry exhaustion
  /// escalations feed the breaker of the stripe's socket, and reads of a
  /// quarantined stripe skip the retry loop (straight to scrub). The
  /// board must outlive the table; nullptr detaches.
  void AttachBreakers(BreakerBoard* breakers) { breakers_ = breakers; }

 private:
  GuardedTable() = default;

  /// Stripe index holding global byte `offset`.
  int StripeOf(uint64_t offset) const;
  /// First global byte of `stripe`.
  uint64_t StripeBase(int stripe) const;
  /// Logical bytes held by `stripe`.
  uint64_t StripeLen(int stripe) const;
  uint64_t ChunksInStripe(int stripe) const;

  /// Scrubs one chunk (caller holds mutex_): clears poison on intact
  /// data, rewrites from source when the CRC fails. Returns whether the
  /// chunk was repaired from the source.
  Result<bool> ScrubChunkLocked(int stripe, uint64_t chunk);
  Status ReadLocked(uint64_t offset, uint64_t size, std::byte* dst,
                    const CancelCheck& cancel);

  PmemSpace* space_ = nullptr;
  FaultInjector* injector_ = nullptr;
  BreakerBoard* breakers_ = nullptr;
  const std::byte* source_ = nullptr;
  uint64_t bytes_ = 0;
  uint64_t per_stripe_ = 0;  ///< bytes per stripe (last stripe: remainder)
  StripedAllocation stripes_;
  std::vector<std::vector<uint32_t>> chunk_crcs_;  ///< [stripe][chunk]
  Options options_;
  std::mutex mutex_;
};

class GuardedDimension {
 public:
  /// Replicates `payloads` onto every socket's `media` through
  /// `replicator` (retrying injected allocation failures) and retains the
  /// payload vector as the repair source.
  static Result<std::unique_ptr<GuardedDimension>> Create(
      PmemSpace* space, FaultInjector* injector,
      std::vector<uint64_t> payloads, Media media, int alloc_attempts = 8);

  size_t size() const { return source_.size(); }
  int num_copies() const { return table_.num_copies(); }

  /// Payload at `pos`, read from the healthy replica nearest `socket`:
  /// local copy when clean, failover to another socket's copy otherwise,
  /// repair of the local copy from the source as the last resort.
  /// Thread-safe.
  Result<uint64_t> Payload(int socket, uint64_t pos);

  /// Routes reads through per-socket circuit breakers: failovers off a
  /// replica escalate its breaker, and reads against a quarantined
  /// replica bypass the local health probe (served straight from a clean
  /// remote copy). The board must outlive the dimension; nullptr
  /// detaches.
  void AttachBreakers(BreakerBoard* breakers) { breakers_ = breakers; }

  const ReplicatedTable& table() const { return table_; }
  ReplicatedTable& table() { return table_; }

 private:
  GuardedDimension() = default;

  FaultInjector* injector_ = nullptr;
  BreakerBoard* breakers_ = nullptr;
  std::vector<uint64_t> source_;
  ReplicatedTable table_;
  std::mutex mutex_;
};

}  // namespace pmemolap
