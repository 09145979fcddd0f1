// FaultInjector — seeded, deterministic realization of a FaultSpec.
//
// One injector owns all fault state for a scenario: it tags PmemSpace
// allocations with poisoned lines (via the space's allocation hook),
// injects allocation failures, answers read-time poison checks, models
// transient-poison clearing on retry, and derives a degraded
// MemSystemConfig (throttle windows + UPI degradation) for any platform
// time. Two injectors built from the same spec replay identical faults.
//
// Thread safety: counters are atomics; the RNG and region counter are
// mutex-guarded. Poison state itself lives on each Allocation and must be
// externally synchronized by its owner (GuardedTable / GuardedDimension
// serialize through their own mutexes).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/rng.h"
#include "common/status.h"
#include "core/pmem_space.h"
#include "fault/fault_spec.h"
#include "memsys/mem_system.h"

namespace pmemolap {

/// Snapshot of everything the injector injected and the recovery layer
/// survived — the evidence table of bench_fault_degradation.
struct FaultCounters {
  uint64_t allocations = 0;
  uint64_t allocations_failed = 0;
  uint64_t lines_poisoned = 0;
  uint64_t transient_lines_poisoned = 0;
  uint64_t poisoned_reads = 0;
  uint64_t retries = 0;
  uint64_t transient_clears = 0;
  uint64_t crc_failures = 0;
  /// 256 B XPLines whose bytes diverged from the repair source (or, with
  /// the source dropped, permanently poisoned lines) inside CRC-failed
  /// chunks — the per-line forensics of the scrub report.
  uint64_t corrupt_lines = 0;
  uint64_t chunks_scrubbed = 0;
  uint64_t chunks_repaired = 0;
  uint64_t bytes_repaired = 0;
  uint64_t failovers = 0;
  uint64_t replica_repairs = 0;
  /// Modeled retry backoff, microseconds.
  uint64_t backoff_us = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultSpec spec);

  const FaultSpec& spec() const { return spec_; }

  /// Installs this injector as `space`'s allocation hook (allocation
  /// failures + poison tagging on fresh PMEM regions). The injector must
  /// outlive the space's use of it.
  void Arm(PmemSpace* space);

  /// The allocation hook body: fails the allocation per the spec's
  /// failure schedule (kUnavailable), otherwise poison-tags PMEM regions.
  Status OnAllocation(Allocation* region);

  /// Deterministically poisons `region` at the spec density (tags lines;
  /// transient poisons get the spec's clear budget, permanent ones none).
  /// Bytes are not touched here — the region is still uninitialized at
  /// hook time; owners call CorruptPermanentLines after loading data.
  void InjectPoison(Allocation* region);

  /// Corrupts the bytes of every permanently poisoned line of `region`
  /// (XOR pattern inside the line). Called by the recovery layer after
  /// real data is in place, so CRC verification genuinely fails until the
  /// line is rewritten from a healthy source. Transient poisons stay
  /// byte-intact (ECC recovers them).
  void CorruptPermanentLines(Allocation* region) const;

  // --- Platform time and degradation ---------------------------------------
  /// Advances the platform clock (used to evaluate throttle windows).
  void AdvanceTo(double seconds) { now_seconds_ = seconds; }
  double now() const { return now_seconds_; }

  /// Combined service factor of `socket`'s active throttle windows at the
  /// current platform time (1.0 = healthy).
  double DimmServiceFactor(int socket) const;
  double UpiCapacityFactor() const { return spec_.upi_capacity_factor; }

  /// `base` with the current throttle windows and UPI degradation applied
  /// — feed to MemSystemModel to evaluate bandwidth on the faulty
  /// platform.
  MemSystemConfig Degrade(const MemSystemConfig& base) const;

  // --- Recovery accounting (bumped by the recovery layer) ------------------
  void CountPoisonedRead() { poisoned_reads_.fetch_add(1, kRelaxed); }
  void CountRetry(double backoff_us) {
    retries_.fetch_add(1, kRelaxed);
    backoff_us_.fetch_add(static_cast<uint64_t>(backoff_us), kRelaxed);
  }
  void CountTransientClear() { transient_clears_.fetch_add(1, kRelaxed); }
  void CountCrcFailure() { crc_failures_.fetch_add(1, kRelaxed); }
  void CountCorruptLines(uint64_t lines) {
    corrupt_lines_.fetch_add(lines, kRelaxed);
  }
  void CountScrub() { chunks_scrubbed_.fetch_add(1, kRelaxed); }
  void CountRepair(uint64_t bytes) {
    chunks_repaired_.fetch_add(1, kRelaxed);
    bytes_repaired_.fetch_add(bytes, kRelaxed);
  }
  void CountFailover() { failovers_.fetch_add(1, kRelaxed); }
  void CountReplicaRepair(uint64_t bytes) {
    replica_repairs_.fetch_add(1, kRelaxed);
    bytes_repaired_.fetch_add(bytes, kRelaxed);
  }

  FaultCounters counters() const;

  /// Modeled wall-clock cost of all recovery so far: retry backoff plus
  /// repair rewrites at the spec's repair rate.
  double ModeledRecoverySeconds() const;

 private:
  static constexpr auto kRelaxed = std::memory_order_relaxed;

  FaultSpec spec_;
  double now_seconds_ = 0.0;

  std::mutex mutex_;  // guards rng_ and the allocation schedule
  Rng rng_;
  uint64_t allocation_counter_ = 0;
  uint64_t region_counter_ = 0;

  std::atomic<uint64_t> allocations_{0};
  std::atomic<uint64_t> allocations_failed_{0};
  std::atomic<uint64_t> lines_poisoned_{0};
  std::atomic<uint64_t> transient_lines_poisoned_{0};
  std::atomic<uint64_t> poisoned_reads_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> transient_clears_{0};
  std::atomic<uint64_t> crc_failures_{0};
  std::atomic<uint64_t> corrupt_lines_{0};
  std::atomic<uint64_t> chunks_scrubbed_{0};
  std::atomic<uint64_t> chunks_repaired_{0};
  std::atomic<uint64_t> bytes_repaired_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> replica_repairs_{0};
  std::atomic<uint64_t> backoff_us_{0};
};

}  // namespace pmemolap
