// DurableTable — crash-consistent append-only ingest over the modeled
// persistence domain.
//
// Two PersistentRegions: the table image (what SSB scans read) and the
// commit log. One Append() is one *epoch*, and each ingested byte is
// written to PMEM once:
//
//   1. payload into the table, past the committed end
//                                        (ntstore, or store+clwb)
//   2. sfence                            — payload durable
//   3. commit record into the log        — {table extent, payload CRC32}
//   4. sfence                            — epoch committed
//   5. AdvanceCommitted(epoch)           — volatile publish to readers
//
// A crash anywhere before step 4's completion leaves the epoch
// uncommitted: its bytes lie past the committed end, where readers never
// look, and recovery truncates them. Because step 2 fences the payload
// before its commit record exists, a committed epoch's table bytes are
// already durable, so recovery re-validates them against the record's
// CRC and replays nothing. Readers never see an epoch before its bytes
// are durable (publish is last), and snapshot reads pin an epoch so
// concurrent scans stay consistent while ingest runs: epochs are
// append-only, so epoch e's first epoch_bytes(e) table bytes are
// immutable once published.
//
// Threading: one ingest thread calls Append/Recover; any number of reader
// threads call ReadSnapshot/committed_epoch concurrently (epoch metadata
// is mutex-published, committed table bytes are no longer written).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "core/pmem_space.h"
#include "core/profile.h"
#include "durability/persist_order_checker.h"
#include "durability/persistent_region.h"
#include "memsys/persist.h"

namespace pmemolap {

class CrashInjector;
struct RecoveryStats;

class DurableTable {
 public:
  struct Options {
    uint64_t capacity_bytes = 16 * kMiB;  ///< table region size
    uint64_t log_bytes = 32 * kMiB;       ///< commit-log region size
    /// ntstore writes for the payload and the commit record (the paper's
    /// pick for streaming writes); false uses cached stores + clwb —
    /// dearer, exercised by tests.
    bool ntstore = true;
    PersistSpec persist;  ///< primitive pricing
  };

  /// Both regions live in this socket's PMEM.
  static constexpr int kSocket = 0;

  /// `crash` may be nullptr (no crash surface — plain durable ingest).
  static Result<std::unique_ptr<DurableTable>> Create(PmemSpace* space,
                                                      CrashInjector* crash,
                                                      Options options);

  /// Reads at the latest committed epoch.
  static constexpr uint64_t kLatestEpoch = ~uint64_t{0};

  /// One crash-consistent ingest epoch; returns the committed epoch id
  /// (1-based). Unavailable once the modeled process crashed.
  Result<uint64_t> Append(const std::byte* data, uint64_t bytes);

  /// Copies [offset, offset+size) of the table image as of `epoch`
  /// (kLatestEpoch = newest). Fails InvalidArgument past the snapshot's
  /// committed bytes and NotFound for an uncommitted epoch.
  Status ReadSnapshot(uint64_t epoch, uint64_t offset, uint64_t size,
                      std::byte* dst) const;

  uint64_t committed_epoch() const;
  /// Table bytes committed as of `epoch` (kLatestEpoch = newest).
  Result<uint64_t> SnapshotBytes(uint64_t epoch) const;

  /// Acknowledges a pending crash (if any), scans the commit log,
  /// truncates it past the last committed record, re-validates every
  /// committed epoch's table bytes against its CRC (DataLoss naming the
  /// first epoch that fails), truncates the table's uncommitted tail and
  /// republishes the epoch map (recovery.cc). Writes no payload byte.
  /// Safe to call on a healthy table and again after a crash *during*
  /// recovery, which surfaces as Unavailable.
  Result<RecoveryStats> Recover();

  /// Modeled PMEM write traffic of ingest since the last drain: one
  /// record, labeled "ingest", for the one ingest thread that writes each
  /// epoch's payload and then its commit record. Queries price it as a
  /// standing writer and the governor's write-knee telemetry counts it.
  std::vector<TrafficRecord> DrainIngestTraffic();
  /// Same records without resetting (peek for engine background merging).
  std::vector<TrafficRecord> standing_traffic() const;

  /// Modeled seconds spent in persistence primitives so far (both
  /// regions) — the durability tax on ingest.
  double modeled_seconds() const {
    return table_->modeled_seconds() + log_->modeled_seconds();
  }

  const Options& options() const { return options_; }
  PersistentRegion& table_region() { return *table_; }
  PersistentRegion& log_region() { return *log_; }
  const PersistCostModel& cost() const { return cost_; }
  /// The runtime durability oracle, attached to both regions: every
  /// fence is cross-validated against the regions' line states, every
  /// commit record is checked for pending lines in either region, and
  /// every publish for pending lines in its range. Tests assert `clean()`
  /// on it; the engine surfaces a non-clean oracle as an internal error.
  const PersistOrderChecker& order_checker() const { return order_checker_; }

 private:
  DurableTable(Options options, CrashInjector* crash)
      : options_(options), crash_(crash), cost_(options.persist) {}

  /// Volatile publish of a committed epoch (readers see it from here on).
  void AdvanceCommitted(uint64_t epoch, uint64_t total_bytes,
                        uint64_t log_tail);
  /// Recovery's republish of the whole epoch map.
  void RestoreCommitted(std::vector<uint64_t> epoch_bytes,
                        uint64_t log_tail);
  std::vector<TrafficRecord> BuildTraffic(uint64_t bytes) const;

  Options options_;
  CrashInjector* crash_;
  PersistCostModel cost_;
  PersistOrderChecker order_checker_;
  std::unique_ptr<PersistentRegion> table_;
  std::unique_ptr<PersistentRegion> log_;

  mutable std::mutex mutex_;
  /// epoch_bytes_[e] = committed table bytes through epoch e; [0] = 0.
  std::vector<uint64_t> epoch_bytes_{0};
  uint64_t log_tail_ = 0;
  /// Payload plus commit-record bytes appended since the last drain.
  uint64_t pending_ingest_bytes_ = 0;
};

}  // namespace pmemolap
