// DashTable — a simplified reimplementation of Dash (Lu et al., VLDB'20),
// the PMEM-optimized extendible hash table the paper's handcrafted SSB
// uses for joins (§6.2).
//
// The properties that matter for PMEM are preserved:
//  - Buckets are exactly 256 B (one Optane internal line), so a probe costs
//    one media access.
//  - Fingerprints (1 byte per slot) in the bucket header avoid touching
//    slot keys on mismatch.
//  - Displacement into the neighbor bucket plus per-segment stash buckets
//    keep the load factor high before a segment split.
//  - Extendible hashing: segments split locally; the directory doubles
//    only when a splitting segment's local depth equals the global depth.
//
// Keys and values are uint64_t (SSB join keys are integers). Keys are
// unique; inserting an existing key fails with AlreadyExists.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"

namespace pmemolap {

class DashTable {
 public:
  /// One bucket = one Optane line.
  static constexpr uint64_t kBucketBytes = 256;
  /// Slots per bucket: 32 B header (bitmap + count + 14 fingerprints,
  /// padded) + 14 x 16 B slots = 256 B.
  static constexpr int kSlotsPerBucket = 14;
  /// Regular buckets per segment.
  static constexpr int kBucketsPerSegment = 64;
  /// Stash buckets per segment, catching displacement overflow.
  static constexpr int kStashBuckets = 4;
  /// Initial directory depth: 2^depth segments pre-allocated.
  static constexpr int kInitialDepth = 2;

  DashTable();

  /// Inserts a unique key. AlreadyExists if the key is present.
  Status Insert(uint64_t key, uint64_t value);

  /// Point lookup.
  std::optional<uint64_t> Get(uint64_t key) const;

  uint64_t size() const { return size_; }
  uint64_t num_segments() const;
  /// Total bytes of bucket storage (each bucket is one 256 B Optane line).
  uint64_t StorageBytes() const;

  /// Cumulative 256 B bucket loads performed by Get/Insert — the probe
  /// traffic the profiling layer costs as random PMEM reads. Relaxed
  /// atomic: lookups run from concurrent worker threads.
  uint64_t bucket_probes() const {
    return bucket_probes_.load(std::memory_order_relaxed);
  }

 private:
  struct Bucket {
    uint16_t bitmap = 0;  // occupancy of the 14 slots
    uint8_t count = 0;
    uint8_t fingerprints[kSlotsPerBucket] = {};
    uint64_t keys[kSlotsPerBucket] = {};
    uint64_t values[kSlotsPerBucket] = {};

    int FindSlot(uint64_t key, uint8_t fingerprint) const;
    bool InsertSlot(uint64_t key, uint64_t value, uint8_t fingerprint);
  };

  struct Segment {
    int local_depth = 0;
    Bucket buckets[kBucketsPerSegment + kStashBuckets];
  };

  static uint64_t HashKey(uint64_t key);
  static uint8_t FingerprintOf(uint64_t hash) {
    return static_cast<uint8_t>(hash & 0xFF);
  }
  /// Directory slot for a hash at the current global depth (top bits).
  size_t DirectoryIndex(uint64_t hash) const;
  static int BucketIndex(uint64_t hash) {
    // Low bits pick the bucket so splits (which consume top bits) do not
    // reshuffle bucket placement within a segment.
    return static_cast<int>(hash % kBucketsPerSegment);
  }

  /// Attempts insert into a segment without splitting. Returns true on
  /// success; false when target, neighbor, and stash are all full.
  bool TryInsert(Segment* segment, uint64_t hash, uint64_t key,
                 uint64_t value);

  /// Splits the segment owning `hash`, doubling the directory if needed.
  Status SplitSegment(uint64_t hash);

  int global_depth_ = kInitialDepth;
  std::vector<std::shared_ptr<Segment>> directory_;
  uint64_t size_ = 0;
  mutable std::atomic<uint64_t> bucket_probes_{0};
};

}  // namespace pmemolap
