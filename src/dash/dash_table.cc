#include "dash/dash_table.h"

#include <cassert>

namespace pmemolap {

int DashTable::Bucket::FindSlot(uint64_t key, uint8_t fingerprint) const {
  for (int slot = 0; slot < kSlotsPerBucket; ++slot) {
    if ((bitmap & (1u << slot)) == 0) continue;
    if (fingerprints[slot] != fingerprint) continue;
    if (keys[slot] == key) return slot;
  }
  return -1;
}

bool DashTable::Bucket::InsertSlot(uint64_t key, uint64_t value,
                                   uint8_t fingerprint) {
  for (int slot = 0; slot < kSlotsPerBucket; ++slot) {
    if ((bitmap & (1u << slot)) != 0) continue;
    bitmap = static_cast<uint16_t>(bitmap | (1u << slot));
    fingerprints[slot] = fingerprint;
    keys[slot] = key;
    values[slot] = value;
    ++count;
    return true;
  }
  return false;
}

DashTable::DashTable() {
  size_t segments = size_t{1} << global_depth_;
  directory_.reserve(segments);
  for (size_t i = 0; i < segments; ++i) {
    auto segment = std::make_shared<Segment>();
    segment->local_depth = global_depth_;
    directory_.push_back(std::move(segment));
  }
}

uint64_t DashTable::HashKey(uint64_t key) {
  // splitmix64 finalizer: full-avalanche, cheap.
  uint64_t z = key + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

size_t DashTable::DirectoryIndex(uint64_t hash) const {
  if (global_depth_ == 0) return 0;
  return static_cast<size_t>(hash >> (64 - global_depth_));
}

uint64_t DashTable::num_segments() const {
  // Distinct segments (directory entries may alias after doubling).
  uint64_t count = 0;
  const Segment* last = nullptr;
  for (const auto& segment : directory_) {
    if (segment.get() != last) {
      ++count;
      last = segment.get();
    }
  }
  return count;
}

uint64_t DashTable::StorageBytes() const {
  return num_segments() * (kBucketsPerSegment + kStashBuckets) * kBucketBytes;
}

bool DashTable::TryInsert(Segment* segment, uint64_t hash, uint64_t key,
                          uint64_t value) {
  const uint8_t fingerprint = FingerprintOf(hash);
  int target = BucketIndex(hash);
  int neighbor = (target + 1) % kBucketsPerSegment;
  // Balanced insertion: prefer the emptier of target and neighbor
  // (Dash-style displacement keeps load factors high).
  Bucket* primary = &segment->buckets[target];
  Bucket* secondary = &segment->buckets[neighbor];
  if (secondary->count < primary->count) std::swap(primary, secondary);
  bucket_probes_.fetch_add(1, std::memory_order_relaxed);
  if (primary->InsertSlot(key, value, fingerprint)) return true;
  bucket_probes_.fetch_add(1, std::memory_order_relaxed);
  if (secondary->InsertSlot(key, value, fingerprint)) return true;
  for (int stash = 0; stash < kStashBuckets; ++stash) {
    bucket_probes_.fetch_add(1, std::memory_order_relaxed);
    if (segment->buckets[kBucketsPerSegment + stash].InsertSlot(
            key, value, fingerprint)) {
      return true;
    }
  }
  return false;
}

Status DashTable::Insert(uint64_t key, uint64_t value) {
  if (Get(key).has_value()) {
    return Status::AlreadyExists("key already present");
  }
  uint64_t hash = HashKey(key);
  // A split may need to repeat if all of a key's candidate buckets remain
  // full (possible with skewed low bits); each split strictly reduces the
  // splitting segment's load, so this terminates.
  for (int attempt = 0; attempt < 64; ++attempt) {
    Segment* segment = directory_[DirectoryIndex(hash)].get();
    if (TryInsert(segment, hash, key, value)) {
      ++size_;
      return Status::OK();
    }
    PMEMOLAP_RETURN_NOT_OK(SplitSegment(hash));
  }
  return Status::Internal("insert failed after repeated splits");
}

Status DashTable::SplitSegment(uint64_t hash) {
  size_t dir_index = DirectoryIndex(hash);
  std::shared_ptr<Segment> old_segment = directory_[dir_index];

  if (old_segment->local_depth == global_depth_) {
    // Double the directory.
    if (global_depth_ >= 48) {
      return Status::ResourceExhausted("directory depth limit reached");
    }
    size_t old_size = directory_.size();
    directory_.resize(old_size * 2);
    for (size_t i = old_size; i-- > 0;) {
      directory_[2 * i] = directory_[i];
      directory_[2 * i + 1] = directory_[i];
    }
    ++global_depth_;
  }

  // Replace the old segment's directory range with two children split on
  // the next hash bit.
  int new_depth = old_segment->local_depth + 1;
  auto low = std::make_shared<Segment>();
  auto high = std::make_shared<Segment>();
  low->local_depth = new_depth;
  high->local_depth = new_depth;

  // Rehash every entry of the old segment into the children.
  for (int b = 0; b < kBucketsPerSegment + kStashBuckets; ++b) {
    const Bucket& bucket = old_segment->buckets[b];
    for (int slot = 0; slot < kSlotsPerBucket; ++slot) {
      if ((bucket.bitmap & (1u << slot)) == 0) continue;
      uint64_t entry_hash = HashKey(bucket.keys[slot]);
      // Bit (64 - new_depth) decides the child.
      bool goes_high = ((entry_hash >> (64 - new_depth)) & 1ULL) != 0;
      Segment* child = goes_high ? high.get() : low.get();
      bool ok = TryInsert(child, entry_hash, bucket.keys[slot],
                          bucket.values[slot]);
      if (!ok) {
        // Extremely unlikely (child segment is at most as full as the
        // parent); treated as an internal invariant violation.
        return Status::Internal("split rehash overflow");
      }
    }
  }

  // Update every directory entry pointing at the old segment.
  size_t entries_per_segment =
      directory_.size() >> static_cast<size_t>(new_depth - 1);
  // First directory slot of the old segment's range.
  size_t range_begin = (DirectoryIndex(hash) / entries_per_segment) *
                       entries_per_segment;
  size_t half = entries_per_segment / 2;
  assert(half >= 1);
  for (size_t i = 0; i < entries_per_segment; ++i) {
    directory_[range_begin + i] = i < half ? low : high;
  }
  return Status::OK();
}

std::optional<uint64_t> DashTable::Get(uint64_t key) const {
  uint64_t hash = HashKey(key);
  const uint8_t fingerprint = FingerprintOf(hash);
  const Segment* segment = directory_[DirectoryIndex(hash)].get();
  int target = BucketIndex(hash);
  int neighbor = (target + 1) % kBucketsPerSegment;
  for (int b : {target, neighbor}) {
    bucket_probes_.fetch_add(1, std::memory_order_relaxed);
    int slot = segment->buckets[b].FindSlot(key, fingerprint);
    if (slot >= 0) return segment->buckets[b].values[slot];
  }
  for (int stash = 0; stash < kStashBuckets; ++stash) {
    const Bucket& bucket = segment->buckets[kBucketsPerSegment + stash];
    if (bucket.count == 0) continue;
    bucket_probes_.fetch_add(1, std::memory_order_relaxed);
    int slot = bucket.FindSlot(key, fingerprint);
    if (slot >= 0) return bucket.values[slot];
  }
  return std::nullopt;
}

}  // namespace pmemolap
