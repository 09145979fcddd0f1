// AggTable — a flat open-addressing aggregation table for the hot
// group-by loop, replacing std::map<GroupKey, int64_t> in the per-worker
// accumulators. SSB group counts are tiny (at most a few hundred groups),
// so the table stays L1/L2-resident: one hash + a short linear probe per
// update instead of a red-black-tree walk with node allocations.
//
// Determinism: each worker aggregates into its own table; the merge into
// the ordered ssb::GroupMap at the end of the query sorts the groups and
// adds exact integers, so the final output is bit-identical regardless of
// worker count, morsel order, or steal schedule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ssb/queries.h"

namespace pmemolap {

class AggTable {
 public:
  AggTable() { Reset(); }

  /// groups[key] += value.
  void Add(const ssb::GroupKey& key, int64_t value) {
    size_t at = Hash(key) & mask_;
    while (true) {
      Slot& slot = slots_[at];
      if (!slot.used) {
        slot.used = true;
        slot.key = key;
        slot.value = value;
        ++size_;
        if (size_ * 2 > slots_.size()) Grow();
        return;
      }
      if (slot.key == key) {
        slot.value += value;
        return;
      }
      at = (at + 1) & mask_;
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Adds every group into the ordered result map.
  void MergeInto(ssb::GroupMap* groups) const {
    for (const Slot& slot : slots_) {
      if (slot.used) (*groups)[slot.key] += slot.value;
    }
  }

 private:
  struct Slot {
    ssb::GroupKey key{};
    int64_t value = 0;
    bool used = false;
  };

  static uint64_t Hash(const ssb::GroupKey& key) {
    uint64_t h =
        (static_cast<uint64_t>(static_cast<uint32_t>(key[0])) << 32) |
        static_cast<uint32_t>(key[1]);
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(key[2])) << 13;
    // splitmix64 finalizer
    h += 0x9E3779B97F4A7C15ull;
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    return h ^ (h >> 31);
  }

  void Reset() {
    slots_.assign(kInitialSlots, Slot{});
    mask_ = kInitialSlots - 1;
    size_ = 0;
  }

  void Grow();

  static constexpr size_t kInitialSlots = 1024;  // power of two

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace pmemolap
