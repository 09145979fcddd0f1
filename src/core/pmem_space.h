// PmemSpace — placement-aware memory management over the modeled platform.
//
// On real hardware this role is played by devdax mappings per socket plus
// libnuma for DRAM; here allocations are backed by the process heap and
// tagged with their modeled placement (media + socket), which the profiling
// and timing layers use. Capacity accounting follows the modeled topology
// (e.g. 768 GB PMEM / 96 GB DRAM per socket on the paper machine).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "topo/topology.h"

namespace pmemolap {

/// Where a region of memory lives.
struct MemPlacement {
  Media media = Media::kPmem;
  int socket = 0;

  bool operator==(const MemPlacement& other) const {
    return media == other.media && socket == other.socket;
  }
};

/// Frees a `calloc`'d buffer.
struct FreeDeleter {
  void operator()(std::byte* data) const { std::free(data); }
};

/// An owned, placement-tagged memory region. `offset` supports aligned
/// allocations (the usable region starts past the raw buffer's base).
/// The buffer is `calloc`'d, so a fresh allocation reads as zero — newly
/// created storage — and its host pages are touched only when written.
class Allocation {
 public:
  Allocation() = default;
  Allocation(std::unique_ptr<std::byte, FreeDeleter> data, uint64_t size,
             MemPlacement placement, uint64_t offset = 0,
             uint64_t charged_bytes = 0)
      : data_(std::move(data)),
        size_(size),
        offset_(offset),
        charged_bytes_(charged_bytes == 0 ? size : charged_bytes),
        placement_(placement) {}

  std::byte* data() { return data_.get() + offset_; }
  const std::byte* data() const { return data_.get() + offset_; }
  uint64_t size() const { return size_; }
  /// Bytes charged against the capacity accounting (>= size for aligned
  /// allocations, which pay for their padding).
  uint64_t charged_bytes() const { return charged_bytes_; }
  const MemPlacement& placement() const { return placement_; }
  bool empty() const { return size_ == 0; }

  // --- Media poison tracking (fault layer) ---------------------------------
  // A "line" is one 256 B Optane internal line, indexed from the start of
  // the usable region. A poisoned line models an uncorrectable media error:
  // reads of it must fail until the line is scrubbed (rewritten). Transient
  // poisons model errors the DIMM's ECC corrects after retries.

  /// Marks line `line_index` poisoned. `transient_clears` > 0 means the
  /// poison clears after that many retry attempts (ECC eventually
  /// corrects); 0 means permanent until ScrubLine.
  void PoisonLine(uint64_t line_index, int transient_clears = 0);

  /// Clears the poison on `line_index` (after the line was rewritten).
  /// Returns true if the line was poisoned.
  bool ScrubLine(uint64_t line_index);

  /// One retry attempt on a transiently poisoned line; returns true when
  /// the retry cleared the poison. Permanent poisons never clear.
  bool RetryLine(uint64_t line_index);

  /// True if any poisoned line overlaps [offset, offset + size).
  bool IsPoisoned(uint64_t offset, uint64_t size) const;

  /// Line indexes of poisoned lines overlapping [offset, offset + size).
  std::vector<uint64_t> PoisonedLinesIn(uint64_t offset,
                                        uint64_t size) const;

  /// Line indexes whose poison is permanent (no transient clears left) —
  /// these hold genuinely corrupt data until scrubbed from a source.
  std::vector<uint64_t> PermanentPoisonedLines() const;

  uint64_t poisoned_line_count() const {
    return poisoned_ == nullptr ? 0 : poisoned_->size();
  }

 private:
  std::unique_ptr<std::byte, FreeDeleter> data_;
  uint64_t size_ = 0;
  uint64_t offset_ = 0;
  uint64_t charged_bytes_ = 0;
  MemPlacement placement_;
  /// line index -> remaining transient clears (0 = permanent). Lazily
  /// created: healthy allocations pay one null pointer.
  std::unique_ptr<std::map<uint64_t, int>> poisoned_;
};

/// A logical region striped across the PMEM (or DRAM) of every socket —
/// best practice #4: "place data on all sockets but access it only from
/// near NUMA regions".
class StripedAllocation {
 public:
  StripedAllocation() = default;
  explicit StripedAllocation(std::vector<Allocation> stripes)
      : stripes_(std::move(stripes)) {}

  int num_stripes() const { return static_cast<int>(stripes_.size()); }
  Allocation& stripe(int socket) { return stripes_[socket]; }
  const Allocation& stripe(int socket) const { return stripes_[socket]; }
  uint64_t total_size() const;

 private:
  std::vector<Allocation> stripes_;
};

/// Allocator with per-socket capacity accounting against the modeled
/// platform.
class PmemSpace {
 public:
  /// Called after each successful allocation, before it is returned. The
  /// hook may tag the region (e.g. poison lines) or veto the allocation by
  /// returning an error, which PmemSpace propagates after releasing the
  /// region. Installed by the fault layer; a default-constructed space has
  /// no hook.
  using AllocationHook = std::function<Status(Allocation*)>;

  explicit PmemSpace(const SystemTopology& topology);

  /// Installs (or clears, with nullptr) the allocation hook.
  void set_allocation_hook(AllocationHook hook) {
    allocation_hook_ = std::move(hook);
  }

  /// Allocates `size` zero-filled bytes on one socket's media. Fails with
  /// ResourceExhausted when the modeled capacity is exceeded.
  Result<Allocation> Allocate(uint64_t size, MemPlacement placement);

  /// Allocates with the start aligned to `alignment` (a power of two):
  /// 4 KB aligns chunks to the DIMM interleave (insight #1), 256 B to
  /// Optane's internal lines (insight #6).
  Result<Allocation> AllocateAligned(uint64_t size, uint64_t alignment,
                                     MemPlacement placement);

  /// Splits `size` bytes evenly across the sockets' media (socket i gets
  /// the i-th chunk; remainder goes to the last socket).
  Result<StripedAllocation> AllocateStriped(uint64_t size, Media media);

  /// Returns the remaining modeled capacity for a placement.
  uint64_t AvailableBytes(MemPlacement placement) const;

  /// Releases accounting for an allocation (the memory itself is freed by
  /// the Allocation destructor).
  void Release(const Allocation& allocation);

  const SystemTopology& topology() const { return topology_; }

 private:
  uint64_t CapacityOf(MemPlacement placement) const;
  uint64_t& UsedOf(MemPlacement placement);
  uint64_t UsedOf(MemPlacement placement) const;

  /// Runs the hook on a fresh allocation; on veto, releases it and returns
  /// the hook's error.
  Result<Allocation> FinishAllocation(Allocation allocation);

  SystemTopology topology_;
  std::vector<uint64_t> pmem_used_;  // per socket
  std::vector<uint64_t> dram_used_;  // per socket
  AllocationHook allocation_hook_;
};

}  // namespace pmemolap
