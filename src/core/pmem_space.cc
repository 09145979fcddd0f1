#include "core/pmem_space.h"

#include <algorithm>
#include <cstdlib>

namespace pmemolap {

void Allocation::PoisonLine(uint64_t line_index, int transient_clears) {
  if (poisoned_ == nullptr) {
    poisoned_ = std::make_unique<std::map<uint64_t, int>>();
  }
  (*poisoned_)[line_index] = transient_clears;
}

bool Allocation::ScrubLine(uint64_t line_index) {
  if (poisoned_ == nullptr) return false;
  return poisoned_->erase(line_index) > 0;
}

bool Allocation::RetryLine(uint64_t line_index) {
  if (poisoned_ == nullptr) return false;
  auto it = poisoned_->find(line_index);
  if (it == poisoned_->end()) return true;  // already clean
  if (it->second <= 0) return false;        // permanent
  if (--it->second == 0) {
    poisoned_->erase(it);
    return true;
  }
  return false;
}

bool Allocation::IsPoisoned(uint64_t offset, uint64_t size) const {
  if (poisoned_ == nullptr || poisoned_->empty() || size == 0) return false;
  uint64_t first = offset / kOptaneLineBytes;
  uint64_t last = (offset + size - 1) / kOptaneLineBytes;
  auto it = poisoned_->lower_bound(first);
  return it != poisoned_->end() && it->first <= last;
}

std::vector<uint64_t> Allocation::PoisonedLinesIn(uint64_t offset,
                                                  uint64_t size) const {
  std::vector<uint64_t> lines;
  if (poisoned_ == nullptr || size == 0) return lines;
  uint64_t first = offset / kOptaneLineBytes;
  uint64_t last = (offset + size - 1) / kOptaneLineBytes;
  for (auto it = poisoned_->lower_bound(first);
       it != poisoned_->end() && it->first <= last; ++it) {
    lines.push_back(it->first);
  }
  return lines;
}

std::vector<uint64_t> Allocation::PermanentPoisonedLines() const {
  std::vector<uint64_t> lines;
  if (poisoned_ == nullptr) return lines;
  for (const auto& [line, clears] : *poisoned_) {
    if (clears <= 0) lines.push_back(line);
  }
  return lines;
}

uint64_t StripedAllocation::total_size() const {
  uint64_t total = 0;
  for (const Allocation& stripe : stripes_) total += stripe.size();
  return total;
}

PmemSpace::PmemSpace(const SystemTopology& topology)
    : topology_(topology),
      pmem_used_(static_cast<size_t>(topology.sockets()), 0),
      dram_used_(static_cast<size_t>(topology.sockets()), 0) {}

uint64_t PmemSpace::CapacityOf(MemPlacement placement) const {
  switch (placement.media) {
    case Media::kPmem:
      return topology_.pmem_capacity_per_socket();
    case Media::kDram:
      return topology_.dram_capacity_per_socket();
    case Media::kSsd:
      return 0;
  }
  return 0;
}

uint64_t& PmemSpace::UsedOf(MemPlacement placement) {
  return placement.media == Media::kPmem
             ? pmem_used_[static_cast<size_t>(placement.socket)]
             : dram_used_[static_cast<size_t>(placement.socket)];
}

uint64_t PmemSpace::UsedOf(MemPlacement placement) const {
  return placement.media == Media::kPmem
             ? pmem_used_[static_cast<size_t>(placement.socket)]
             : dram_used_[static_cast<size_t>(placement.socket)];
}

uint64_t PmemSpace::AvailableBytes(MemPlacement placement) const {
  if (placement.socket < 0 || placement.socket >= topology_.sockets() ||
      placement.media == Media::kSsd) {
    return 0;
  }
  return CapacityOf(placement) - UsedOf(placement);
}

Result<Allocation> PmemSpace::Allocate(uint64_t size, MemPlacement placement) {
  if (placement.socket < 0 || placement.socket >= topology_.sockets()) {
    return Status::InvalidArgument("socket out of range");
  }
  if (placement.media == Media::kSsd) {
    return Status::InvalidArgument("PmemSpace manages PMEM and DRAM only");
  }
  if (size == 0) {
    return Status::InvalidArgument("allocation size must be > 0");
  }
  if (size > AvailableBytes(placement)) {
    return Status::ResourceExhausted("modeled capacity exceeded on socket " +
                                     std::to_string(placement.socket));
  }
  std::unique_ptr<std::byte, FreeDeleter> data(
      static_cast<std::byte*>(std::calloc(size, 1)));
  if (data == nullptr) {
    return Status::ResourceExhausted("host allocation failed");
  }
  UsedOf(placement) += size;
  return FinishAllocation(Allocation(std::move(data), size, placement));
}

Result<Allocation> PmemSpace::FinishAllocation(Allocation allocation) {
  if (allocation_hook_) {
    Status status = allocation_hook_(&allocation);
    if (!status.ok()) {
      Release(allocation);
      return status;
    }
  }
  return allocation;
}

Result<Allocation> PmemSpace::AllocateAligned(uint64_t size,
                                              uint64_t alignment,
                                              MemPlacement placement) {
  if (alignment == 0 || (alignment & (alignment - 1)) != 0) {
    return Status::InvalidArgument("alignment must be a power of two");
  }
  if (placement.socket < 0 || placement.socket >= topology_.sockets() ||
      placement.media == Media::kSsd) {
    return Status::InvalidArgument("bad placement");
  }
  if (size == 0) {
    return Status::InvalidArgument("allocation size must be > 0");
  }
  uint64_t padded = size + alignment - 1;
  if (padded > AvailableBytes(placement)) {
    return Status::ResourceExhausted("modeled capacity exceeded on socket " +
                                     std::to_string(placement.socket));
  }
  std::unique_ptr<std::byte, FreeDeleter> data(
      static_cast<std::byte*>(std::calloc(padded, 1)));
  if (data == nullptr) {
    return Status::ResourceExhausted("host allocation failed");
  }
  uint64_t base = reinterpret_cast<uint64_t>(data.get());
  uint64_t offset = (alignment - base % alignment) % alignment;
  UsedOf(placement) += padded;
  return FinishAllocation(
      Allocation(std::move(data), size, placement, offset, padded));
}

Result<StripedAllocation> PmemSpace::AllocateStriped(uint64_t size,
                                                     Media media) {
  if (size == 0) {
    return Status::InvalidArgument("allocation size must be > 0");
  }
  const int sockets = topology_.sockets();
  std::vector<Allocation> stripes;
  stripes.reserve(static_cast<size_t>(sockets));
  uint64_t per_socket = size / static_cast<uint64_t>(sockets);
  for (int socket = 0; socket < sockets; ++socket) {
    uint64_t this_size = socket + 1 == sockets
                             ? size - per_socket * (sockets - 1)
                             : per_socket;
    if (this_size == 0) this_size = 1;
    Result<Allocation> stripe =
        Allocate(this_size, MemPlacement{media, socket});
    if (!stripe.ok()) {
      for (const Allocation& done : stripes) Release(done);
      return stripe.status();
    }
    stripes.push_back(std::move(stripe.value()));
  }
  return StripedAllocation(std::move(stripes));
}

void PmemSpace::Release(const Allocation& allocation) {
  if (allocation.empty()) return;
  MemPlacement placement = allocation.placement();
  if (placement.socket < 0 || placement.socket >= topology_.sockets() ||
      placement.media == Media::kSsd) {
    return;
  }
  uint64_t& used = UsedOf(placement);
  used -= std::min(used, allocation.charged_bytes());
}

}  // namespace pmemolap
