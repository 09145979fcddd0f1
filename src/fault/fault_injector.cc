#include "fault/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace pmemolap {

FaultInjector::FaultInjector(FaultSpec spec)
    : spec_(std::move(spec)), rng_(spec_.seed) {}

void FaultInjector::Arm(PmemSpace* space) {
  space->set_allocation_hook(
      [this](Allocation* region) { return OnAllocation(region); });
}

Status FaultInjector::OnAllocation(Allocation* region) {
  allocations_.fetch_add(1, kRelaxed);
  bool fail = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++allocation_counter_;
    if (spec_.alloc_failure_period > 0 &&
        allocation_counter_ %
                static_cast<uint64_t>(spec_.alloc_failure_period) ==
            0) {
      fail = true;
    }
    if (!fail && spec_.alloc_failure_rate > 0.0 &&
        rng_.NextBool(spec_.alloc_failure_rate)) {
      fail = true;
    }
  }
  if (fail) {
    allocations_failed_.fetch_add(1, kRelaxed);
    return Status::Unavailable(
        "injected allocation failure on socket " +
        std::to_string(region->placement().socket));
  }
  InjectPoison(region);
  return Status::OK();
}

void FaultInjector::InjectPoison(Allocation* region) {
  // Poison models Optane media errors; DRAM-backed regions stay clean.
  if (!spec_.InjectsPoison() ||
      region->placement().media != Media::kPmem || region->empty()) {
    return;
  }
  const uint64_t lines = (region->size() + kOptaneLineBytes - 1) /
                         kOptaneLineBytes;
  Rng rng(0);
  {
    // Each region gets its own deterministic stream keyed by registration
    // order, so the poison layout replays exactly across runs.
    std::lock_guard<std::mutex> lock(mutex_);
    rng = rng_.Fork(++region_counter_);
  }
  const double size_mib =
      static_cast<double>(region->size()) / (1024.0 * 1024.0);
  double expected = spec_.poison_lines_per_mib * size_mib;
  uint64_t count = static_cast<uint64_t>(expected);
  if (rng.NextBool(expected - static_cast<double>(count))) ++count;
  count = std::min(count, lines);

  for (uint64_t i = 0; i < count; ++i) {
    uint64_t line = rng.NextBelow(lines);
    bool transient = rng.NextBool(spec_.transient_fraction);
    region->PoisonLine(line,
                       transient ? spec_.transient_clear_attempts : 0);
    lines_poisoned_.fetch_add(1, kRelaxed);
    if (transient) transient_lines_poisoned_.fetch_add(1, kRelaxed);
  }
}

void FaultInjector::CorruptPermanentLines(Allocation* region) const {
  // Permanent poison is real corruption: flip bytes inside the line so
  // only a rewrite from a healthy source restores the data (and CRC
  // verification genuinely detects the damage).
  for (uint64_t line : region->PermanentPoisonedLines()) {
    uint64_t begin = line * kOptaneLineBytes;
    uint64_t end = std::min(begin + kOptaneLineBytes, region->size());
    for (uint64_t b = begin; b < end; b += 16) {
      region->data()[b] ^= std::byte{0xA5};
    }
  }
}

double FaultInjector::DimmServiceFactor(int socket) const {
  double factor = 1.0;
  for (const ThrottleWindow& window : spec_.throttle_windows) {
    if (window.socket == socket && window.Contains(now_seconds_)) {
      factor = std::min(factor, window.service_factor);
    }
  }
  return factor;
}

MemSystemConfig FaultInjector::Degrade(const MemSystemConfig& base) const {
  MemSystemConfig degraded = base;
  int sockets = base.topology.sockets();
  degraded.pmem_service_factor.assign(static_cast<size_t>(sockets), 1.0);
  for (int socket = 0; socket < sockets; ++socket) {
    degraded.pmem_service_factor[static_cast<size_t>(socket)] =
        DimmServiceFactor(socket);
  }
  degraded.upi_capacity_factor =
      base.upi_capacity_factor * spec_.upi_capacity_factor;
  return degraded;
}

FaultCounters FaultInjector::counters() const {
  FaultCounters c;
  c.allocations = allocations_.load(kRelaxed);
  c.allocations_failed = allocations_failed_.load(kRelaxed);
  c.lines_poisoned = lines_poisoned_.load(kRelaxed);
  c.transient_lines_poisoned = transient_lines_poisoned_.load(kRelaxed);
  c.poisoned_reads = poisoned_reads_.load(kRelaxed);
  c.retries = retries_.load(kRelaxed);
  c.transient_clears = transient_clears_.load(kRelaxed);
  c.crc_failures = crc_failures_.load(kRelaxed);
  c.corrupt_lines = corrupt_lines_.load(kRelaxed);
  c.chunks_scrubbed = chunks_scrubbed_.load(kRelaxed);
  c.chunks_repaired = chunks_repaired_.load(kRelaxed);
  c.bytes_repaired = bytes_repaired_.load(kRelaxed);
  c.failovers = failovers_.load(kRelaxed);
  c.replica_repairs = replica_repairs_.load(kRelaxed);
  c.backoff_us = backoff_us_.load(kRelaxed);
  return c;
}

double FaultInjector::ModeledRecoverySeconds() const {
  FaultCounters c = counters();
  double backoff = static_cast<double>(c.backoff_us) * 1e-6;
  double repair =
      spec_.repair_gbps > 0.0
          ? static_cast<double>(c.bytes_repaired) / (spec_.repair_gbps * 1e9)
          : 0.0;
  return backoff + repair;
}

}  // namespace pmemolap
