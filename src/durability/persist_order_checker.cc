#include "durability/persist_order_checker.h"

#include <algorithm>

#include "common/units.h"
#include "durability/persistent_region.h"

namespace pmemolap {

namespace {
/// Keep the detail list bounded — a broken protocol inside a crash
/// sweep would otherwise record one violation per boundary. The total
/// counter still counts everything.
constexpr uint64_t kMaxRecordedViolations = 64;

uint64_t LineBegin(uint64_t offset) { return offset / kCacheLineBytes; }
uint64_t LineEnd(uint64_t offset, uint64_t size) {
  return size == 0 ? LineBegin(offset)
                   : (offset + size - 1) / kCacheLineBytes + 1;
}
}  // namespace

void PersistOrderChecker::AttachRegion(const PersistentRegion* region,
                                       std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Mirror* found = Find(region);
  Mirror& mirror = found != nullptr ? *found : mirrors_.emplace_back();
  mirror.region = region;
  mirror.name = std::move(name);
  mirror.states = ZeroedArray<LineState>(LineEnd(0, region->size()));
  mirror.touched.clear();
}

PersistOrderChecker::Mirror* PersistOrderChecker::Find(
    const PersistentRegion* region) {
  for (Mirror& mirror : mirrors_) {
    if (mirror.region == region) return &mirror;
  }
  return nullptr;
}

void PersistOrderChecker::SetState(Mirror* mirror, uint64_t line,
                                   LineState next) {
  if (mirror->states[line] == LineState::kClean) {
    mirror->touched.push_back(line);
  }
  mirror->states.Set(line, next);
}

const char* PersistOrderChecker::StateName(LineState state) {
  switch (state) {
    case LineState::kClean:
      return "clean";
    case LineState::kDirtyCached:
      return "dirty-cached";
    case LineState::kAcceptedNt:
      return "accepted-ntstore";
    case LineState::kAcceptedCached:
      return "accepted-cached";
  }
  return "?";
}

void PersistOrderChecker::Record(const std::string& rule,
                                 const Mirror& mirror, uint64_t line,
                                 std::string detail) {
  ++total_violations_;
  if (violations_.size() < kMaxRecordedViolations) {
    violations_.push_back(
        Violation{rule, mirror.name, line, std::move(detail)});
  }
}

void PersistOrderChecker::OnStore(const PersistentRegion* region,
                                  uint64_t offset, uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  Mirror* mirror = Find(region);
  if (mirror == nullptr) return;
  for (uint64_t line = LineBegin(offset); line < LineEnd(offset, size);
       ++line) {
    if (mirror->states[line] == LineState::kAcceptedNt) {
      Record("persist-mixed-store", *mirror, line,
             "cached Store over line " + std::to_string(line) +
                 " whose NtStore is still un-fenced");
    }
    // A cached store re-dirties the line: an earlier write-back no
    // longer covers it (as in PersistentRegion::Store).
    SetState(mirror, line, LineState::kDirtyCached);
  }
}

void PersistOrderChecker::OnNtStore(const PersistentRegion* region,
                                    uint64_t offset, uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  Mirror* mirror = Find(region);
  if (mirror == nullptr) return;
  for (uint64_t line = LineBegin(offset); line < LineEnd(offset, size);
       ++line) {
    if (mirror->states[line] == LineState::kDirtyCached) {
      Record("persist-mixed-store", *mirror, line,
             "NtStore over line " + std::to_string(line) +
                 " still dirty from a cached Store");
    }
    SetState(mirror, line, LineState::kAcceptedNt);
  }
}

void PersistOrderChecker::OnFlush(const PersistentRegion* region,
                                  uint64_t offset, uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  Mirror* mirror = Find(region);
  if (mirror == nullptr) return;
  for (uint64_t line = LineBegin(offset); line < LineEnd(offset, size);
       ++line) {
    switch (mirror->states[line]) {
      case LineState::kDirtyCached:
        mirror->states.Set(line, LineState::kAcceptedCached);
        break;
      case LineState::kAcceptedNt:
      case LineState::kAcceptedCached:
        // Re-flushing an in-flight line: wasted clwb (the runtime
        // analog of the static persist-double-flush diagnostic).
        ++redundant_flush_lines_;
        break;
      case LineState::kClean:
        break;  // wide flushes legitimately cover clean lines
    }
  }
}

void PersistOrderChecker::OnFence(const PersistentRegion* region,
                                  uint64_t drained_lines) {
  std::lock_guard<std::mutex> lock(mutex_);
  Mirror* mirror = Find(region);
  if (mirror == nullptr) return;
  ++fences_checked_;
  auto kept = std::remove_if(
      mirror->touched.begin(), mirror->touched.end(), [&](uint64_t line) {
        LineState state = mirror->states[line];
        if (state == LineState::kAcceptedNt ||
            state == LineState::kAcceptedCached) {
          mirror->states.Set(line, LineState::kClean);
          return true;
        }
        // Dirty lines ride out the fence — the region must agree, or
        // the two models have diverged.
        PersistLineState region_state = region->line_state(line);
        if (region_state != PersistLineState::kDirtyCache) {
          Record("oracle-drift", *mirror, line,
                 "after Fence() the mirror holds line " +
                     std::to_string(line) + " as " + StateName(state) +
                     " but the region reports state " +
                     std::to_string(static_cast<int>(region_state)) +
                     " — a write path bypassed the primitives or the "
                     "lattice changed");
        }
        return false;
      });
  uint64_t mirror_drained =
      static_cast<uint64_t>(mirror->touched.end() - kept);
  mirror->touched.erase(kept, mirror->touched.end());
  if (mirror_drained != drained_lines) {
    Record("oracle-drift", *mirror, 0,
           "Fence() drained " + std::to_string(drained_lines) +
               " line(s) per the region but " +
               std::to_string(mirror_drained) +
               " per the mirror — in-flight state the checker never "
               "saw (late attach, or a primitive bypass)");
  }
}

void PersistOrderChecker::OnCrash(const PersistentRegion* region) {
  std::lock_guard<std::mutex> lock(mutex_);
  Mirror* mirror = Find(region);
  if (mirror == nullptr) return;
  // volatile := persisted and every region line clean: all in-flight
  // state is resolved (lost or survived); the mirror starts clean like a
  // restart.
  for (uint64_t line : mirror->touched) {
    mirror->states.Set(line, LineState::kClean);
  }
  mirror->touched.clear();
}

void PersistOrderChecker::OnCommitRecord(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++commit_records_checked_;
  // The payload and the marker live in different regions, so every
  // attached region must be fenced. One violation per region per marker,
  // naming its earliest-touched pending line.
  for (const Mirror& mirror : mirrors_) {
    if (mirror.touched.empty()) continue;
    uint64_t line = mirror.touched.front();
    Record("persist-order", mirror, line,
           "commit record of epoch " + std::to_string(epoch) +
               " written while line " + std::to_string(line) + " is " +
               StateName(mirror.states[line]) +
               " — the payload must be fully fenced before the marker");
  }
}

void PersistOrderChecker::OnPublish(const PersistentRegion* region,
                                    uint64_t begin, uint64_t end,
                                    const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  Mirror* mirror = Find(region);
  if (mirror == nullptr) return;
  ++publishes_checked_;
  uint64_t first = LineBegin(begin);
  uint64_t past = LineEnd(begin, end - begin);
  for (uint64_t line : mirror->touched) {
    if (line < first || line >= past) continue;
    Record("persist-order", *mirror, line,
           what + " publishes while line " + std::to_string(line) +
               " is " + StateName(mirror->states[line]) +
               " — a crash now exposes bytes the publish promised were "
               "durable");
  }
}

bool PersistOrderChecker::clean() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_violations_ == 0;
}

std::vector<PersistOrderChecker::Violation>
PersistOrderChecker::violations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return violations_;
}

uint64_t PersistOrderChecker::total_violations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_violations_;
}

uint64_t PersistOrderChecker::fences_checked() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fences_checked_;
}

uint64_t PersistOrderChecker::publishes_checked() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return publishes_checked_;
}

uint64_t PersistOrderChecker::commit_records_checked() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return commit_records_checked_;
}

uint64_t PersistOrderChecker::redundant_flush_lines() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return redundant_flush_lines_;
}

}  // namespace pmemolap
