#include "device/persistence_domain.h"

#include <algorithm>

namespace pmemolap {

PersistenceTracker::PersistenceTracker(uint64_t bytes)
    : bytes_(bytes),
      state_((bytes + kCacheLineBytes - 1) / kCacheLineBytes,
             PersistLineState::kClean) {}

uint64_t PersistenceTracker::LineEnd(uint64_t offset, uint64_t size) const {
  if (size == 0) return LineBegin(offset);
  uint64_t last = (offset + size - 1) / kCacheLineBytes;
  return std::min<uint64_t>(last + 1, state_.size());
}

void PersistenceTracker::Set(uint64_t line, PersistLineState next) {
  if (state_[line] == PersistLineState::kClean) in_flight_.push_back(line);
  state_[line] = next;
}

void PersistenceTracker::MarkDirty(uint64_t offset, uint64_t size) {
  for (uint64_t l = LineBegin(offset), e = LineEnd(offset, size); l < e; ++l) {
    Set(l, PersistLineState::kDirtyCache);
  }
}

uint64_t PersistenceTracker::AcceptDirtyRange(uint64_t offset, uint64_t size) {
  uint64_t moved = 0;
  for (uint64_t l = LineBegin(offset), e = LineEnd(offset, size); l < e; ++l) {
    if (state_[l] == PersistLineState::kDirtyCache) {
      state_[l] = PersistLineState::kAcceptedWpq;
      ++moved;
    }
  }
  return moved;
}

void PersistenceTracker::MarkAccepted(uint64_t offset, uint64_t size) {
  for (uint64_t l = LineBegin(offset), e = LineEnd(offset, size); l < e; ++l) {
    Set(l, PersistLineState::kAcceptedWpq);
  }
}

uint64_t PersistenceTracker::DrainAccepted() {
  // Dirty lines ride out the fence and stay listed; accepted ones leave.
  size_t kept = 0;
  for (uint64_t line : in_flight_) {
    if (state_[line] == PersistLineState::kAcceptedWpq) {
      state_[line] = PersistLineState::kClean;
    } else {
      in_flight_[kept++] = line;
    }
  }
  uint64_t drained = in_flight_.size() - kept;
  in_flight_.resize(kept);
  return drained;
}

uint64_t PersistenceTracker::dirty_lines() const {
  return static_cast<uint64_t>(
      std::count_if(in_flight_.begin(), in_flight_.end(), [this](uint64_t l) {
        return state_[l] == PersistLineState::kDirtyCache;
      }));
}

uint64_t PersistenceTracker::accepted_lines() const {
  return in_flight_.size() - dirty_lines();
}

std::vector<uint64_t> PersistenceTracker::LinesInState(
    PersistLineState state) const {
  std::vector<uint64_t> lines;
  for (uint64_t l = 0; l < state_.size(); ++l) {
    if (state_[l] == state) lines.push_back(l);
  }
  return lines;
}

uint64_t PersistenceTracker::XPLinesInState(PersistLineState state) const {
  constexpr uint64_t kPerXPLine = kOptaneLineBytes / kCacheLineBytes;
  uint64_t count = 0;
  for (uint64_t l = 0; l < state_.size();) {
    uint64_t xp_end = std::min<uint64_t>(
        (l / kPerXPLine + 1) * kPerXPLine, state_.size());
    bool hit = false;
    for (; l < xp_end; ++l) {
      if (state_[l] == state) hit = true;
    }
    if (hit) ++count;
  }
  return count;
}

void PersistenceTracker::Reset() {
  for (uint64_t line : in_flight_) state_[line] = PersistLineState::kClean;
  in_flight_.clear();
}

}  // namespace pmemolap
