// Persistence-domain state for one modeled PMEM region.
//
// On the modeled platform (Cascade Lake + Optane DC, ADR) a store is
// durable only once it has left the CPU caches and reached the iMC's
// write-pending queue — the ADR domain flushes the WPQ on power loss, the
// caches are lost. This tracker mirrors that three-stage journey per 64 B
// cache line:
//
//   kClean        the persisted image matches the volatile image
//   kDirtyCache   stored but still in a (modeled) CPU cache — lost on crash
//   kAcceptedWpq  flushed/nt-stored into the WPQ — survives crash, but the
//                 drain is asynchronous until an sfence retires it
//
// The tracker holds no data bytes; PersistentRegion (durability layer)
// pairs it with the volatile image and the persisted bytes of in-flight
// lines, and applies crash semantics. Besides the per-line state it keeps
// the list of in-flight (non-clean) lines, so a drain, a reset or a count
// costs O(in-flight lines), not O(region lines). Per-256B-XPLine
// aggregation serves scrub reports and crash statistics, since Optane
// tears at XPLine granularity internally.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace pmemolap {

enum class PersistLineState : uint8_t {
  kClean = 0,
  kDirtyCache = 1,
  kAcceptedWpq = 2,
};

class PersistenceTracker {
 public:
  /// Tracks `bytes` of region space, rounded up to whole cache lines.
  explicit PersistenceTracker(uint64_t bytes);

  uint64_t bytes() const { return bytes_; }
  uint64_t lines() const { return static_cast<uint64_t>(state_.size()); }

  PersistLineState state(uint64_t line) const { return state_[line]; }

  /// A cached store: every line touched by [offset, offset+size) becomes
  /// dirty. Lines already accepted into the WPQ drop back to dirty — the
  /// new store re-dirties the cache line and the earlier write-back no
  /// longer covers it.
  void MarkDirty(uint64_t offset, uint64_t size);

  /// clwb over the range: dirty lines move to accepted; clean and
  /// already-accepted lines are untouched. Returns lines moved (the count
  /// the flush actually pays for).
  uint64_t AcceptDirtyRange(uint64_t offset, uint64_t size);

  /// ntstore over the range: lines go straight to accepted, bypassing the
  /// dirty stage.
  void MarkAccepted(uint64_t offset, uint64_t size);

  /// sfence: drains the WPQ. All accepted lines become clean. Returns
  /// lines drained.
  uint64_t DrainAccepted();

  uint64_t dirty_lines() const;
  uint64_t accepted_lines() const;

  /// Line indexes currently in the given state, ascending.
  // lint:allow(test-only-api): read-back oracle for the persist ladder
  std::vector<uint64_t> LinesInState(PersistLineState state) const;

  /// 256 B XPLines containing at least one line in the given state —
  /// the granularity at which torn writes surface.
  // lint:allow(test-only-api): read-back oracle for the persist ladder
  uint64_t XPLinesInState(PersistLineState state) const;

  /// Forgets all in-flight state (crash handled, images reconciled).
  void Reset();

 private:
  uint64_t LineBegin(uint64_t offset) const { return offset / kCacheLineBytes; }
  uint64_t LineEnd(uint64_t offset, uint64_t size) const;
  /// Moves `line` to `next`, listing it as in flight if it was clean.
  void Set(uint64_t line, PersistLineState next);

  uint64_t bytes_ = 0;
  std::vector<PersistLineState> state_;
  /// Every line not kClean, once each, in the order it left kClean.
  std::vector<uint64_t> in_flight_;
};

}  // namespace pmemolap
