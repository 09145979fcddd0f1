// CrashInjector — deterministic modeled process kills at persistence
// boundaries.
//
// Every PersistentRegion primitive (Store, NtStore, FlushRange, Fence) is
// one *persistence boundary*: a point where the modeled process can die
// with that primitive's durable effect not (or only partially) applied.
// Boundaries are numbered globally across all registered regions in
// program order, so an exhaustive sweep is just "for b in 0..B: run the
// workload with the crash armed at b" — B comes from a dry run with the
// injector disarmed.
//
// Crash semantics at the fired boundary:
//   - the in-flight primitive partially executes (an ntstore/flush keeps a
//     seeded-random prefix, optionally torn mid-cache-line);
//   - every line still dirty in the modeled CPU caches is lost;
//   - every line accepted into a write-pending queue but not yet fenced
//     survives with probability `accepted_survival_p` — the WPQ drain was
//     in flight when power cut;
//   - all registered regions reconcile their volatile image to the
//     persisted image, exactly what a real restart would mmap.
//
// All randomness derives from (seed, boundary_index), so a crash replays
// from that pair alone. The query service passes its chaos campaign's
// seed (ChaosConfig::seed): a whole campaign, crash schedule included,
// replays from one number.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace pmemolap {

class PersistentRegion;

/// Where and how the modeled process dies.
struct CrashPlan {
  /// Global boundary index (0-based) at which the crash fires; -1 never
  /// crashes (dry-run mode, used to count boundaries for a sweep).
  int64_t boundary_index = -1;
  /// Probability that a flushed-but-unfenced line had already reached the
  /// persistence domain when power cut.
  double accepted_survival_p = 0.5;
  /// Allow the in-flight primitive's last line to tear mid-line (sub-64 B
  /// prefix); false keeps partial execution cache-line-atomic.
  bool allow_subline_tear = true;
};

/// What the crash destroyed — aggregated over all registered regions.
struct CrashReport {
  int64_t boundary = -1;            ///< boundary that fired, -1 if none yet
  uint64_t dirty_lines_lost = 0;    ///< cached stores that never flushed
  uint64_t accepted_lines_lost = 0; ///< flushed lines whose drain was cut
  uint64_t accepted_lines_survived = 0;
  /// 256 B XPLines left with a mix of new and old 64 B lines — the torn
  /// writes a CRC scan must catch.
  uint64_t torn_xplines = 0;
};

class CrashInjector {
 public:
  explicit CrashInjector(uint64_t seed, CrashPlan plan = CrashPlan())
      : seed_(seed), plan_(plan) {}

  /// Regions the crash applies to. Registration order does not affect the
  /// boundary numbering (primitives number themselves in program order).
  void Register(PersistentRegion* region) { regions_.push_back(region); }

  const CrashPlan& plan() const { return plan_; }
  uint64_t seed() const { return seed_; }

  /// Called by a region primitive at entry. Counts the boundary and
  /// returns true when this one is the armed crash point (the primitive
  /// then stages its partial effect and calls TriggerCrash).
  bool HitsNextBoundary();

  /// Fires the crash: marks the injector crashed and applies crash
  /// semantics to every registered region. Idempotent per arming.
  void TriggerCrash();

  bool crashed() const { return crashed_; }
  uint64_t boundaries_seen() const { return boundary_counter_; }
  const CrashReport& report() const { return report_; }

  /// Deterministic stream for the fired boundary; `stream` separates
  /// independent uses (partial-prefix draw vs survival draws).
  Rng BoundaryRng(uint64_t stream) const;

  /// Recovery has observed the crash: clears the crashed flag and disarms
  /// so the recovery path's own primitives run to completion. Boundary
  /// numbering continues (use boundaries_seen() + Arm for a second crash).
  void AcknowledgeCrash();

  /// Re-arms at an absolute boundary index (>= boundaries_seen() to fire
  /// in the future) — crash-during-recovery tests re-arm after ack.
  void Arm(int64_t boundary_index) { plan_.boundary_index = boundary_index; }

 private:
  uint64_t seed_;
  CrashPlan plan_;
  std::vector<PersistentRegion*> regions_;
  uint64_t boundary_counter_ = 0;
  bool crashed_ = false;
  CrashReport report_;
};

}  // namespace pmemolap
