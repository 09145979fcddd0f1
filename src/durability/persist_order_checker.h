// PersistOrderChecker — runtime durability oracle.
//
// The static persist-ordering pass (tools/lint/persist_check.h) proves
// the store -> flush -> fence -> publish ladder per *source path*; this
// checker validates the same lattice per *executed operation*. It keeps
// an independent per-64B-line mirror of every attached region's
// persistence state, advanced only by the primitive hooks, and checks
// two kinds of invariants:
//
//   protocol   a commit record must never run while any mirrored line
//              of any attached region is still dirty (cached store
//              without a flush) or accepted-but-unfenced (WPQ not
//              drained), and a volatile publish must never run while
//              such a line lies in its range — the runtime analog of
//              the static persist-order rule; cached and non-temporal
//              writes interleaving on one line without a fence is the
//              analog of persist-mixed-store.
//
//   drift      at every Fence() the mirror must agree with the region's
//              own line_state() line for line, and the number of lines
//              the mirror believes drained must equal what the region
//              reported. If the two models diverge — a primitive
//              grew a side effect the checker (and therefore the static
//              lattice) doesn't know about, or a write path bypassed
//              the primitives — the oracle itself has drifted and the
//              violation says so ("oracle-drift").
//
// Redundant flushes (the static persist-double-flush perf diagnostic)
// are counted, not flagged: re-flushing a clean line is wasted clwb
// cost, never a safety bug.
//
// DurableTable always attaches one checker to both of its regions.
// Violations are recorded, never thrown: crash sweeps assert
// `violations().empty()` after thousands of boundaries, and the engine
// surfaces a non-clean checker as Status::Internal after the fact.
// Hooks are called from the single ingest thread (the same threading
// contract as the primitives themselves); the violation list is
// mutex-guarded so readers may poll concurrently.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/zeroed_array.h"

namespace pmemolap {

class PersistentRegion;

class PersistOrderChecker {
 public:
  /// The mirrored lattice, one state per 64 B line. Accepted is split
  /// by write kind so the mixed-store hazard is observable at runtime.
  enum class LineState : uint8_t {
    kClean = 0,  ///< zero: a fresh mirror reads all clean
    kDirtyCached = 1,
    kAcceptedNt = 2,
    kAcceptedCached = 3,
  };

  struct Violation {
    std::string rule;    ///< "persist-order" | "persist-mixed-store" |
                         ///< "oracle-drift"
    std::string region;  ///< attach-time name
    uint64_t line = 0;   ///< 64 B line index the violation anchors to
    std::string detail;
  };

  /// Starts mirroring `region` (all lines clean) under `name`. The
  /// region must outlive the checker's use of it.
  void AttachRegion(const PersistentRegion* region, std::string name);

  // --- Primitive hooks (called by PersistentRegion on success) -------------
  void OnStore(const PersistentRegion* region, uint64_t offset,
               uint64_t size);
  void OnNtStore(const PersistentRegion* region, uint64_t offset,
                 uint64_t size);
  void OnFlush(const PersistentRegion* region, uint64_t offset,
               uint64_t size);
  /// `drained_lines` is what the region reported draining —
  /// cross-validated against the mirror (drift detection).
  void OnFence(const PersistentRegion* region, uint64_t drained_lines);
  /// Crash applied: volatile := persisted, every line clean — mirror too.
  void OnCrash(const PersistentRegion* region);

  // --- Protocol boundaries (called by DurableTable) ------------------------
  /// About to write the epoch's commit record: every mirrored line of
  /// every attached region must already be fenced (the payload's
  /// durability must dominate the marker, whichever region holds it).
  void OnCommitRecord(uint64_t epoch);
  /// Volatile publish covering [begin, end) of `region`: every mirrored
  /// line in the range must be clean. `what` labels the publish site.
  void OnPublish(const PersistentRegion* region, uint64_t begin,
                 uint64_t end, const std::string& what);

  // --- Results -------------------------------------------------------------
  bool clean() const;
  std::vector<Violation> violations() const;
  uint64_t total_violations() const;
  uint64_t fences_checked() const;
  uint64_t publishes_checked() const;
  uint64_t commit_records_checked() const;
  /// Lines re-flushed while already accepted / clean (wasted clwb).
  uint64_t redundant_flush_lines() const;

 private:
  struct Mirror {
    const PersistentRegion* region = nullptr;
    std::string name;
    /// Zero-on-demand, so lines never written cost no host memory.
    ZeroedArray<LineState> states;
    /// Non-clean line indexes in first-touch order (a line is appended
    /// when its state leaves kClean) — keeps every check O(in-flight
    /// lines), not O(region lines), so exhaustive crash sweeps stay
    /// cheap.
    std::vector<uint64_t> touched;
  };

  Mirror* Find(const PersistentRegion* region);
  /// Moves `line` to `next`, listing it in `touched` if it was clean.
  static void SetState(Mirror* mirror, uint64_t line, LineState next);
  void Record(const std::string& rule, const Mirror& mirror, uint64_t line,
              std::string detail);
  static const char* StateName(LineState state);

  mutable std::mutex mutex_;
  /// In attach order, so checks that span regions report them in a
  /// fixed order.
  std::vector<Mirror> mirrors_;
  std::vector<Violation> violations_;
  uint64_t total_violations_ = 0;
  uint64_t fences_checked_ = 0;
  uint64_t publishes_checked_ = 0;
  uint64_t commit_records_checked_ = 0;
  uint64_t redundant_flush_lines_ = 0;
};

}  // namespace pmemolap
