// Debounce<T> — the one hysteresis rule of the closed loops: a changed
// target commits only after it has been requested for `quanta`
// consecutive observations. The governor's actuators, the TierManager's
// per-extent moves and the service's degradation ladder all route
// through it, so "same trace in, byte-identical actuator log out" rests
// on one rule. It holds only the pending target and its streak; the
// committed value stays with the loop that owns it.
#pragma once

namespace pmemolap {

template <typename T>
class Debounce {
 public:
  /// One observation of `target` while `current` is committed. A target
  /// equal to `current` ends the streak; a target other than the pending
  /// one restarts it at 1; a repeat extends it, capped at `quanta` so a
  /// commit the caller defers (a migration budget) stays ready without
  /// the count growing. True once the streak reaches `quanta`.
  bool Ready(const T& current, const T& target, int quanta) {
    if (target == current) {
      streak_ = 0;
      return false;
    }
    if (target != pending_) {
      pending_ = target;
      streak_ = 1;
    } else if (streak_ < quanta) {
      ++streak_;
    }
    return streak_ >= quanta;
  }

  /// The target the current streak counts.
  const T& pending() const { return pending_; }

  /// Called after a commit: the next changed target counts from 1.
  void Reset() { streak_ = 0; }

 private:
  T pending_{};
  int streak_ = 0;
};

}  // namespace pmemolap
