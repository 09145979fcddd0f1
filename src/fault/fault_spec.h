// FaultSpec — declarative description of the faults to inject into the
// modeled PMEM platform.
//
// The fault classes follow what early Optane deployments actually report
// (Izraelevitz et al.; Wu et al., "Lessons learned ... Optane DC in DBMS"):
//  - poisoned 256 B internal lines (uncorrectable media errors surfacing
//    as machine-check poison on read),
//  - thermal throttling windows in which a DIMM's media service rates are
//    scaled down,
//  - UPI link degradation (fewer active lanes / reduced transfer rate),
//  - allocation failures (interleave-set regions temporarily unavailable).
//
// A FaultSpec is pure data; the seeded FaultInjector turns it into
// deterministic injections so every fault scenario replays bit-identically
// from a fixed seed.
#pragma once

#include <cstdint>
#include <vector>

namespace pmemolap {

/// One thermal-throttle window: between `start_seconds` and `end_seconds`
/// of platform time, `socket`'s PMEM DIMMs serve at `service_factor` of
/// their healthy rates.
struct ThrottleWindow {
  int socket = 0;
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  double service_factor = 0.5;

  bool Contains(double now) const {
    return now >= start_seconds && now < end_seconds;
  }
};

struct FaultSpec {
  /// Seed for all randomized choices (poisoned line placement, transient
  /// vs permanent, probabilistic allocation failures).
  uint64_t seed = 0xF001;

  // --- Media poison --------------------------------------------------------
  /// Expected poisoned 256 B lines per MiB of each PMEM region tagged by
  /// the injector (0 = no poison).
  double poison_lines_per_mib = 0.0;
  /// Fraction of injected poisons that are transient (the DIMM's ECC
  /// corrects them after retries; data survives). The rest are permanent:
  /// the line's bytes are corrupted and only a scrub/rewrite recovers.
  double transient_fraction = 0.5;
  /// Retry attempts after which a transient poison clears.
  int transient_clear_attempts = 2;

  // --- Thermal throttling --------------------------------------------------
  std::vector<ThrottleWindow> throttle_windows;

  // --- UPI degradation -----------------------------------------------------
  /// Multiplier on per-direction UPI payload capacity (1.0 = healthy).
  double upi_capacity_factor = 1.0;

  // --- Allocation failures -------------------------------------------------
  /// Fail every Nth allocation deterministically (0 = off).
  int alloc_failure_period = 0;
  /// Additional independent probability that any allocation fails.
  double alloc_failure_rate = 0.0;

  // --- Recovery cost model -------------------------------------------------
  /// Modeled media rate at which scrub-repairs rewrite chunks, charged to
  /// the recovery-overhead account.
  double repair_gbps = 2.0;

  bool InjectsPoison() const { return poison_lines_per_mib > 0.0; }

  /// A spec that injects nothing (intensity 0).
  static FaultSpec Healthy();
  /// Graduated presets: 0 = healthy, 1 = light, 2 = moderate, 3 = heavy,
  /// 4 = extreme. Used by bench_fault_degradation and the fault tests.
  static FaultSpec Preset(int intensity);
};

inline constexpr int kNumFaultIntensities = 5;

/// Stable name for a Preset intensity ("healthy", "light", ...).
const char* FaultIntensityName(int intensity);

}  // namespace pmemolap
