// HybridPlacer — PMEM/DRAM placement for hybrid deployments.
//
// The paper's future work ("we plan to transfer our insights to hybrid
// PMEM-DRAM setups", §9) distilled into a planner: given the sizes of a
// workload's structures and the available DRAM budget, place each
// structure on the media its access pattern favors.
//
// Placement priority follows the characterization results:
//   1. Random-access structures (hash indexes): PMEM's weakest discipline
//      (latency-bound probes, Figs. 12/14) — DRAM first.
//   2. Write-heavy intermediates: PMEM writes are 1/7th of reads and
//      collapse under many writers (Figs. 7/8) — DRAM second.
//   3. Sequentially scanned base tables: PMEM's strongest discipline
//      (~40 GB/s/socket, Fig. 3) — PMEM unless DRAM is left over.
//
// This is the static plan. Its runtime form is the bandwidth governor's
// staging actuator, which needs no planner: against the platform's
// per-socket DRAM no budget binds, so it stages every structure whose
// modeled benefit clears its floor (governor/governor.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topo/topology.h"

namespace pmemolap {

/// Byte sizes of the workload's structures (per socket).
struct StructureSizes {
  uint64_t table_bytes = 0;         ///< sequentially scanned base data
  uint64_t index_bytes = 0;         ///< randomly probed indexes
  uint64_t intermediate_bytes = 0;  ///< write-heavy intermediates
};

/// The chosen placement plus the reasoning.
struct HybridPlacement {
  Media table_media = Media::kPmem;
  Media index_media = Media::kPmem;
  Media intermediate_media = Media::kPmem;
  /// DRAM bytes the plan consumes (<= budget).
  uint64_t dram_used_bytes = 0;
  std::vector<std::string> rationale;
};

/// Plans hybrid placements under a per-socket DRAM budget.
class HybridPlacer {
 public:
  explicit HybridPlacer(const SystemTopology& topology)
      : topology_(topology) {}

  /// Places the structures. `dram_budget_bytes` of 0 means "use the
  /// platform's full DRAM capacity per socket".
  HybridPlacement Place(const StructureSizes& sizes,
                        uint64_t dram_budget_bytes = 0) const;

 private:
  SystemTopology topology_;
};

}  // namespace pmemolap
