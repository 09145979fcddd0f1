#include "core/hybrid.h"

namespace pmemolap {

HybridPlacement HybridPlacer::Place(const StructureSizes& sizes,
                                    uint64_t dram_budget_bytes) const {
  HybridPlacement placement;
  uint64_t budget = dram_budget_bytes > 0
                        ? dram_budget_bytes
                        : topology_.dram_capacity_per_socket();

  // 1. Indexes: random probes are latency-bound on PMEM (Fig. 12) and
  //    dominate join-heavy queries (§6.2) — highest DRAM priority.
  if (sizes.index_bytes > 0 && sizes.index_bytes <= budget) {
    placement.index_media = Media::kDram;
    placement.dram_used_bytes += sizes.index_bytes;
    budget -= sizes.index_bytes;
    placement.rationale.push_back(
        "indexes -> DRAM: random probes are PMEM's weakest access pattern "
        "(latency-bound, ~1/3 of DRAM's random bandwidth)");
  } else if (sizes.index_bytes > 0) {
    placement.rationale.push_back(
        "indexes -> PMEM: do not fit the DRAM budget; use >= 256 B buckets "
        "(Dash) to probe at Optane line granularity");
  }

  // 2. Intermediates: writes reach only ~1/7th of PMEM's read bandwidth
  //    and degrade under parallelism (Figs. 7/8).
  if (sizes.intermediate_bytes > 0 && sizes.intermediate_bytes <= budget) {
    placement.intermediate_media = Media::kDram;
    placement.dram_used_bytes += sizes.intermediate_bytes;
    budget -= sizes.intermediate_bytes;
    placement.rationale.push_back(
        "intermediates -> DRAM: PMEM writes are the scarce resource "
        "(12.6 vs 40 GB/s) and intermediates need no persistence");
  } else if (sizes.intermediate_bytes > 0) {
    placement.rationale.push_back(
        "intermediates -> PMEM: exceed the remaining DRAM budget; write "
        "them with 4-6 threads per socket in 4 KB chunks");
  }

  // 3. Base table: sequential scans run near-DRAM on PMEM; only promote
  //    if the whole table still fits (small datasets).
  if (sizes.table_bytes > 0 && sizes.table_bytes <= budget) {
    placement.table_media = Media::kDram;
    placement.dram_used_bytes += sizes.table_bytes;
    placement.rationale.push_back(
        "table -> DRAM: the whole working set fits; no reason to pay the "
        "PMEM read gap");
  } else {
    placement.rationale.push_back(
        "table -> PMEM: sequential scans are PMEM's strongest discipline "
        "(~40 GB/s/socket); stripe across sockets, read near-only");
  }
  return placement;
}

}  // namespace pmemolap
