// RecoveryStats — what DurableTable::Recover, the restart-time
// reconstruction of a DurableTable (defined in recovery.cc), found and did.
//
// After a modeled crash only the persisted images remain. Recovery scans
// the redo log (CRC-validating every record, truncating at the first torn
// or corrupt one), durably truncates the abandoned uncommitted suffix,
// then replays every committed epoch's payload into the table image with
// the same persistence primitives the ingest path uses — so a crash
// *during* recovery is just another crash: acknowledge and run Recover()
// again, and the state converges (replay is idempotent: it rewrites the
// same bytes at the same offsets).
#pragma once

#include <cstdint>

#include "common/status.h"

namespace pmemolap {

/// What recovery found and did; surfaced to benches and the scrub report.
struct RecoveryStats {
  uint64_t committed_epoch = 0;   ///< highest epoch with a valid commit
  uint64_t replayed_epochs = 0;   ///< epochs re-applied to the table image
  uint64_t replayed_bytes = 0;    ///< payload bytes re-applied
  uint64_t scanned_records = 0;   ///< valid records CRC-checked
  uint64_t log_bytes_scanned = 0;
  bool torn_tail = false;         ///< scan stopped on a torn/corrupt record
  uint64_t truncated_bytes = 0;   ///< abandoned suffix dropped from the log
  uint64_t duplicate_commits = 0; ///< redundant commit markers tolerated
  uint64_t uncommitted_records = 0;
  double modeled_seconds = 0.0;   ///< scan + replay persistence cost
};

}  // namespace pmemolap
