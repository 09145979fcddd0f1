// RecoveryStats — what DurableTable::Recover, the restart-time
// reconstruction of a DurableTable (defined in recovery.cc), found and did.
//
// After a modeled crash only the persisted images remain. Ingest fenced
// every committed epoch's payload in the table before writing its commit
// record, so recovery has nothing to replay: it scans the commit log
// (CRC-validating every record, stopping at the first torn or corrupt
// one), durably truncates the log past the last committed record,
// re-validates each committed epoch's table bytes against the record's
// payload CRC, durably truncates the table's uncommitted tail and
// republishes. A crash *during* recovery is just another crash:
// acknowledge and run Recover() again, and the state converges (each
// truncation is idempotent, and verification only reads).
#pragma once

#include <cstdint>

#include "common/status.h"

namespace pmemolap {

/// What recovery found and did; surfaced to benches and the scrub report.
struct RecoveryStats {
  uint64_t committed_epoch = 0;   ///< highest epoch with a valid commit
  uint64_t verified_epochs = 0;   ///< committed epochs CRC-checked
  uint64_t verified_bytes = 0;    ///< committed table bytes CRC-checked
  uint64_t scanned_records = 0;   ///< valid commit records scanned
  uint64_t log_bytes_scanned = 0;
  bool torn_tail = false;         ///< scan stopped on a torn/corrupt record
  uint64_t truncated_bytes = 0;   ///< valid records dropped from the log
  uint64_t duplicate_commits = 0; ///< redundant commit records tolerated
  double modeled_seconds = 0.0;   ///< scan + verify + truncation cost
};

}  // namespace pmemolap
