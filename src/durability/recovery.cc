#include "durability/recovery.h"

#include <algorithm>
#include <vector>

#include "durability/crash_injector.h"
#include "durability/durable_table.h"
#include "durability/redo_log.h"

namespace pmemolap {

Result<RecoveryStats> DurableTable::Recover() {
  if (crash_ != nullptr && crash_->crashed()) crash_->AcknowledgeCrash();
  PersistentRegion& log = *log_;
  PersistentRegion& image = *table_;
  double seconds_before = log.modeled_seconds() + image.modeled_seconds();

  LogScan scan = ScanLog(log.data(), log.size());
  RecoveryStats stats;
  stats.committed_epoch = scan.committed_epoch;
  stats.scanned_records = scan.records.size();
  stats.log_bytes_scanned = scan.valid_bytes;
  stats.torn_tail = scan.torn_tail;
  stats.duplicate_commits = scan.duplicate_commits;
  stats.uncommitted_records = scan.uncommitted_records;
  stats.truncated_bytes = scan.valid_bytes - scan.committed_bytes;

  // Drop the abandoned suffix first: if we crash past this point, the
  // next scan sees a log that ends exactly at the committed prefix.
  PMEMOLAP_RETURN_NOT_OK(log.TruncateTo(scan.committed_bytes));

  // Replay committed payloads in log order. The ingest path applied them
  // once already when it didn't crash mid-apply — rewriting the same
  // bytes is what makes re-running recovery (after a crash during this
  // loop) converge instead of compounding.
  std::vector<uint64_t> epoch_bytes(scan.committed_epoch + 1, 0);
  for (const ScannedRecord& record : scan.records) {
    if (record.type != LogRecordType::kData) continue;
    if (record.epoch == 0 || record.epoch > scan.committed_epoch) continue;
    PMEMOLAP_RETURN_NOT_OK(image.Store(record.table_offset,
                                       log.data() + record.payload_offset,
                                       record.payload_bytes));
    PMEMOLAP_RETURN_NOT_OK(
        image.FlushRange(record.table_offset, record.payload_bytes));
    ++stats.replayed_epochs;
    stats.replayed_bytes += record.payload_bytes;
    epoch_bytes[record.epoch] =
        std::max(epoch_bytes[record.epoch],
                 record.table_offset + record.payload_bytes);
  }
  PMEMOLAP_RETURN_NOT_OK(image.Fence());

  // Commit-only epochs (a corruption pattern, not producible by the
  // ingest protocol) carry the previous epoch's extent forward.
  for (uint64_t e = 1; e < epoch_bytes.size(); ++e) {
    epoch_bytes[e] = std::max(epoch_bytes[e], epoch_bytes[e - 1]);
  }
  RestoreCommitted(std::move(epoch_bytes), scan.committed_bytes);

  // The scan reads the valid prefix plus the header probe that ended it.
  uint64_t scanned_span =
      std::min<uint64_t>(log.size(),
                         scan.valid_bytes + sizeof(LogRecordHeader));
  stats.modeled_seconds =
      cost_.ScanSeconds(PersistCostModel::LinesCovering(0, scanned_span)) +
      (log.modeled_seconds() + image.modeled_seconds() - seconds_before);
  return stats;
}

}  // namespace pmemolap
