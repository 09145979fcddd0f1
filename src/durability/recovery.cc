#include "durability/recovery.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "durability/commit_log.h"
#include "durability/crash_injector.h"
#include "durability/durable_table.h"

namespace pmemolap {

Result<RecoveryStats> DurableTable::Recover() {
  if (crash_ != nullptr && crash_->crashed()) crash_->AcknowledgeCrash();
  PersistentRegion& log = *log_;
  PersistentRegion& image = *table_;
  double seconds_before = log.modeled_seconds() + image.modeled_seconds();

  LogScan scan = ScanLog(log.data(), log.size());
  RecoveryStats stats;
  stats.committed_epoch = scan.committed_epoch;
  stats.scanned_records = scan.records.size() + scan.duplicate_commits;
  stats.log_bytes_scanned = scan.valid_bytes;
  stats.torn_tail = scan.torn_tail;
  stats.duplicate_commits = scan.duplicate_commits;
  stats.truncated_bytes = scan.valid_bytes - scan.committed_bytes;

  // Drop everything past the last commit record first: if we crash past
  // this point, the next scan sees a log that ends exactly there.
  PMEMOLAP_RETURN_NOT_OK(log.TruncateTo(scan.committed_bytes));

  // Ingest fenced each payload before its commit record, so a committed
  // epoch's table bytes are durable already: check them, copy nothing.
  std::vector<uint64_t> epoch_bytes(scan.committed_epoch + 1, 0);
  uint64_t verified_lines = 0;
  for (const ScannedRecord& record : scan.records) {
    if (record.table_offset > image.size() ||
        record.bytes > image.size() - record.table_offset ||
        Crc32(image.data() + record.table_offset, record.bytes) !=
            record.payload_crc) {
      return Status::DataLoss(
          "committed epoch " + std::to_string(record.epoch) +
          ": table bytes [" + std::to_string(record.table_offset) + ", +" +
          std::to_string(record.bytes) +
          ") do not match its commit record's payload CRC");
    }
    ++stats.verified_epochs;
    stats.verified_bytes += record.bytes;
    verified_lines +=
        PersistCostModel::LinesCovering(record.table_offset, record.bytes);
    epoch_bytes[record.epoch] = record.table_offset + record.bytes;
  }
  // Epochs without a record of their own (a gap in the log, not
  // producible by the ingest protocol) carry the previous extent forward.
  for (uint64_t e = 1; e < epoch_bytes.size(); ++e) {
    epoch_bytes[e] = std::max(epoch_bytes[e], epoch_bytes[e - 1]);
  }

  // Zero the uncommitted tail a crash left past the committed end, so
  // ingest resumes over clean storage and a rerun finds nothing to do.
  PMEMOLAP_RETURN_NOT_OK(image.TruncateTo(epoch_bytes.back()));
  RestoreCommitted(std::move(epoch_bytes), scan.committed_bytes);

  // The scan reads the valid prefix plus the record probe that ended it.
  uint64_t scanned_span = std::min<uint64_t>(
      log.size(), scan.valid_bytes + sizeof(CommitRecord));
  stats.modeled_seconds =
      cost_.ScanSeconds(PersistCostModel::LinesCovering(0, scanned_span)) +
      cost_.ScanSeconds(verified_lines) +
      (log.modeled_seconds() + image.modeled_seconds() - seconds_before);
  return stats;
}

}  // namespace pmemolap
