#include "durability/durable_table.h"

#include <cstring>
#include <string>
#include <utility>

#include "common/crc32.h"
#include "durability/commit_log.h"
#include "durability/crash_injector.h"
#include "memsys/workload.h"

namespace pmemolap {

Result<std::unique_ptr<DurableTable>> DurableTable::Create(
    PmemSpace* space, CrashInjector* crash, Options options) {
  std::unique_ptr<DurableTable> table(new DurableTable(options, crash));
  PMEMOLAP_ASSIGN_OR_RETURN(
      table->table_,
      PersistentRegion::Create(space, options.capacity_bytes, kSocket, crash,
                               &table->cost_));
  PMEMOLAP_ASSIGN_OR_RETURN(
      table->log_, PersistentRegion::Create(space, options.log_bytes, kSocket,
                                            crash, &table->cost_));
  table->table_->AttachOrderChecker(&table->order_checker_, "table");
  table->log_->AttachOrderChecker(&table->order_checker_, "log");
  return table;
}

Result<uint64_t> DurableTable::Append(const std::byte* data, uint64_t bytes) {
  if (bytes == 0) return Status::InvalidArgument("empty ingest epoch");
  uint64_t epoch;
  uint64_t table_offset;
  uint64_t tail;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    epoch = epoch_bytes_.size();  // committed_epoch + 1
    table_offset = epoch_bytes_.back();
    tail = log_tail_;
  }
  if (bytes > options_.capacity_bytes - table_offset) {
    return Status::ResourceExhausted("durable table full at epoch " +
                                     std::to_string(epoch));
  }
  std::vector<std::byte> commit_record =
      EncodeCommitRecord(epoch, table_offset, bytes, Crc32(data, bytes));
  if (tail + commit_record.size() > options_.log_bytes) {
    return Status::ResourceExhausted("commit log full at epoch " +
                                     std::to_string(epoch));
  }

  // 1+2: the payload becomes durable in the table, past the committed
  // end where no reader looks.
  if (options_.ntstore) {
    PMEMOLAP_RETURN_NOT_OK(table_->NtStore(table_offset, data, bytes));
  } else {
    PMEMOLAP_RETURN_NOT_OK(table_->Store(table_offset, data, bytes));
    PMEMOLAP_RETURN_NOT_OK(table_->FlushRange(table_offset, bytes));
  }
  PMEMOLAP_RETURN_NOT_OK(table_->Fence());

  // 3+4: the commit record becomes durable — the epoch's point of no
  // return. Ordered strictly after the payload by the fence above; the
  // oracle verifies that ordering actually held at runtime.
  order_checker_.OnCommitRecord(epoch);
  if (options_.ntstore) {
    PMEMOLAP_RETURN_NOT_OK(
        log_->NtStore(tail, commit_record.data(), commit_record.size()));
  } else {
    PMEMOLAP_RETURN_NOT_OK(
        log_->Store(tail, commit_record.data(), commit_record.size()));
    PMEMOLAP_RETURN_NOT_OK(log_->FlushRange(tail, commit_record.size()));
  }
  PMEMOLAP_RETURN_NOT_OK(log_->Fence());

  // 5: publish to readers.
  AdvanceCommitted(epoch, table_offset + bytes, tail + commit_record.size());
  std::lock_guard<std::mutex> lock(mutex_);
  pending_ingest_bytes_ += bytes + commit_record.size();
  return epoch;
}

void DurableTable::AdvanceCommitted(uint64_t epoch, uint64_t total_bytes,
                                    uint64_t log_tail) {
  // Readers see [0, total_bytes) of the table and recovery trusts
  // [0, log_tail) of the log from here on: both must be fenced.
  order_checker_.OnPublish(table_.get(), 0, total_bytes, "AdvanceCommitted");
  order_checker_.OnPublish(log_.get(), 0, log_tail, "AdvanceCommitted");
  std::lock_guard<std::mutex> lock(mutex_);
  (void)epoch;  // always epoch_bytes_.size() by construction
  epoch_bytes_.push_back(total_bytes);
  log_tail_ = log_tail;
}

void DurableTable::RestoreCommitted(std::vector<uint64_t> epoch_bytes,
                                    uint64_t log_tail) {
  order_checker_.OnPublish(table_.get(), 0, epoch_bytes.back(),
                           "RestoreCommitted");
  order_checker_.OnPublish(log_.get(), 0, log_tail, "RestoreCommitted");
  std::lock_guard<std::mutex> lock(mutex_);
  epoch_bytes_ = std::move(epoch_bytes);
  log_tail_ = log_tail;
}

uint64_t DurableTable::committed_epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_bytes_.size() - 1;
}

Result<uint64_t> DurableTable::SnapshotBytes(uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t committed = epoch_bytes_.size() - 1;
  if (epoch == kLatestEpoch) epoch = committed;
  if (epoch > committed) {
    return Status::NotFound("epoch " + std::to_string(epoch) +
                            " not committed (latest is " +
                            std::to_string(committed) + ")");
  }
  return epoch_bytes_[epoch];
}

Status DurableTable::ReadSnapshot(uint64_t epoch, uint64_t offset,
                                  uint64_t size, std::byte* dst) const {
  if (crash_ != nullptr && crash_->crashed()) {
    return Status::Unavailable("modeled process crashed; recover first");
  }
  PMEMOLAP_ASSIGN_OR_RETURN(uint64_t limit, SnapshotBytes(epoch));
  if (offset + size > limit || offset + size < offset) {
    return Status::InvalidArgument(
        "snapshot read [" + std::to_string(offset) + ", " +
        std::to_string(offset + size) + ") past committed bytes " +
        std::to_string(limit));
  }
  std::memcpy(dst, table_->data() + offset, size);
  return Status::OK();
}

std::vector<TrafficRecord> DurableTable::BuildTraffic(uint64_t bytes) const {
  if (bytes == 0) return {};
  // One ingest thread writes the payload and then its commit record: one
  // writer, priced at the payload's access size over the table region.
  TrafficRecord ingest;
  ingest.op = OpType::kWrite;
  ingest.pattern = Pattern::kSequentialGrouped;
  ingest.media = Media::kPmem;
  ingest.data_socket = kSocket;
  ingest.bytes = bytes;
  ingest.access_size = 4 * kKiB;
  ingest.region_bytes = options_.capacity_bytes;
  ingest.threads = 1;
  ingest.label = "ingest";
  return {std::move(ingest)};
}

std::vector<TrafficRecord> DurableTable::DrainIngestTraffic() {
  std::lock_guard<std::mutex> lock(mutex_);
  return BuildTraffic(std::exchange(pending_ingest_bytes_, 0));
}

std::vector<TrafficRecord> DurableTable::standing_traffic() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return BuildTraffic(pending_ingest_bytes_);
}

}  // namespace pmemolap
