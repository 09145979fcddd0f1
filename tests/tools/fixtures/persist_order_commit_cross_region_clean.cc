// Fixture: persist-order, cross-region commit done right. Linted as
// src/durability/fixture.cc — the table's fence dominates the marker
// written to the log, and the marker gets its own fence (the
// DurableTable::Append shape).
#include "common/status.h"

namespace pmemolap {

Status CommitAfterTablePayloadFence(PersistentRegion* table,
                                    PersistentRegion* log,
                                    uint64_t commit_at) {
  PMEMOLAP_RETURN_NOT_OK(table->Store(0, nullptr, 64));
  PMEMOLAP_RETURN_NOT_OK(table->FlushRange(0, 64));
  PMEMOLAP_RETURN_NOT_OK(table->Fence());
  PMEMOLAP_RETURN_NOT_OK(log->NtStore(commit_at, nullptr, 40));
  PMEMOLAP_RETURN_NOT_OK(log->Fence());
  return Status::OK();
}

}  // namespace pmemolap
