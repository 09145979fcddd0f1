// Fixture: persist-order, commit marker while another region's payload
// is un-fenced. Linted as src/durability/fixture.cc — the payload goes
// to the table and the marker to the log, so the log's own state is
// clean; the table's flushed payload has not reached a Fence() yet.
#include "common/status.h"

namespace pmemolap {

Status CommitRacesTablePayload(PersistentRegion* table, PersistentRegion* log,
                               uint64_t commit_at) {
  PMEMOLAP_RETURN_NOT_OK(table->Store(0, nullptr, 64));
  PMEMOLAP_RETURN_NOT_OK(table->FlushRange(0, 64));
  PMEMOLAP_RETURN_NOT_OK(log->NtStore(commit_at, nullptr, 40));
  PMEMOLAP_RETURN_NOT_OK(log->Fence());
  PMEMOLAP_RETURN_NOT_OK(table->Fence());
  return Status::OK();
}

}  // namespace pmemolap
