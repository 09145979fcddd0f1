// Fixture: publishes with pending stores. Linted as
// src/durability/fixture.cc by the test — two publishes that skip part
// of the store -> flush -> fence -> publish ladder.
#include "common/status.h"

namespace pmemolap {

Status PublishWhileCacheDirty(PersistentRegion* log, DurableTable* table) {
  PMEMOLAP_RETURN_NOT_OK(log->Store(0, nullptr, 64));
  // No FlushRange: the record is still dirty in the modeled cache.
  table->AdvanceCommitted(1, 64, 96);
  return Status::OK();
}

Status PublishBeforeFence(PersistentRegion* log, DurableTable* table) {
  PMEMOLAP_RETURN_NOT_OK(log->Store(0, nullptr, 64));
  PMEMOLAP_RETURN_NOT_OK(log->FlushRange(0, 64));
  // No Fence: the flushed lines may still sit in the WPQ.
  table->AdvanceCommitted(1, 64, 96);
  return Status::OK();
}

}  // namespace pmemolap
