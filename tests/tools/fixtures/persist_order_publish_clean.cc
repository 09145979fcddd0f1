// Fixture: complete publish ladders. Linted as
// src/durability/fixture.cc — cached and ntstore ladders plus the resets
// the flow pass must honor (function boundaries).
#include "common/status.h"

namespace pmemolap {

Status PublishViaCachedStores(PersistentRegion* log, DurableTable* table) {
  PMEMOLAP_RETURN_NOT_OK(log->Store(0, nullptr, 64));
  PMEMOLAP_RETURN_NOT_OK(log->FlushRange(0, 64));
  PMEMOLAP_RETURN_NOT_OK(log->Fence());
  table->AdvanceCommitted(1, 64, 96);
  return Status::OK();
}

Status PublishViaNtStore(PersistentRegion* log, DurableTable* table) {
  PMEMOLAP_RETURN_NOT_OK(log->NtStore(0, nullptr, 64));
  PMEMOLAP_RETURN_NOT_OK(log->Fence());
  table->AdvanceCommitted(1, 64, 96);
  return Status::OK();
}

Status LeavesStoresPendingWithoutPublishing(PersistentRegion* log) {
  // Pending stores with no AdvanceCommitted in sight are fine; the
  // tracking must also reset here so the next function starts clean.
  return log->Store(0, nullptr, 64);
}

void PublishAfterTheResetAbove(DurableTable* table) {
  table->AdvanceCommitted(2, 128, 160);
}

}  // namespace pmemolap
