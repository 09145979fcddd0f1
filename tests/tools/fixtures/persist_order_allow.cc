// Fixture: persist-order audited escape. Linted as
// src/durability/fixture.cc — the publish knowingly runs with a dirty
// store; the annotation must silence the diagnostic and be counted.
#include "common/status.h"

namespace pmemolap {

Status PublishKnownDirty(PersistentRegion* log, DurableTable* table) {
  PMEMOLAP_RETURN_NOT_OK(log->Store(0, nullptr, 64));
  // lint:allow(persist-order): fixture exercises
  // the audited escape for a deliberately unordered publish.
  table->AdvanceCommitted(1, 64, 96);
  return Status::OK();
}

}  // namespace pmemolap
