// Fixture: persist-raw-write. Linted as src/engine/fixture.cc — raw
// byte writes into a PersistentRegion's exposed buffers from outside
// src/durability/ bypass the crash boundary, the cost model and the
// region's per-line state (line_state).
#include "common/status.h"

namespace pmemolap {

void PatchRegionInPlace(PersistentRegion& region, const std::byte* src,
                        uint64_t len) {
  std::memcpy(region.data() + 128, src, len);
}

void ZeroPersistedImage(PersistentRegion& region, uint64_t len) {
  std::memset(region.persisted() + 0, 0, len);
}

}  // namespace pmemolap
