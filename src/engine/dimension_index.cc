#include "engine/dimension_index.h"

namespace pmemolap {

DimensionIndex::DimensionIndex(IndexKind kind) : kind_(kind) {
  if (kind_ == IndexKind::kDash) {
    dash_ = std::make_unique<DashTable>();
  }
}

Status DimensionIndex::Insert(uint64_t key, uint64_t payload) {
  if (kind_ == IndexKind::kDash) return dash_->Insert(key, payload);
  auto [it, inserted] = chained_.emplace(key, payload);
  (void)it;
  if (!inserted) return Status::AlreadyExists("key already present");
  return Status::OK();
}

void DimensionIndex::ProbeBatch(const uint64_t* keys, size_t n,
                                uint64_t* out) const {
  if (kind_ == IndexKind::kDash) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = dash_->Get(keys[i]).value_or(0);
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    auto it = chained_.find(keys[i]);
    out[i] = it == chained_.end() ? 0 : it->second;
  }
}

uint64_t DimensionIndex::size() const {
  return kind_ == IndexKind::kDash ? dash_->size() : chained_.size();
}

uint64_t DimensionIndex::StorageBytes() const {
  if (kind_ == IndexKind::kDash) return dash_->StorageBytes();
  // Chained table: bucket array (8 B heads) + one 32 B node per entry.
  return chained_.bucket_count() * 8 + chained_.size() * 32;
}

ProbeCost DimensionIndex::probe_cost() const {
  if (kind_ == IndexKind::kDash) {
    // One 256 B bucket load resolves almost every probe (fingerprints);
    // displacement/stash adds a small tail.
    return ProbeCost{1.2, 256};
  }
  // Bucket head + node chain + payload cache lines: dependent 64 B reads.
  return ProbeCost{3.5, 64};
}

}  // namespace pmemolap
