#include "durability/persistent_region.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>

#include "durability/crash_injector.h"
#include "durability/persist_order_checker.h"

namespace pmemolap {

Result<std::unique_ptr<PersistentRegion>> PersistentRegion::Create(
    PmemSpace* space, uint64_t size, int socket, CrashInjector* crash,
    const PersistCostModel* cost) {
  PMEMOLAP_ASSIGN_OR_RETURN(
      Allocation allocation,
      space->AllocateAligned(size, kOptaneLineBytes,
                             MemPlacement{Media::kPmem, socket}));
  std::unique_ptr<PersistentRegion> region(new PersistentRegion(
      space, std::move(allocation), crash, cost));
  if (crash != nullptr) crash->Register(region.get());
  return region;
}

// A fresh region models newly created storage: the space's allocation
// reads as zero, and with no line in flight so does the persisted image.
// Its line states are zero too, so every line starts kClean.
PersistentRegion::PersistentRegion(PmemSpace* space, Allocation allocation,
                                   CrashInjector* crash,
                                   const PersistCostModel* cost)
    : space_(space),
      allocation_(std::move(allocation)),
      state_((allocation_.size() + kCacheLineBytes - 1) / kCacheLineBytes),
      crash_(crash),
      cost_(cost) {}

PersistentRegion::~PersistentRegion() {
  if (space_ != nullptr) space_->Release(allocation_);
}

Status PersistentRegion::CheckAlive() const {
  if (crash_ != nullptr && crash_->crashed()) {
    return Status::Unavailable(
        "modeled process crashed at persistence boundary " +
        std::to_string(crash_->report().boundary));
  }
  return Status::OK();
}

Status PersistentRegion::BoundsCheck(uint64_t offset, uint64_t size) const {
  if (offset + size > allocation_.size() || offset + size < offset) {
    return Status::InvalidArgument(
        "persistent access [" + std::to_string(offset) + ", " +
        std::to_string(offset + size) + ") outside region of " +
        std::to_string(allocation_.size()) + " bytes");
  }
  return Status::OK();
}

Status PersistentRegion::CrashNow() {
  crash_->TriggerCrash();
  return Status::Unavailable(
      "modeled process crashed at persistence boundary " +
      std::to_string(crash_->report().boundary));
}

void PersistentRegion::WriteVolatile(uint64_t offset, const void* src,
                                     uint64_t size, PersistLineState next) {
  if (size == 0) return;
  for (uint64_t line = offset / kCacheLineBytes,
                end = (offset + size - 1) / kCacheLineBytes;
       line <= end; ++line) {
    // Every covered line takes the new state: a cached store over an
    // accepted line drops it back to dirty, since the earlier write-back
    // no longer covers the line's new bytes.
    PersistLineState prev = state_[line];
    state_.Set(line, next);
    if (prev != PersistLineState::kClean) continue;
    // A clean line's persisted bytes are its volatile bytes; those at and
    // past written_end_ are zero, as a new entry starts, so a write into
    // fresh storage never reads (and faults in) the pages it extends.
    InFlightLine& entry = in_flight_.emplace_back();
    entry.line = line;
    uint64_t begin = line * kCacheLineBytes;
    if (begin < written_end_) {
      std::memcpy(entry.saved.data(), allocation_.data() + begin,
                  std::min(kCacheLineBytes, written_end_ - begin));
    }
  }
  std::memcpy(allocation_.data() + offset, src, size);
  written_end_ = std::max(written_end_, offset + size);
}

uint64_t PersistentRegion::AcceptDirty(uint64_t offset, uint64_t size) {
  uint64_t moved = 0;
  if (size == 0) return moved;
  for (uint64_t line = offset / kCacheLineBytes,
                end = (offset + size - 1) / kCacheLineBytes;
       line <= end; ++line) {
    if (state_[line] == PersistLineState::kDirtyCache) {
      state_.Set(line, PersistLineState::kAcceptedWpq);
      ++moved;
    }
  }
  return moved;
}

Status PersistentRegion::CrashDuringWrite(uint64_t offset, const void* src,
                                          uint64_t size, bool accepted) {
  // A cached store cut mid-flight loses everything (the bytes only made
  // it into the modeled caches); an ntstore keeps a seeded prefix that
  // had already been posted to a write-pending queue, torn mid-line when
  // the plan allows sub-line tears.
  if (accepted && size > 0) {
    Rng prefix_rng = crash_->BoundaryRng(/*stream=*/1);
    uint64_t keep = prefix_rng.NextBelow(size + 1);
    if (!crash_->plan().allow_subline_tear) {
      keep = keep / kCacheLineBytes * kCacheLineBytes;
    }
    WriteVolatile(offset, src, keep, PersistLineState::kAcceptedWpq);
  }
  return CrashNow();
}

Status PersistentRegion::Store(uint64_t offset, const void* src,
                               uint64_t size) {
  PMEMOLAP_RETURN_NOT_OK(CheckAlive());
  PMEMOLAP_RETURN_NOT_OK(BoundsCheck(offset, size));
  if (crash_ != nullptr && crash_->HitsNextBoundary()) {
    return CrashDuringWrite(offset, src, size, /*accepted=*/false);
  }
  WriteVolatile(offset, src, size, PersistLineState::kDirtyCache);
  if (order_ != nullptr) order_->OnStore(this, offset, size);
  uint64_t lines = PersistCostModel::LinesCovering(offset, size);
  store_lines_ += lines;
  modeled_seconds_ += cost_->StoreSeconds(lines);
  return Status::OK();
}

Status PersistentRegion::NtStore(uint64_t offset, const void* src,
                                 uint64_t size) {
  PMEMOLAP_RETURN_NOT_OK(CheckAlive());
  PMEMOLAP_RETURN_NOT_OK(BoundsCheck(offset, size));
  if (crash_ != nullptr && crash_->HitsNextBoundary()) {
    return CrashDuringWrite(offset, src, size, /*accepted=*/true);
  }
  WriteVolatile(offset, src, size, PersistLineState::kAcceptedWpq);
  if (order_ != nullptr) order_->OnNtStore(this, offset, size);
  uint64_t lines = PersistCostModel::LinesCovering(offset, size);
  store_lines_ += lines;
  modeled_seconds_ += cost_->NtStoreSeconds(lines);
  return Status::OK();
}

Status PersistentRegion::FlushRange(uint64_t offset, uint64_t size) {
  PMEMOLAP_RETURN_NOT_OK(CheckAlive());
  PMEMOLAP_RETURN_NOT_OK(BoundsCheck(offset, size));
  if (crash_ != nullptr && crash_->HitsNextBoundary()) {
    // The flush partially issued: a seeded prefix of the range's dirty
    // lines had their write-backs posted before power cut.
    Rng prefix_rng = crash_->BoundaryRng(/*stream=*/1);
    AcceptDirty(offset, prefix_rng.NextBelow(size + 1) / kCacheLineBytes *
                            kCacheLineBytes);
    return CrashNow();
  }
  uint64_t moved = AcceptDirty(offset, size);
  if (order_ != nullptr) order_->OnFlush(this, offset, size);
  flush_lines_ += moved;
  modeled_seconds_ += cost_->FlushSeconds(moved);
  return Status::OK();
}

Status PersistentRegion::TruncateTo(uint64_t offset) {
  PMEMOLAP_RETURN_NOT_OK(CheckAlive());
  PMEMOLAP_RETURN_NOT_OK(BoundsCheck(offset, 0));
  if (crash_ != nullptr && crash_->HitsNextBoundary()) {
    return CrashNow();  // tail pointer never flipped; suffix still there
  }
  if (written_end_ > offset) {
    std::memset(allocation_.data() + offset, 0, written_end_ - offset);
    written_end_ = offset;
  }
  for (InFlightLine& entry : in_flight_) {
    uint64_t begin = entry.line * kCacheLineBytes;
    if (begin + kCacheLineBytes <= offset) continue;
    std::fill(entry.saved.begin() + (offset > begin ? offset - begin : 0),
              entry.saved.end(), std::byte{0});
  }
  // Priced as the tail-pointer update, not the (modeled-only) zeroing.
  modeled_seconds_ += cost_->StoreSeconds(1) + cost_->FlushSeconds(1) +
                      cost_->FenceSeconds(1);
  ++fences_;
  return Status::OK();
}

Status PersistentRegion::Fence() {
  PMEMOLAP_RETURN_NOT_OK(CheckAlive());
  if (crash_ != nullptr && crash_->HitsNextBoundary()) {
    // Drain never completed; accepted lines face the survival lottery.
    return CrashNow();
  }
  // Accepted lines drain, and a drained line's volatile bytes are now its
  // persisted bytes, so its entry goes; dirty lines ride out the fence.
  auto drained = std::remove_if(
      in_flight_.begin(), in_flight_.end(), [this](const InFlightLine& entry) {
        if (state_[entry.line] != PersistLineState::kAcceptedWpq) return false;
        state_.Set(entry.line, PersistLineState::kClean);
        return true;
      });
  uint64_t pending = static_cast<uint64_t>(in_flight_.end() - drained);
  in_flight_.erase(drained, in_flight_.end());
  ++fences_;
  modeled_seconds_ += cost_->FenceSeconds(pending);
  if (order_ != nullptr) order_->OnFence(this, pending);
  return Status::OK();
}

void PersistentRegion::ApplyCrash(Rng* survival, double survival_p,
                                  CrashReport* report) {
  constexpr uint64_t kPerXPLine = kOptaneLineBytes / kCacheLineBytes;
  uint64_t dirty_lost = 0;
  uint64_t accepted_lost = 0;
  uint64_t accepted_survived = 0;
  // Track which XPLines ended up with a mix of survived and lost in-flight
  // lines — those are the torn XPLines readers must never see raw.
  std::vector<uint64_t> xp_survived;
  std::vector<uint64_t> xp_lost;
  // Ascending line order keeps the survival draws in a fixed sequence.
  std::sort(in_flight_.begin(), in_flight_.end(),
            [](const InFlightLine& a, const InFlightLine& b) {
              return a.line < b.line;
            });
  for (const InFlightLine& entry : in_flight_) {
    bool accepted = state_[entry.line] == PersistLineState::kAcceptedWpq;
    state_.Set(entry.line, PersistLineState::kClean);
    if (accepted && survival->NextBool(survival_p)) {
      // The drain landed: the volatile bytes are the persisted ones.
      ++accepted_survived;
      xp_survived.push_back(entry.line / kPerXPLine);
      continue;
    }
    // Restart: the lost line reads its persisted bytes again.
    uint64_t begin = entry.line * kCacheLineBytes;
    std::memcpy(allocation_.data() + begin, entry.saved.data(),
                std::min(kCacheLineBytes, allocation_.size() - begin));
    if (accepted) {
      ++accepted_lost;
    } else {
      ++dirty_lost;
    }
    xp_lost.push_back(entry.line / kPerXPLine);
  }
  in_flight_.clear();
  if (order_ != nullptr) order_->OnCrash(this);
  if (report != nullptr) {
    report->dirty_lines_lost += dirty_lost;
    report->accepted_lines_lost += accepted_lost;
    report->accepted_lines_survived += accepted_survived;
    auto unique_sorted = [](std::vector<uint64_t>* v) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    };
    unique_sorted(&xp_survived);
    unique_sorted(&xp_lost);
    std::vector<uint64_t> torn;
    std::set_intersection(xp_survived.begin(), xp_survived.end(),
                          xp_lost.begin(), xp_lost.end(),
                          std::back_inserter(torn));
    report->torn_xplines += torn.size();
  }
}

std::vector<std::byte> PersistentRegion::PersistedImage() const {
  std::vector<std::byte> image(data(), data() + size());
  for (const InFlightLine& entry : in_flight_) {
    uint64_t begin = entry.line * kCacheLineBytes;
    std::memcpy(image.data() + begin, entry.saved.data(),
                std::min(kCacheLineBytes, size() - begin));
  }
  return image;
}

void PersistentRegion::AttachOrderChecker(PersistOrderChecker* checker,
                                          std::string name) {
  order_ = checker;
  order_->AttachRegion(this, std::move(name));
}

}  // namespace pmemolap
