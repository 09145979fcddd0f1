// Differential test of PersistentRegion's persisted image. The region
// keeps one volatile image and saves the persisted bytes of in-flight
// lines only. DenseRegion below is the direct model: a full volatile
// image, a full persisted image and one state per 64 B line. Both run the
// same seeded random sequences of Store, NtStore, FlushRange, Fence,
// TruncateTo and crashes, and after every step the volatile bytes, the
// persisted image, each line's state, the modeled seconds and the crash
// counters must agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "durability/crash_injector.h"
#include "durability/persistent_region.h"
#include "memsys/persist.h"

namespace pmemolap {
namespace {

constexpr uint64_t kPerXPLine = kOptaneLineBytes / kCacheLineBytes;

class DenseRegion {
 public:
  DenseRegion(uint64_t size, const PersistCostModel* cost)
      : volatile_(size),
        persisted_(size),
        state_((size + kCacheLineBytes - 1) / kCacheLineBytes,
               PersistLineState::kClean),
        cost_(cost) {}

  void Store(uint64_t offset, const std::byte* src, uint64_t size) {
    std::copy(src, src + size, volatile_.begin() + offset);
    Mark(offset, size, PersistLineState::kDirtyCache);
    seconds_ += cost_->StoreSeconds(
        PersistCostModel::LinesCovering(offset, size));
  }

  void NtStore(uint64_t offset, const std::byte* src, uint64_t size) {
    std::copy(src, src + size, volatile_.begin() + offset);
    Mark(offset, size, PersistLineState::kAcceptedWpq);
    seconds_ += cost_->NtStoreSeconds(
        PersistCostModel::LinesCovering(offset, size));
  }

  void FlushRange(uint64_t offset, uint64_t size) {
    seconds_ += cost_->FlushSeconds(AcceptDirty(offset, size));
  }

  void Fence() {
    uint64_t drained = 0;
    for (uint64_t line = 0; line < state_.size(); ++line) {
      if (state_[line] != PersistLineState::kAcceptedWpq) continue;
      CopyLine(volatile_, &persisted_, line);
      state_[line] = PersistLineState::kClean;
      ++drained;
    }
    seconds_ += cost_->FenceSeconds(drained);
  }

  void TruncateTo(uint64_t offset) {
    std::fill(volatile_.begin() + offset, volatile_.end(), std::byte{0});
    std::fill(persisted_.begin() + offset, persisted_.end(), std::byte{0});
    seconds_ += cost_->StoreSeconds(1) + cost_->FlushSeconds(1) +
                cost_->FenceSeconds(1);
  }

  /// The staged effect of an ntstore cut after `keep` bytes.
  void TornNtStore(uint64_t offset, const std::byte* src, uint64_t keep) {
    std::copy(src, src + keep, volatile_.begin() + offset);
    Mark(offset, keep, PersistLineState::kAcceptedWpq);
  }

  /// The staged effect of a flush cut after `keep` bytes.
  void TornFlush(uint64_t offset, uint64_t keep) { AcceptDirty(offset, keep); }

  void Crash(Rng* survival, double survival_p, CrashReport* report) {
    std::vector<bool> xp_survived(state_.size() / kPerXPLine + 1, false);
    std::vector<bool> xp_lost(xp_survived.size(), false);
    for (uint64_t line = 0; line < state_.size(); ++line) {
      PersistLineState state = state_[line];
      if (state == PersistLineState::kClean) continue;
      if (state == PersistLineState::kAcceptedWpq &&
          survival->NextBool(survival_p)) {
        CopyLine(volatile_, &persisted_, line);
        ++report->accepted_lines_survived;
        xp_survived[line / kPerXPLine] = true;
      } else if (state == PersistLineState::kAcceptedWpq) {
        ++report->accepted_lines_lost;
        xp_lost[line / kPerXPLine] = true;
      } else {
        ++report->dirty_lines_lost;
        xp_lost[line / kPerXPLine] = true;
      }
      state_[line] = PersistLineState::kClean;
    }
    for (size_t xp = 0; xp < xp_lost.size(); ++xp) {
      if (xp_lost[xp] && xp_survived[xp]) ++report->torn_xplines;
    }
    volatile_ = persisted_;
  }

  const std::vector<std::byte>& volatile_image() const { return volatile_; }
  const std::vector<std::byte>& persisted_image() const { return persisted_; }
  const std::vector<PersistLineState>& states() const { return state_; }
  double modeled_seconds() const { return seconds_; }

 private:
  static void CopyLine(const std::vector<std::byte>& from,
                       std::vector<std::byte>* to, uint64_t line) {
    uint64_t begin = line * kCacheLineBytes;
    uint64_t end = std::min<uint64_t>(begin + kCacheLineBytes, from.size());
    std::copy(from.begin() + begin, from.begin() + end, to->begin() + begin);
  }

  void Mark(uint64_t offset, uint64_t size, PersistLineState state) {
    if (size == 0) return;
    for (uint64_t line = offset / kCacheLineBytes;
         line <= (offset + size - 1) / kCacheLineBytes; ++line) {
      state_[line] = state;
    }
  }

  uint64_t AcceptDirty(uint64_t offset, uint64_t size) {
    uint64_t moved = 0;
    if (size == 0) return moved;
    for (uint64_t line = offset / kCacheLineBytes;
         line <= (offset + size - 1) / kCacheLineBytes; ++line) {
      if (state_[line] == PersistLineState::kDirtyCache) {
        state_[line] = PersistLineState::kAcceptedWpq;
        ++moved;
      }
    }
    return moved;
  }

  std::vector<std::byte> volatile_;
  std::vector<std::byte> persisted_;
  std::vector<PersistLineState> state_;
  const PersistCostModel* cost_;
  double seconds_ = 0.0;
};

::testing::AssertionResult SameBytes(const std::byte* got,
                                     const std::vector<std::byte>& want,
                                     const char* image) {
  for (size_t i = 0; i < want.size(); ++i) {
    if (got[i] != want[i]) {
      return ::testing::AssertionFailure()
             << image << " byte " << i << ": region "
             << static_cast<int>(got[i]) << ", dense "
             << static_cast<int>(want[i]);
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameState(const PersistentRegion& region,
                                     const DenseRegion& dense) {
  const std::vector<PersistLineState>& states = dense.states();
  for (uint64_t line = 0; line < states.size(); ++line) {
    if (region.line_state(line) != states[line]) {
      return ::testing::AssertionFailure()
             << "line " << line << ": region state "
             << static_cast<int>(region.line_state(line)) << ", dense "
             << static_cast<int>(states[line]);
    }
  }
  ::testing::AssertionResult volatile_same =
      SameBytes(region.data(), dense.volatile_image(), "volatile");
  if (!volatile_same) return volatile_same;
  return SameBytes(region.PersistedImage().data(), dense.persisted_image(),
                   "persisted");
}

void ExpectSameReport(const CrashReport& got, const CrashReport& want) {
  EXPECT_EQ(got.dirty_lines_lost, want.dirty_lines_lost);
  EXPECT_EQ(got.accepted_lines_lost, want.accepted_lines_lost);
  EXPECT_EQ(got.accepted_lines_survived, want.accepted_lines_survived);
  EXPECT_EQ(got.torn_xplines, want.torn_xplines);
}

/// Region sizes that are not a multiple of 64 B, so the last line is
/// partial (1 B is a region of one partial line).
constexpr uint64_t kRegionSizes[] = {1, 63, 65, 333, 1000, 4097};
constexpr int kSteps = 1000;
constexpr uint64_t kMaxWriteBytes = 5 * kCacheLineBytes + 7;
constexpr double kSurvivalP[] = {0.0, 0.3, 0.5, 1.0};

/// Runs one seeded sequence. With `armed`, the region registers with a
/// CrashInjector re-armed a few boundaries ahead after every crash, so
/// primitives die mid-flight (torn ntstore and flush prefixes); without
/// it every crash is a direct ApplyCrash.
void RunSequence(uint64_t region_bytes, uint64_t seed, bool armed,
                 bool subline_tear) {
  SCOPED_TRACE(::testing::Message()
               << "region " << region_bytes << " B, seed " << seed
               << (armed ? ", armed" : "")
               << (subline_tear ? ", sub-line tears" : ""));
  SystemTopology topo = SystemTopology::PaperServer();
  PmemSpace space(topo);
  PersistCostModel cost;
  Rng ops(seed);
  CrashPlan plan;
  plan.boundary_index = armed ? static_cast<int64_t>(ops.NextBelow(8)) : -1;
  plan.accepted_survival_p = kSurvivalP[ops.NextBelow(4)];
  plan.allow_subline_tear = subline_tear;
  CrashInjector crash(seed * 31 + 7, plan);
  auto created = PersistentRegion::Create(&space, region_bytes, /*socket=*/0,
                                          armed ? &crash : nullptr, &cost);
  ASSERT_TRUE(created.ok());
  PersistentRegion& region = **created;
  DenseRegion dense(region_bytes, &cost);

  std::vector<std::byte> payload(kMaxWriteBytes);
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    uint64_t offset = ops.NextBelow(region_bytes + 1);
    uint64_t size = ops.NextBelow(
        std::min(region_bytes - offset, kMaxWriteBytes) + 1);
    for (uint64_t i = 0; i < size; ++i) {
      // About a quarter of the bytes are zero, so written zeros meet
      // restored zeros.
      uint64_t draw = ops.Next();
      payload[i] = draw % 4 == 0 ? std::byte{0}
                                 : static_cast<std::byte>(draw >> 8);
    }
    uint64_t op = ops.NextBelow(100);
    Status status;
    if (op < 25) {
      status = region.Store(offset, payload.data(), size);
    } else if (op < 50) {
      status = region.NtStore(offset, payload.data(), size);
    } else if (op < 70) {
      status = region.FlushRange(offset, size);
    } else if (op < 85) {
      status = region.Fence();
    } else if (op < 92) {
      status = region.TruncateTo(offset);
    } else {
      Rng survival(ops.Next());
      Rng survival_copy = survival;
      double p = kSurvivalP[ops.NextBelow(4)];
      CrashReport got;
      CrashReport want;
      region.ApplyCrash(&survival, p, &got);
      dense.Crash(&survival_copy, p, &want);
      ExpectSameReport(got, want);
    }

    if (armed && crash.crashed()) {
      // The armed boundary fired inside this primitive: stage the partial
      // effect the injector drew, then crash with its survival stream.
      ASSERT_EQ(status.code(), StatusCode::kUnavailable);
      Rng prefix = crash.BoundaryRng(/*stream=*/1);
      if (op >= 25 && op < 50 && size > 0) {
        uint64_t keep = prefix.NextBelow(size + 1);
        if (!subline_tear) keep = keep / kCacheLineBytes * kCacheLineBytes;
        dense.TornNtStore(offset, payload.data(), keep);
      } else if (op >= 50 && op < 70) {
        dense.TornFlush(offset, prefix.NextBelow(size + 1) / kCacheLineBytes *
                                    kCacheLineBytes);
      }
      Rng survival = crash.BoundaryRng(/*stream=*/2);
      CrashReport want;
      dense.Crash(&survival, crash.plan().accepted_survival_p, &want);
      ExpectSameReport(crash.report(), want);
      crash.AcknowledgeCrash();
      crash.Arm(static_cast<int64_t>(crash.boundaries_seen() +
                                     ops.NextBelow(8)));
    } else {
      ASSERT_TRUE(status.ok()) << status.ToString();
      if (op < 25) {
        dense.Store(offset, payload.data(), size);
      } else if (op < 50) {
        dense.NtStore(offset, payload.data(), size);
      } else if (op < 70) {
        dense.FlushRange(offset, size);
      } else if (op < 85) {
        dense.Fence();
      } else if (op < 92) {
        dense.TruncateTo(offset);
      }
    }
    ASSERT_TRUE(SameState(region, dense));
    ASSERT_EQ(region.modeled_seconds(), dense.modeled_seconds());
  }
}

TEST(PersistentRegionDifferentialTest, DirectCrashesMatchDenseModel) {
  for (uint64_t bytes : kRegionSizes) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      RunSequence(bytes, seed, /*armed=*/false, /*subline_tear=*/true);
    }
  }
}

TEST(PersistentRegionDifferentialTest, InjectedCrashesMatchDenseModel) {
  for (uint64_t bytes : kRegionSizes) {
    for (uint64_t seed : {11u, 12u, 13u}) {
      for (bool subline_tear : {true, false}) {
        RunSequence(bytes, seed, /*armed=*/true, subline_tear);
      }
    }
  }
}

}  // namespace
}  // namespace pmemolap
