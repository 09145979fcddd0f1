// PersistOrderChecker unit tests — the runtime half of the durability
// analyzer pair. Every static persist-ordering rule
// (tools/lint/persist_check.h) has a runtime analog here: the same
// protocol bug, executed instead of parsed, must be recorded by the
// oracle. The drift tests pin the third rule class the static pass
// cannot have: the mirror disagreeing with the region's own line states.
#include "durability/persist_order_checker.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "durability/crash_injector.h"
#include "durability/durable_table.h"
#include "durability/persistent_region.h"
#include "durability/recovery.h"
#include "broken_write_path.h"

namespace pmemolap {
namespace {

constexpr uint64_t kRegionBytes = 16 * kKiB;

struct Rig {
  SystemTopology topo = SystemTopology::PaperServer();
  PmemSpace space{topo};
  PersistCostModel cost{PersistSpec{}};
  PersistOrderChecker checker;
  std::unique_ptr<PersistentRegion> region;

  explicit Rig(CrashInjector* crash = nullptr, bool attach = true) {
    auto created =
        PersistentRegion::Create(&space, kRegionBytes, /*socket=*/0, crash,
                                 &cost);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    region = std::move(*created);
    if (attach) region->AttachOrderChecker(&checker, "r");
  }
};

std::vector<std::byte> Payload(uint64_t size, int salt = 1) {
  std::vector<std::byte> bytes(size);
  for (uint64_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::byte>((salt * 37 + i) & 0xFF);
  }
  return bytes;
}

// --- clean ladders ----------------------------------------------------------

TEST(PersistOrderCheckerTest, CompleteLadderStaysClean) {
  Rig rig;
  std::vector<std::byte> data = Payload(300);
  ASSERT_TRUE(rig.region->Store(0, data.data(), data.size()).ok());
  ASSERT_TRUE(rig.region->FlushRange(0, data.size()).ok());
  ASSERT_TRUE(rig.region->Fence().ok());
  rig.checker.OnCommitRecord(1);
  rig.checker.OnPublish(rig.region.get(), 0, data.size(), "test");
  EXPECT_TRUE(rig.checker.clean());
  EXPECT_EQ(rig.checker.fences_checked(), 1u);
  EXPECT_EQ(rig.checker.commit_records_checked(), 1u);
  EXPECT_EQ(rig.checker.publishes_checked(), 1u);
}

TEST(PersistOrderCheckerTest, NtStoreLadderStaysClean) {
  Rig rig;
  std::vector<std::byte> data = Payload(300);
  ASSERT_TRUE(rig.region->NtStore(0, data.data(), data.size()).ok());
  ASSERT_TRUE(rig.region->Fence().ok());
  rig.checker.OnPublish(rig.region.get(), 0, data.size(), "test");
  EXPECT_TRUE(rig.checker.clean());
}

// --- persist-order analogs --------------------------------------------------

TEST(PersistOrderCheckerTest, PublishWhileDirtyIsAViolation) {
  // Runtime analog of the static branchy/loop fixtures: a store whose
  // flush never ran when the publish fires.
  Rig rig;
  std::vector<std::byte> data = Payload(100);
  ASSERT_TRUE(rig.region->Store(0, data.data(), data.size()).ok());
  rig.checker.OnPublish(rig.region.get(), 0, data.size(), "test");
  ASSERT_FALSE(rig.checker.clean());
  EXPECT_EQ(rig.checker.violations()[0].rule, "persist-order");
}

TEST(PersistOrderCheckerTest, PublishWhileUnfencedIsAViolation) {
  // Flushed but the WPQ never drained — the early-return-escapes-the-
  // fence class, observed at the publish that trusted it.
  Rig rig;
  std::vector<std::byte> data = Payload(100);
  ASSERT_TRUE(rig.region->Store(0, data.data(), data.size()).ok());
  ASSERT_TRUE(rig.region->FlushRange(0, data.size()).ok());
  rig.checker.OnPublish(rig.region.get(), 0, data.size(), "test");
  ASSERT_FALSE(rig.checker.clean());
  EXPECT_EQ(rig.checker.violations()[0].rule, "persist-order");
}

TEST(PersistOrderCheckerTest, PublishOutsideTheDirtyRangeIsClean) {
  // The range check is per-line: pending lines outside [begin, end)
  // don't taint the publish.
  Rig rig;
  std::vector<std::byte> data = Payload(64);
  ASSERT_TRUE(rig.region->Store(0, data.data(), data.size()).ok());
  ASSERT_TRUE(rig.region->FlushRange(0, data.size()).ok());
  ASSERT_TRUE(rig.region->Fence().ok());
  ASSERT_TRUE(rig.region->Store(4096, data.data(), data.size()).ok());
  rig.checker.OnPublish(rig.region.get(), 0, 64, "test");
  EXPECT_TRUE(rig.checker.clean());
}

TEST(PersistOrderCheckerTest, CommitRecordBeforeFenceIsAViolation) {
  // Runtime analog of the static commit-marker rule: the marker written
  // while the payload's durability is still in flight.
  Rig rig;
  std::vector<std::byte> data = Payload(200);
  ASSERT_TRUE(rig.region->Store(0, data.data(), data.size()).ok());
  ASSERT_TRUE(rig.region->FlushRange(0, data.size()).ok());
  // Missing Fence().
  rig.checker.OnCommitRecord(1);
  ASSERT_FALSE(rig.checker.clean());
  EXPECT_EQ(rig.checker.violations()[0].rule, "persist-order");
  EXPECT_EQ(rig.checker.commit_records_checked(), 1u);
}

TEST(PersistOrderCheckerTest, CommitRecordChecksEveryAttachedRegion) {
  // The payload lives in the table and the marker in the log: a commit
  // record written while the table still holds an un-fenced payload line
  // is a violation even though the log itself is fenced. It names the
  // table's earliest-touched pending line, not its lowest.
  SystemTopology topo = SystemTopology::PaperServer();
  PmemSpace space{topo};
  PersistCostModel cost{PersistSpec{}};
  PersistOrderChecker checker;
  auto table = PersistentRegion::Create(&space, kRegionBytes, 0, nullptr,
                                        &cost);
  auto log = PersistentRegion::Create(&space, kRegionBytes, 0, nullptr,
                                      &cost);
  ASSERT_TRUE(table.ok() && log.ok());
  (*table)->AttachOrderChecker(&checker, "table");
  (*log)->AttachOrderChecker(&checker, "log");
  std::vector<std::byte> data = Payload(64);
  ASSERT_TRUE((*log)->NtStore(0, data.data(), data.size()).ok());
  ASSERT_TRUE((*log)->Fence().ok());
  ASSERT_TRUE((*table)->NtStore(4096, data.data(), data.size()).ok());
  ASSERT_TRUE((*table)->NtStore(0, data.data(), data.size()).ok());
  // Missing: (*table)->Fence().
  checker.OnCommitRecord(1);
  ASSERT_EQ(checker.total_violations(), 1u);
  EXPECT_EQ(checker.violations()[0].rule, "persist-order");
  EXPECT_EQ(checker.violations()[0].region, "table");
  EXPECT_EQ(checker.violations()[0].line, 4096 / kCacheLineBytes);

  ASSERT_TRUE((*table)->Fence().ok());
  checker.OnCommitRecord(2);
  EXPECT_EQ(checker.total_violations(), 1u) << "fenced: no new violation";
  EXPECT_EQ(checker.commit_records_checked(), 2u);
}

// --- persist-mixed-store analogs --------------------------------------------

TEST(PersistOrderCheckerTest, MixedStoreKindsWithoutFenceAreViolations) {
  std::vector<std::byte> data = Payload(64);
  {
    // NtStore landing on a line with an unflushed cached store.
    Rig rig;
    ASSERT_TRUE(rig.region->Store(0, data.data(), data.size()).ok());
    ASSERT_TRUE(rig.region->NtStore(0, data.data(), data.size()).ok());
    ASSERT_FALSE(rig.checker.clean());
    EXPECT_EQ(rig.checker.violations()[0].rule, "persist-mixed-store");
  }
  {
    // Cached store landing on an unfenced ntstore line.
    Rig rig;
    ASSERT_TRUE(rig.region->NtStore(0, data.data(), data.size()).ok());
    ASSERT_TRUE(rig.region->Store(0, data.data(), data.size()).ok());
    ASSERT_FALSE(rig.checker.clean());
    EXPECT_EQ(rig.checker.violations()[0].rule, "persist-mixed-store");
  }
}

TEST(PersistOrderCheckerTest, FenceBetweenStoreKindsIsClean) {
  Rig rig;
  std::vector<std::byte> data = Payload(64);
  ASSERT_TRUE(rig.region->Store(0, data.data(), data.size()).ok());
  ASSERT_TRUE(rig.region->FlushRange(0, data.size()).ok());
  ASSERT_TRUE(rig.region->Fence().ok());
  ASSERT_TRUE(rig.region->NtStore(0, data.data(), data.size()).ok());
  ASSERT_TRUE(rig.region->Fence().ok());
  EXPECT_TRUE(rig.checker.clean());
}

// --- persist-double-flush analog --------------------------------------------

TEST(PersistOrderCheckerTest, RedundantFlushIsCountedNotFlagged) {
  // Re-flushing an already-accepted line is wasted clwb cost, not a
  // safety bug: the perf counter moves, the oracle stays clean.
  Rig rig;
  std::vector<std::byte> data = Payload(64);
  ASSERT_TRUE(rig.region->Store(0, data.data(), data.size()).ok());
  ASSERT_TRUE(rig.region->FlushRange(0, data.size()).ok());
  EXPECT_EQ(rig.checker.redundant_flush_lines(), 0u);
  ASSERT_TRUE(rig.region->FlushRange(0, data.size()).ok());
  EXPECT_EQ(rig.checker.redundant_flush_lines(), 1u);
  ASSERT_TRUE(rig.region->Fence().ok());
  EXPECT_TRUE(rig.checker.clean());
}

// --- oracle drift -----------------------------------------------------------

TEST(PersistOrderCheckerTest, PrimitiveBypassIsDriftAtTheNextFence) {
  // A store issued before the checker attached is exactly what a write
  // path bypassing the hooks looks like: the region knows about lines
  // the mirror never saw, and the drain counts disagree at the fence.
  Rig rig(/*crash=*/nullptr, /*attach=*/false);
  std::vector<std::byte> data = Payload(100);
  ASSERT_TRUE(rig.region->Store(0, data.data(), data.size()).ok());
  rig.region->AttachOrderChecker(&rig.checker, "late");
  ASSERT_TRUE(rig.region->FlushRange(0, data.size()).ok());
  ASSERT_TRUE(rig.region->Fence().ok());
  ASSERT_FALSE(rig.checker.clean());
  EXPECT_EQ(rig.checker.violations()[0].rule, "oracle-drift");
}

// --- crash reset ------------------------------------------------------------

TEST(PersistOrderCheckerTest, CrashResetsTheMirrorWithTheTracker) {
  // Boundary 2 kills the second Store with a flushed-unfenced line in
  // flight. ApplyCrash resets every line of the region; OnCrash must
  // reset the mirror in the same motion or every later fence reports
  // drift.
  SystemTopology topo = SystemTopology::PaperServer();
  PmemSpace space{topo};
  PersistCostModel cost{PersistSpec{}};
  CrashInjector crash(/*seed=*/42, CrashPlan{/*boundary_index=*/2});
  PersistOrderChecker checker;
  auto created =
      PersistentRegion::Create(&space, kRegionBytes, 0, &crash, &cost);
  ASSERT_TRUE(created.ok());
  (*created)->AttachOrderChecker(&checker, "r");
  std::vector<std::byte> data = Payload(64);
  ASSERT_TRUE((*created)->Store(0, data.data(), data.size()).ok());   // b0
  ASSERT_TRUE((*created)->FlushRange(0, data.size()).ok());           // b1
  EXPECT_FALSE((*created)->Store(64, data.data(), data.size()).ok()); // b2
  ASSERT_TRUE(crash.crashed());

  crash.AcknowledgeCrash();
  ASSERT_TRUE((*created)->Store(0, data.data(), data.size()).ok());
  ASSERT_TRUE((*created)->FlushRange(0, data.size()).ok());
  ASSERT_TRUE((*created)->Fence().ok());
  checker.OnPublish(created->get(), 0, data.size(), "post-crash");
  EXPECT_TRUE(checker.clean()) << checker.violations()[0].detail;
}

// --- the cross-layer fixture ------------------------------------------------

TEST(PersistOrderCheckerTest, BrokenWritePathIsCaughtAtRuntime) {
  // The dynamic half of the broken_write_path.h pact: lint_test.cc
  // proves the static pass flags this function's publish line; here the
  // oracle records the same bug when the function actually runs.
  Rig rig;
  std::vector<std::byte> data = Payload(128);
  ASSERT_TRUE(
      BrokenPublish(rig.region.get(), &rig.checker, data.data(), data.size())
          .ok());
  ASSERT_FALSE(rig.checker.clean());
  EXPECT_EQ(rig.checker.violations()[0].rule, "persist-order");
  EXPECT_EQ(rig.checker.violations()[0].region, "r");
}

// --- end-to-end: the real protocol is oracle-clean --------------------------

TEST(PersistOrderCheckerTest, DurableTableProtocolIsOracleClean) {
  // The production Append/Recover ladder under the always-on checker:
  // both store flavors, multiple epochs, recovery republish — zero
  // violations and the boundary counters prove the oracle actually ran.
  for (bool ntstore : {true, false}) {
    SCOPED_TRACE(ntstore ? "ntstore" : "clwb");
    SystemTopology topo = SystemTopology::PaperServer();
    PmemSpace space{topo};
    DurableTable::Options options;
    options.capacity_bytes = 64 * kKiB;
    options.log_bytes = 128 * kKiB;
    options.ntstore = ntstore;
    auto table = DurableTable::Create(&space, /*crash=*/nullptr, options);
    ASSERT_TRUE(table.ok());
    for (int e = 1; e <= 4; ++e) {
      std::vector<std::byte> payload = Payload(300, e);
      ASSERT_TRUE((*table)->Append(payload.data(), payload.size()).ok());
    }
    ASSERT_TRUE((*table)->Recover().ok());
    const PersistOrderChecker& oracle = (*table)->order_checker();
    EXPECT_TRUE(oracle.clean())
        << oracle.violations()[0].rule << ": "
        << oracle.violations()[0].detail;
    EXPECT_GE(oracle.fences_checked(), 8u);       // >= 2 per epoch
    EXPECT_EQ(oracle.commit_records_checked(), 4u);
    EXPECT_GE(oracle.publishes_checked(), 4u);
  }
}

}  // namespace
}  // namespace pmemolap
