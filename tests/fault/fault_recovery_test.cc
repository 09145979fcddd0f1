// The recovery half of the fault layer: bounded retry, the CRC32 chunk
// scrubber, repair-from-source, and replica failover. Every scenario is
// deterministic from its spec's fixed seed.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "fault/guarded_table.h"
#include "fault/retry_policy.h"
#include "ssb/dbgen.h"

namespace pmemolap {
namespace {

class FaultRecoveryTest : public ::testing::Test {
 protected:
  /// A deterministic source buffer with a recognizable pattern.
  static std::vector<std::byte> MakeSource(size_t bytes) {
    std::vector<std::byte> source(bytes);
    for (size_t i = 0; i < bytes; ++i) {
      source[i] = static_cast<std::byte>((i * 31 + 7) & 0xFF);
    }
    return source;
  }

  SystemTopology topo_ = SystemTopology::PaperServer();
};

TEST_F(FaultRecoveryTest, TransientPoisonClearsUnderRetry) {
  FaultInjector injector(FaultSpec::Healthy());
  PmemSpace space(topo_);
  Result<Allocation> region = space.Allocate(4 * kKiB, {Media::kPmem, 0});
  ASSERT_TRUE(region.ok());
  std::memset(region->data(), 0x77, region->size());
  region->PoisonLine(2, /*transient_clears=*/2);

  FaultAwareReader reader(&injector);
  std::vector<std::byte> dst(region->size());
  ASSERT_TRUE(reader.Read(&region.value(), 0, region->size(), dst.data())
                  .ok());
  EXPECT_EQ(std::memcmp(dst.data(), region->data(), dst.size()), 0);
  EXPECT_EQ(region->poisoned_line_count(), 0u);
  FaultCounters counters = injector.counters();
  EXPECT_EQ(counters.poisoned_reads, 1u);
  EXPECT_EQ(counters.retries, 2u);
  EXPECT_EQ(counters.transient_clears, 1u);
  EXPECT_GT(counters.backoff_us, 0u);
}

TEST_F(FaultRecoveryTest, PermanentPoisonExhaustsRetry) {
  FaultInjector injector(FaultSpec::Healthy());
  PmemSpace space(topo_);
  Result<Allocation> region = space.Allocate(4 * kKiB, {Media::kPmem, 0});
  ASSERT_TRUE(region.ok());
  region->PoisonLine(0, /*transient_clears=*/0);

  FaultAwareReader reader(&injector, RetryPolicy{.max_attempts = 3});
  std::byte dst[64];
  Status status = reader.Read(&region.value(), 0, sizeof(dst), dst);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(injector.counters().retries, 2u);
  // The line survives: only the scrub layer repairs permanent poison.
  EXPECT_EQ(region->poisoned_line_count(), 1u);
}

TEST_F(FaultRecoveryTest, GuardedTableRepairsPermanentCorruption) {
  FaultSpec spec;
  spec.poison_lines_per_mib = 32.0;
  spec.transient_fraction = 0.0;  // everything permanent
  FaultInjector injector(spec);
  PmemSpace space(topo_);
  injector.Arm(&space);

  std::vector<std::byte> source = MakeSource(2 * kMiB);
  Result<std::unique_ptr<GuardedTable>> table = GuardedTable::Create(
      &space, &injector, source.data(), source.size(),
      GuardedTable::Options());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_GT(injector.counters().lines_poisoned, 0u);

  std::vector<std::byte> readback(source.size());
  ASSERT_TRUE(
      (*table)->Read(0, source.size(), readback.data()).ok());
  EXPECT_EQ(std::memcmp(readback.data(), source.data(), source.size()), 0)
      << "guarded read must be bit-identical to the source";
  FaultCounters counters = injector.counters();
  EXPECT_GT(counters.crc_failures, 0u);
  EXPECT_GT(counters.chunks_repaired, 0u);
  EXPECT_GT(counters.bytes_repaired, 0u);
  EXPECT_GT(injector.ModeledRecoverySeconds(), 0.0);
}

TEST_F(FaultRecoveryTest, ScrubAllVerifiesAndRepairsEveryChunk) {
  FaultSpec spec;
  spec.poison_lines_per_mib = 32.0;
  spec.transient_fraction = 0.0;
  FaultInjector injector(spec);
  PmemSpace space(topo_);
  injector.Arm(&space);

  std::vector<std::byte> source = MakeSource(kMiB);
  Result<std::unique_ptr<GuardedTable>> table = GuardedTable::Create(
      &space, &injector, source.data(), source.size(),
      GuardedTable::Options());
  ASSERT_TRUE(table.ok());

  Result<uint64_t> repaired = (*table)->ScrubAll();
  ASSERT_TRUE(repaired.ok());
  EXPECT_GT(repaired.value(), 0u);
  for (int s = 0; s < (*table)->num_stripes(); ++s) {
    EXPECT_TRUE((*table)->VerifyChunk(s, 0)) << s;
  }
  // After a full scrub the table is clean: reads see no poison.
  std::vector<std::byte> readback(source.size());
  uint64_t reads_before = injector.counters().poisoned_reads;
  ASSERT_TRUE((*table)->Read(0, source.size(), readback.data()).ok());
  EXPECT_EQ(injector.counters().poisoned_reads, reads_before);
  EXPECT_EQ(std::memcmp(readback.data(), source.data(), source.size()), 0);
}

TEST_F(FaultRecoveryTest, DropSourceMakesCorruptionUnrecoverable) {
  FaultSpec spec;
  spec.poison_lines_per_mib = 64.0;
  spec.transient_fraction = 0.0;
  FaultInjector injector(spec);
  PmemSpace space(topo_);
  injector.Arm(&space);

  std::vector<std::byte> source = MakeSource(kMiB);
  Result<std::unique_ptr<GuardedTable>> table = GuardedTable::Create(
      &space, &injector, source.data(), source.size(),
      GuardedTable::Options());
  ASSERT_TRUE(table.ok());
  ASSERT_GT(injector.counters().lines_poisoned, 0u);

  (*table)->DropSource();
  std::vector<std::byte> readback(source.size());
  Status status = (*table)->Read(0, source.size(), readback.data());
  // CRC mismatch with the repair source dropped: the bytes are present
  // but provably wrong — kCorruption, not kDataLoss (the media served
  // them fine).
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  // The scrub report pins the damage to individual 256 B XPLines.
  EXPECT_GT(injector.counters().corrupt_lines, 0u);
}

TEST_F(FaultRecoveryTest, GuardedDimensionServesFromHealthyReplica) {
  FaultInjector injector(FaultSpec::Healthy());
  PmemSpace space(topo_);
  injector.Arm(&space);

  std::vector<uint64_t> payloads(1024);
  for (size_t i = 0; i < payloads.size(); ++i) {
    payloads[i] = i * 1000 + 13;
  }
  Result<std::unique_ptr<GuardedDimension>> dim =
      GuardedDimension::Create(&space, &injector, payloads, Media::kPmem);
  ASSERT_TRUE(dim.ok());
  ASSERT_EQ((*dim)->num_copies(), 2);

  // Poison position 5's line in socket 0's local copy: reads from socket 0
  // fail over to socket 1's healthy replica, reads from socket 1 stay near.
  (*dim)->table().copy(0).PoisonLine(5 * sizeof(uint64_t) /
                                     kOptaneLineBytes);
  Result<uint64_t> value = (*dim)->Payload(/*socket=*/0, 5);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), payloads[5]);
  EXPECT_EQ(injector.counters().failovers, 1u);
  value = (*dim)->Payload(/*socket=*/1, 5);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), payloads[5]);
  EXPECT_EQ(injector.counters().failovers, 1u) << "near read stays near";
}

TEST_F(FaultRecoveryTest, GuardedDimensionRepairsWhenAllReplicasPoisoned) {
  FaultInjector injector(FaultSpec::Healthy());
  PmemSpace space(topo_);
  injector.Arm(&space);

  std::vector<uint64_t> payloads(512);
  for (size_t i = 0; i < payloads.size(); ++i) payloads[i] = i ^ 0xBEEF;
  Result<std::unique_ptr<GuardedDimension>> dim =
      GuardedDimension::Create(&space, &injector, payloads, Media::kPmem);
  ASSERT_TRUE(dim.ok());

  const uint64_t line = 7 * sizeof(uint64_t) / kOptaneLineBytes;
  for (int copy = 0; copy < (*dim)->num_copies(); ++copy) {
    (*dim)->table().copy(copy).PoisonLine(line);
  }
  Result<uint64_t> value = (*dim)->Payload(/*socket=*/0, 7);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), payloads[7]);
  EXPECT_EQ(injector.counters().replica_repairs, 1u);
  // The local copy's line is clean again; the next read is a plain near
  // read.
  EXPECT_FALSE(
      (*dim)->table().copy(0).IsPoisoned(7 * sizeof(uint64_t), 8));
}

TEST_F(FaultRecoveryTest, GuardedDimensionPayloadsSurviveInjectedPoison) {
  FaultSpec spec;
  spec.poison_lines_per_mib = 256.0;
  spec.transient_fraction = 0.25;
  FaultInjector injector(spec);
  PmemSpace space(topo_);
  injector.Arm(&space);

  std::vector<uint64_t> payloads(8192);
  for (size_t i = 0; i < payloads.size(); ++i) payloads[i] = i * 77 + 5;
  Result<std::unique_ptr<GuardedDimension>> dim =
      GuardedDimension::Create(&space, &injector, payloads, Media::kPmem);
  ASSERT_TRUE(dim.ok());
  for (size_t i = 0; i < payloads.size(); ++i) {
    for (int socket = 0; socket < 2; ++socket) {
      Result<uint64_t> value = (*dim)->Payload(socket, i);
      ASSERT_TRUE(value.ok()) << i;
      ASSERT_EQ(value.value(), payloads[i]) << i << " socket " << socket;
    }
  }
}

TEST_F(FaultRecoveryTest, GuardedCreateRetriesInjectedAllocFailures) {
  FaultSpec spec;
  // Period 3 against the two stripe allocations per attempt: with the
  // warm-up allocation below, attempt one loses its second stripe to the
  // injected failure and attempt two sails through.
  spec.alloc_failure_period = 3;
  FaultInjector injector(spec);
  PmemSpace space(topo_);
  injector.Arm(&space);
  Result<Allocation> warmup = space.Allocate(kKiB, {Media::kPmem, 0});
  ASSERT_TRUE(warmup.ok());
  space.Release(warmup.value());

  std::vector<std::byte> source = MakeSource(64 * kKiB);
  Result<std::unique_ptr<GuardedTable>> table = GuardedTable::Create(
      &space, &injector, source.data(), source.size(),
      GuardedTable::Options());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_GT(injector.counters().allocations_failed, 0u);
  std::vector<std::byte> readback(source.size());
  ASSERT_TRUE((*table)->Read(0, source.size(), readback.data()).ok());
  EXPECT_EQ(std::memcmp(readback.data(), source.data(), source.size()), 0);
}

TEST_F(FaultRecoveryTest, GuardedColumnStoreScanIsBitIdentical) {
  // The fact image fault mode reads: lineorder's 128 B rows, guarded on
  // poisoned PMEM. A read of the first half, one row at a time as a
  // windowed scan reads, is bit-identical to the source rows.
  FaultSpec spec = FaultSpec::Preset(3);
  FaultInjector injector(spec);
  PmemSpace space(topo_);
  injector.Arm(&space);

  Result<ssb::Database> db =
      ssb::Generate({.scale_factor = 0.002, .seed = 7});
  ASSERT_TRUE(db.ok());
  constexpr uint64_t kRowBytes = sizeof(ssb::LineorderRow);
  const auto* source =
      reinterpret_cast<const std::byte*>(db->lineorder.data());
  Result<std::unique_ptr<GuardedTable>> guarded = GuardedTable::Create(
      &space, &injector, source, db->lineorder.size() * kRowBytes,
      GuardedTable::Options());
  ASSERT_TRUE(guarded.ok()) << guarded.status().ToString();
  EXPECT_GT(injector.counters().lines_poisoned, 0u);

  std::vector<ssb::LineorderRow> window(db->lineorder.size() / 2);
  auto* dst = reinterpret_cast<std::byte*>(window.data());
  auto read_window = [&] {
    for (uint64_t row = 0; row < window.size(); ++row) {
      Status read = (*guarded)->Read(row * kRowBytes, kRowBytes,
                                     dst + row * kRowBytes);
      if (!read.ok()) return read;
    }
    return Status::OK();
  };
  ASSERT_TRUE(read_window().ok());
  EXPECT_EQ(std::memcmp(dst, source, window.size() * kRowBytes), 0);
  Result<uint64_t> repaired = (*guarded)->ScrubAll();
  ASSERT_TRUE(repaired.ok());
  // After the scrub a second read runs clean and still matches.
  const uint64_t scrubs_before = injector.counters().chunks_scrubbed;
  std::memset(dst, 0, window.size() * kRowBytes);
  ASSERT_TRUE(read_window().ok());
  EXPECT_EQ(std::memcmp(dst, source, window.size() * kRowBytes), 0);
  EXPECT_EQ(injector.counters().chunks_scrubbed, scrubs_before);
}

}  // namespace
}  // namespace pmemolap
