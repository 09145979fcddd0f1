// DurableTable's standing ingest traffic: one ingest thread writes each
// epoch's payload and then its commit record, so queries see one PMEM
// writer whose bytes are every append's payload plus its record.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "durability/commit_log.h"
#include "durability/durable_table.h"

namespace pmemolap {
namespace {

TEST(DurableTableTest, AppendsStandAsOneIngestWriter) {
  SystemTopology topo = SystemTopology::PaperServer();
  PmemSpace space(topo);
  DurableTable::Options options;
  options.capacity_bytes = 256 * kKiB;
  options.log_bytes = 64 * kKiB;
  auto table = DurableTable::Create(&space, nullptr, options);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*table)->standing_traffic().empty());

  constexpr int kEpochs = 5;
  constexpr uint64_t kBytes = 10'000;
  const std::vector<std::byte> payload(kBytes, std::byte{0x5A});
  for (int e = 0; e < kEpochs; ++e) {
    ASSERT_TRUE((*table)->Append(payload.data(), payload.size()).ok());
  }

  const std::vector<TrafficRecord> standing = (*table)->standing_traffic();
  ASSERT_EQ(standing.size(), 1u) << "one ingest thread is one writer";
  const TrafficRecord& ingest = standing.front();
  EXPECT_EQ(ingest.op, OpType::kWrite);
  EXPECT_EQ(ingest.media, Media::kPmem);
  EXPECT_EQ(ingest.threads, 1);
  EXPECT_EQ(ingest.bytes, kEpochs * (kBytes + sizeof(CommitRecord)));
  EXPECT_EQ(ingest.label, "ingest");

  // Peeking leaves the bytes standing; draining hands them over once.
  EXPECT_EQ((*table)->standing_traffic().front().bytes, ingest.bytes);
  const std::vector<TrafficRecord> drained = (*table)->DrainIngestTraffic();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained.front().bytes, ingest.bytes);
  EXPECT_TRUE((*table)->standing_traffic().empty());
  EXPECT_TRUE((*table)->DrainIngestTraffic().empty());
}

}  // namespace
}  // namespace pmemolap
