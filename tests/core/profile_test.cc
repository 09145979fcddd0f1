#include "core/profile.h"

#include <gtest/gtest.h>

namespace pmemolap {
namespace {

TEST(ProfileTest, RecordSequentialFillsFields) {
  ExecutionProfile profile;
  profile.RecordSequential(OpType::kRead, Media::kPmem, 1, 1000, 4096, 18,
                           "scan");
  ASSERT_EQ(profile.records().size(), 1u);
  const TrafficRecord& record = profile.records()[0];
  EXPECT_EQ(record.op, OpType::kRead);
  EXPECT_EQ(record.pattern, Pattern::kSequentialIndividual);
  EXPECT_EQ(record.data_socket, 1);
  EXPECT_EQ(record.bytes, 1000u);
  EXPECT_EQ(record.access_size, 4096u);
  EXPECT_EQ(record.threads, 18);
  EXPECT_EQ(record.label, "scan");
}

TEST(ProfileTest, TotalBytesByOp) {
  ExecutionProfile profile;
  profile.RecordSequential(OpType::kRead, Media::kPmem, 0, 100, 64, 1, "a");
  profile.RecordSequential(OpType::kRead, Media::kPmem, 0, 200, 64, 1, "b");
  profile.RecordSequential(OpType::kWrite, Media::kPmem, 0, 50, 64, 1, "c");
  EXPECT_EQ(profile.TotalBytes(OpType::kRead), 300u);
  EXPECT_EQ(profile.TotalBytes(OpType::kWrite), 50u);
}

TEST(ProfileTest, ScaledMultipliesBytesAndRegions) {
  ExecutionProfile profile;
  TrafficRecord probe;
  probe.pattern = Pattern::kRandom;
  probe.bytes = 25600;
  probe.access_size = 256;
  probe.region_bytes = kMiB;
  profile.Record(probe);
  ExecutionProfile scaled = profile.Scaled(2.5);
  EXPECT_EQ(scaled.records()[0].bytes, 64000u);
  EXPECT_EQ(scaled.records()[0].region_bytes,
            static_cast<uint64_t>(2.5 * kMiB));
  // Original untouched.
  EXPECT_EQ(profile.records()[0].bytes, 25600u);
}

TEST(ProfileTest, WorkerSocketDefaultsToDataSocket) {
  ExecutionProfile profile;
  profile.RecordSequential(OpType::kRead, Media::kPmem, 1, 100, 64, 1, "x");
  EXPECT_EQ(profile.records()[0].worker_socket, -1);
}

TEST(ToAccessClassTest, PinnedNearRecordCopiesFieldsWarmAndNear) {
  const SystemTopology topology = SystemTopology::PaperServer();
  TrafficRecord record;
  record.op = OpType::kWrite;
  record.pattern = Pattern::kRandom;
  record.media = Media::kDram;
  record.data_socket = 1;
  record.bytes = 12345;
  record.access_size = 16;  // below one cache line
  record.region_bytes = 3 * kMiB;
  record.threads = 2;  // the caller's thread count wins
  record.label = "probe-part";
  Result<AccessClass> klass =
      ToAccessClass(record, 6, PinningPolicy::kNumaRegion, topology);
  ASSERT_TRUE(klass.ok()) << klass.status().ToString();
  EXPECT_EQ(klass->op, OpType::kWrite);
  EXPECT_EQ(klass->pattern, Pattern::kRandom);
  EXPECT_EQ(klass->media, Media::kDram);
  EXPECT_EQ(klass->data_socket, 1);
  EXPECT_EQ(klass->region_bytes, 3 * kMiB);
  EXPECT_EQ(klass->label, "probe-part");
  EXPECT_EQ(klass->access_size, 64u);
  EXPECT_EQ(klass->run_index, 2);
  ASSERT_EQ(klass->placement.threads(), 6);
  EXPECT_EQ(klass->placement.policy, PinningPolicy::kNumaRegion);
  for (const ThreadSlot& slot : klass->placement.slots) {
    EXPECT_EQ(slot.socket, 1);
    EXPECT_TRUE(slot.near_data);
  }
}

TEST(ToAccessClassTest, FarRecordPlacesThreadsOnTheWorkerSocket) {
  const SystemTopology topology = SystemTopology::PaperServer();
  TrafficRecord record;
  record.worker_socket = 1;
  record.data_socket = 0;
  Result<AccessClass> klass =
      ToAccessClass(record, 8, PinningPolicy::kCores, topology);
  ASSERT_TRUE(klass.ok()) << klass.status().ToString();
  EXPECT_EQ(klass->data_socket, 0);
  ASSERT_EQ(klass->placement.threads(), 8);
  EXPECT_EQ(klass->placement.CountNear(), 0);
  for (const ThreadSlot& slot : klass->placement.slots) {
    EXPECT_EQ(slot.socket, 1);
    EXPECT_FALSE(slot.near_data);
  }
}

TEST(ToAccessClassTest, UnpinnedRecordKeepsThePlacersRoundRobin) {
  const SystemTopology topology = SystemTopology::PaperServer();
  TrafficRecord record;
  record.worker_socket = 0;
  record.data_socket = 1;
  Result<AccessClass> klass =
      ToAccessClass(record, 4, PinningPolicy::kNone, topology);
  ASSERT_TRUE(klass.ok()) << klass.status().ToString();
  // Unpinned threads keep the flags the placer gave them relative to the
  // worker socket; they are not re-marked against the data socket.
  Result<ThreadPlacement> placed =
      ThreadPlacer(topology).Place(4, PinningPolicy::kNone, 0);
  ASSERT_TRUE(placed.ok());
  ASSERT_EQ(klass->placement.threads(), 4);
  for (size_t i = 0; i < klass->placement.slots.size(); ++i) {
    const ThreadSlot& slot = klass->placement.slots[i];
    EXPECT_EQ(slot.socket, static_cast<int>(i % 2)) << i;
    EXPECT_EQ(slot.near_data, placed->slots[i].near_data) << i;
    EXPECT_EQ(slot.near_data, slot.socket == 0) << i;
  }
}

TEST(ToAccessClassTest, FewerThanOneThreadRunsAsOne) {
  const SystemTopology topology = SystemTopology::PaperServer();
  TrafficRecord record;
  for (int threads : {0, -3}) {
    Result<AccessClass> klass =
        ToAccessClass(record, threads, PinningPolicy::kCores, topology);
    ASSERT_TRUE(klass.ok()) << threads;
    EXPECT_EQ(klass->placement.threads(), 1) << threads;
  }
}

}  // namespace
}  // namespace pmemolap
