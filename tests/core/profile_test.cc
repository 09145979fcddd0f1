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

}  // namespace
}  // namespace pmemolap
