#include "core/per_worker_log.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace pmemolap {
namespace {

class PerWorkerLogTest : public ::testing::Test {
 protected:
  SystemTopology topo_ = SystemTopology::PaperServer();
  PmemSpace space_{topo_};
};

TEST_F(PerWorkerLogTest, EntrySizeMatchesOptaneLine) {
  EXPECT_EQ(PerWorkerLog::kEntryBytes, kOptaneLineBytes);
  EXPECT_EQ(PerWorkerLog::kMaxPayloadBytes,
            PerWorkerLog::kEntryBytes - PerWorkerLog::kHeaderBytes);
}

TEST_F(PerWorkerLogTest, CreateValidates) {
  EXPECT_FALSE(PerWorkerLog::Create(&space_, 0, 10).ok());
  EXPECT_FALSE(PerWorkerLog::Create(&space_, 4, 0).ok());
  EXPECT_TRUE(PerWorkerLog::Create(&space_, 4, 10).ok());
}

TEST_F(PerWorkerLogTest, LogsStripedAcrossSockets) {
  auto log = PerWorkerLog::Create(&space_, 4, 16);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->SocketOf(0), 0);
  EXPECT_EQ(log->SocketOf(1), 1);
  EXPECT_EQ(log->SocketOf(2), 0);
  EXPECT_EQ(log->SocketOf(3), 1);
}

TEST_F(PerWorkerLogTest, AppendAndReadBack) {
  auto log = PerWorkerLog::Create(&space_, 2, 8);
  ASSERT_TRUE(log.ok());
  const char* message = "commit record 42";
  ASSERT_TRUE(log->Append(0, reinterpret_cast<const std::byte*>(message),
                          strlen(message))
                  .ok());
  EXPECT_EQ(log->entries(0), 1u);
  EXPECT_EQ(log->entries(1), 0u);

  std::vector<std::byte> out(PerWorkerLog::kMaxPayloadBytes);
  auto length = log->ReadEntry(0, 0, out.data());
  ASSERT_TRUE(length.ok());
  EXPECT_EQ(length.value(), strlen(message));
  EXPECT_EQ(std::memcmp(out.data(), message, strlen(message)), 0);
  // Padding is zeroed.
  EXPECT_EQ(out[strlen(message)], std::byte{0});
  EXPECT_EQ(out[PerWorkerLog::kMaxPayloadBytes - 1], std::byte{0});
}

TEST_F(PerWorkerLogTest, LongPayloadTruncatedToCapacity) {
  auto log = PerWorkerLog::Create(&space_, 1, 2);
  ASSERT_TRUE(log.ok());
  std::vector<std::byte> payload(512, std::byte{0x77});
  ASSERT_TRUE(log->Append(0, payload.data(), payload.size()).ok());
  std::vector<std::byte> out(PerWorkerLog::kMaxPayloadBytes);
  auto length = log->ReadEntry(0, 0, out.data());
  ASSERT_TRUE(length.ok());
  EXPECT_EQ(length.value(), PerWorkerLog::kMaxPayloadBytes);
  EXPECT_EQ(out[PerWorkerLog::kMaxPayloadBytes - 1], std::byte{0x77});
}

TEST_F(PerWorkerLogTest, CapacityEnforced) {
  auto log = PerWorkerLog::Create(&space_, 1, 2);
  ASSERT_TRUE(log.ok());
  std::byte byte{1};
  ASSERT_TRUE(log->Append(0, &byte, 1).ok());
  ASSERT_TRUE(log->Append(0, &byte, 1).ok());
  Status full = log->Append(0, &byte, 1);
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
}

TEST_F(PerWorkerLogTest, BoundsChecking) {
  auto log = PerWorkerLog::Create(&space_, 2, 4);
  ASSERT_TRUE(log.ok());
  std::byte byte{1};
  EXPECT_FALSE(log->Append(2, &byte, 1).ok());
  EXPECT_FALSE(log->Append(-1, &byte, 1).ok());
  std::vector<std::byte> out(PerWorkerLog::kMaxPayloadBytes);
  EXPECT_EQ(log->ReadEntry(0, 0, out.data()).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(PerWorkerLogTest, AppendsRecordSmallSequentialWrites) {
  auto log = PerWorkerLog::Create(&space_, 1, 4);
  ASSERT_TRUE(log.ok());
  ExecutionProfile profile;
  std::byte byte{1};
  ASSERT_TRUE(log->Append(0, &byte, 1, &profile).ok());
  ASSERT_EQ(profile.records().size(), 1u);
  const TrafficRecord& record = profile.records()[0];
  EXPECT_EQ(record.op, OpType::kWrite);
  EXPECT_EQ(record.access_size, PerWorkerLog::kEntryBytes);
  EXPECT_EQ(record.bytes, PerWorkerLog::kEntryBytes);
}

TEST_F(PerWorkerLogTest, ReadEntryRejectsACorruptPayload) {
  // Capture the log's storage as it is allocated, then flip one payload
  // byte of entry 1: the stored CRC must catch it, and only it.
  std::byte* storage = nullptr;
  space_.set_allocation_hook([&storage](Allocation* allocation) {
    storage = allocation->data();
    return Status::OK();
  });
  auto log = PerWorkerLog::Create(&space_, 1, 4);
  space_.set_allocation_hook(nullptr);
  ASSERT_TRUE(log.ok());
  ASSERT_NE(storage, nullptr);
  for (int e = 0; e < 3; ++e) {
    std::vector<std::byte> payload(40, static_cast<std::byte>(0x10 + e));
    ASSERT_TRUE(log->Append(0, payload.data(), payload.size()).ok());
  }
  storage[PerWorkerLog::kEntryBytes + PerWorkerLog::kHeaderBytes + 5] ^=
      std::byte{0x01};

  std::vector<std::byte> out(PerWorkerLog::kMaxPayloadBytes);
  EXPECT_EQ(log->ReadEntry(0, 1, out.data()).status().code(),
            StatusCode::kDataLoss);
  for (uint64_t e : {0u, 2u}) {
    auto length = log->ReadEntry(0, e, out.data());
    ASSERT_TRUE(length.ok()) << length.status().ToString();
    EXPECT_EQ(length.value(), 40u);
    EXPECT_EQ(out[0], static_cast<std::byte>(0x10 + e));
    EXPECT_EQ(out[39], static_cast<std::byte>(0x10 + e));
    EXPECT_EQ(out[40], std::byte{0});
  }
}

TEST_F(PerWorkerLogTest, WorkersAreIndependent) {
  auto log = PerWorkerLog::Create(&space_, 3, 4);
  ASSERT_TRUE(log.ok());
  std::byte a{0xA};
  std::byte b{0xB};
  ASSERT_TRUE(log->Append(0, &a, 1).ok());
  ASSERT_TRUE(log->Append(2, &b, 1).ok());
  std::vector<std::byte> out(PerWorkerLog::kMaxPayloadBytes);
  ASSERT_TRUE(log->ReadEntry(2, 0, out.data()).ok());
  EXPECT_EQ(out[0], std::byte{0xB});
  EXPECT_EQ(log->entries(1), 0u);
}

}  // namespace
}  // namespace pmemolap
