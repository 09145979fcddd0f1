// Concurrent ingest vs snapshot reads. DurableTable's contract: one
// ingest thread calls Append while any number of readers call
// committed_epoch/ReadSnapshot — epoch metadata is mutex-published and
// committed table bytes are immutable once published, so readers never
// observe a half-applied epoch. Run under TSan in CI; the assertions
// here catch value races (a reader seeing torn or stale bytes for a
// published epoch) that TSan's happens-before checks alone would not.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "durability/durable_table.h"

namespace pmemolap {
namespace {

constexpr uint64_t kEpochBytes = 256;
constexpr int kEpochs = 64;
constexpr int kReaders = 4;

std::vector<std::byte> Pattern(uint64_t size, int salt) {
  std::vector<std::byte> bytes(size);
  for (uint64_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::byte>((salt * 131 + i * 7) & 0xFF);
  }
  return bytes;
}

TEST(DurableConcurrencyTest, ReadersSeeOnlyFullyPublishedEpochs) {
  SystemTopology topo = SystemTopology::PaperServer();
  PmemSpace space{topo};
  DurableTable::Options options;
  options.capacity_bytes = 64 * kKiB;
  options.log_bytes = 256 * kKiB;
  auto table = DurableTable::Create(&space, nullptr, options);
  ASSERT_TRUE(table.ok());
  DurableTable* t = table->get();

  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> reader_errors{0};
  std::atomic<uint64_t> epochs_verified{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::vector<std::byte> got(kEpochBytes);
      // One guaranteed pass after the writer finishes: even a reader the
      // scheduler starved verifies the final epoch before exiting.
      bool final_pass = false;
      while (true) {
        if (writer_done.load(std::memory_order_acquire)) {
          if (final_pass) break;
          final_pass = true;
        }
        uint64_t e = t->committed_epoch();
        if (e == 0) continue;
        // Re-read the *newest* epoch's own slice: if publish ordering is
        // wrong this is exactly where a half-applied payload shows up.
        if (!t->ReadSnapshot(e, (e - 1) * kEpochBytes, kEpochBytes,
                             got.data())
                 .ok()) {
          reader_errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        std::vector<std::byte> expected =
            Pattern(kEpochBytes, static_cast<int>(e));
        if (std::memcmp(got.data(), expected.data(), kEpochBytes) != 0) {
          reader_errors.fetch_add(1, std::memory_order_relaxed);
        } else {
          epochs_verified.fetch_add(1, std::memory_order_relaxed);
        }
        // Older epochs stay immutable while ingest runs: spot-check one
        // below the frontier per reader pass.
        uint64_t old_epoch = 1 + (e - 1) * static_cast<uint64_t>(r) /
                                     (kReaders == 1 ? 1 : kReaders - 1);
        if (old_epoch >= 1 && old_epoch <= e) {
          if (!t->ReadSnapshot(old_epoch, (old_epoch - 1) * kEpochBytes,
                               kEpochBytes, got.data())
                   .ok() ||
              std::memcmp(got.data(),
                          Pattern(kEpochBytes, static_cast<int>(old_epoch))
                              .data(),
                          kEpochBytes) != 0) {
            reader_errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  std::thread writer([&] {
    for (int e = 1; e <= kEpochs; ++e) {
      std::vector<std::byte> payload = Pattern(kEpochBytes, e);
      Result<uint64_t> epoch = t->Append(payload.data(), payload.size());
      ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    }
    writer_done.store(true, std::memory_order_release);
  });

  writer.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(reader_errors.load(), 0u)
      << "no reader may ever see torn, stale, or unreadable committed bytes";
  EXPECT_EQ(t->committed_epoch(), static_cast<uint64_t>(kEpochs));
  // The loop shape guarantees at least the final epoch was verified.
  EXPECT_GT(epochs_verified.load(), 0u);
  // Concurrent readers polled while the oracle's mirror advanced under
  // the ingest thread: the protocol must still be violation-free.
  EXPECT_TRUE(t->order_checker().clean());
}

TEST(DurableConcurrencyTest, SnapshotPinsStayConsistentAcrossIngest) {
  // A "query" pins epoch e and re-reads its full prefix while ingest
  // advances far past it — the snapshot must not drift.
  SystemTopology topo = SystemTopology::PaperServer();
  PmemSpace space{topo};
  DurableTable::Options options;
  options.capacity_bytes = 64 * kKiB;
  options.log_bytes = 256 * kKiB;
  auto table = DurableTable::Create(&space, nullptr, options);
  ASSERT_TRUE(table.ok());
  DurableTable* t = table->get();

  for (int e = 1; e <= 4; ++e) {
    std::vector<std::byte> payload = Pattern(kEpochBytes, e);
    ASSERT_TRUE(t->Append(payload.data(), payload.size()).ok());
  }
  const uint64_t pinned = t->committed_epoch();
  Result<uint64_t> pinned_bytes = t->SnapshotBytes(pinned);
  ASSERT_TRUE(pinned_bytes.ok());
  EXPECT_EQ(*pinned_bytes, 4 * kEpochBytes);

  std::thread ingest([&] {
    for (int e = 5; e <= kEpochs; ++e) {
      std::vector<std::byte> payload = Pattern(kEpochBytes, e);
      ASSERT_TRUE(t->Append(payload.data(), payload.size()).ok());
    }
  });

  std::vector<std::byte> got(kEpochBytes);
  for (int pass = 0; pass < 50; ++pass) {
    for (uint64_t e = 1; e <= pinned; ++e) {
      ASSERT_TRUE(t->ReadSnapshot(pinned, (e - 1) * kEpochBytes, kEpochBytes,
                                  got.data())
                      .ok());
      EXPECT_EQ(std::memcmp(got.data(),
                            Pattern(kEpochBytes, static_cast<int>(e)).data(),
                            kEpochBytes),
                0)
          << "pinned snapshot drifted at epoch " << e << " pass " << pass;
    }
    // Reads past the pinned snapshot's extent stay out of bounds even
    // though newer epochs have landed there.
    EXPECT_EQ(t->ReadSnapshot(pinned, *pinned_bytes, 1, got.data()).code(),
              StatusCode::kInvalidArgument);
  }

  ingest.join();
  EXPECT_EQ(t->committed_epoch(), static_cast<uint64_t>(kEpochs));
  EXPECT_TRUE(t->order_checker().clean());
}

}  // namespace
}  // namespace pmemolap
