#include "common/crc32.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"

namespace pmemolap {
namespace {

TEST(Crc32Test, KnownVectors) {
  // Standard IEEE CRC-32 check values.
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("abc", 3), 0x352441C2u);
}

TEST(Crc32Test, SensitiveToEveryBit) {
  std::string data(64, 'x');
  uint32_t base = Crc32(data.data(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    std::string flipped = data;
    flipped[i] = static_cast<char>(flipped[i] ^ 1);
    EXPECT_NE(Crc32(flipped.data(), flipped.size()), base) << i;
  }
}

TEST(Crc32Test, SeedContinuation) {
  // crc(a ++ b) == crc(b, seed = crc(a)).
  const char* a = "hello ";
  const char* b = "world";
  uint32_t whole = Crc32("hello world", 11);
  uint32_t split = Crc32(b, std::strlen(b), Crc32(a, std::strlen(a)));
  EXPECT_EQ(split, whole);
}

TEST(Crc32Test, OrderMatters) {
  EXPECT_NE(Crc32("ab", 2), Crc32("ba", 2));
}

/// The textbook byte-at-a-time CRC-32 over one 256-entry table.
uint32_t BytewiseCrc32(const uint8_t* data, size_t size, uint32_t seed) {
  static const std::vector<uint32_t> kTable = [] {
    std::vector<uint32_t> table(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
      }
      table[i] = crc;
    }
    return table;
  }();
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ kTable[(crc ^ data[i]) & 0xFF];
  }
  return ~crc;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..4097 cover the word loop's tails; the 8 start offsets
  // cover every alignment of its 8-byte loads; each call is seeded with
  // the previous result, so a wrong seed path surfaces too.
  constexpr size_t kMaxLength = 4097;
  Rng rng(0xC3C32);
  std::vector<uint8_t> buffer(kMaxLength + 8);
  for (uint8_t& byte : buffer) byte = static_cast<uint8_t>(rng.Next());
  uint32_t sliced = 0;
  uint32_t reference = 0;
  for (size_t length = 0; length <= kMaxLength; ++length) {
    for (size_t start = 0; start < 8; ++start) {
      sliced = Crc32(buffer.data() + start, length, sliced);
      reference = BytewiseCrc32(buffer.data() + start, length, reference);
      ASSERT_EQ(sliced, reference) << "length " << length << " start "
                                   << start;
    }
  }
}

}  // namespace
}  // namespace pmemolap
