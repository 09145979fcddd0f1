#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace pmemolap {

namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;  // reflected IEEE CRC-32

/// Slicing-by-8 tables: kTables[0] is the bytewise table, and
/// kTables[k][i] is the CRC contribution of byte i followed by k zero
/// bytes, so eight table lookups advance the CRC by one 8-byte word.
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

SliceTables BuildTables() {
  SliceTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPolynomial : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  static const SliceTables kTables = BuildTables();
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  // The word step reads its eight bytes in memory order from the low end
  // of a little-endian load; other hosts take the bytewise loop throughout.
  if constexpr (std::endian::native == std::endian::little) {
    for (; size >= 8; size -= 8, bytes += 8) {
      uint64_t word;
      std::memcpy(&word, bytes, sizeof(word));
      word ^= crc;
      crc = kTables[7][word & 0xFF] ^ kTables[6][(word >> 8) & 0xFF] ^
            kTables[5][(word >> 16) & 0xFF] ^ kTables[4][(word >> 24) & 0xFF] ^
            kTables[3][(word >> 32) & 0xFF] ^ kTables[2][(word >> 40) & 0xFF] ^
            kTables[1][(word >> 48) & 0xFF] ^ kTables[0][word >> 56];
    }
  }
  for (; size > 0; --size, ++bytes) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *bytes) & 0xFF];
  }
  return ~crc;
}

}  // namespace pmemolap
