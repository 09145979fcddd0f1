// CRC-32 (IEEE 802.3 polynomial, reflected) for torn-write detection in
// persistent structures. Table-driven (slicing-by-8: eight bytes per
// step), no hardware dependency, stable across platforms.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pmemolap {

/// CRC-32 of `size` bytes starting at `data`, seeded with `seed` (pass the
/// previous result to continue a running checksum).
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

}  // namespace pmemolap
