// ZeroedArray<T> — a fixed-size array that reads as all-zero elements and
// costs host memory only where it is written. Storage comes in chunks of
// kChunk elements, each allocated (zeroed) on the first non-zero write
// into it, so reads and zero writes of untouched chunks allocate nothing.
// A calloc'd array cannot promise that: glibc's dynamic mmap threshold
// moves a buffer that is freed and allocated again into the heap, where
// calloc clears reused memory and transparent huge pages can back a whole
// 2 MB around a few written bytes. For per-line state tables whose zero
// value is the idle state.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace pmemolap {

template <typename T>
class ZeroedArray {
 public:
  ZeroedArray() = default;
  /// `size` elements, each T{}.
  explicit ZeroedArray(size_t size) : chunks_((size + kChunk - 1) / kChunk) {}

  T operator[](size_t index) const {
    const std::unique_ptr<T[]>& chunk = chunks_[index / kChunk];
    return chunk == nullptr ? T{} : chunk[index % kChunk];
  }

  void Set(size_t index, T value) {
    std::unique_ptr<T[]>& chunk = chunks_[index / kChunk];
    if (chunk == nullptr) {
      if (value == T{}) return;
      chunk = std::make_unique<T[]>(kChunk);
    }
    chunk[index % kChunk] = value;
  }

 private:
  /// 4 KiB of one-byte states: one host page per 256 KiB of 64 B lines.
  static constexpr size_t kChunk = 4096;
  std::vector<std::unique_ptr<T[]>> chunks_;
};

}  // namespace pmemolap
