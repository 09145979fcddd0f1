#include "ssb/encoded_column_store.h"

#include <algorithm>
#include <cmath>

namespace pmemolap::ssb {

EncodedColumnStore::EncodedColumnStore(const ColumnStore& columns)
    : size_(columns.size()) {
  for (int c = 0; c < kNumLineorderColumns; ++c) {
    columns_[c] = encoding::EncodedColumn::Encode(
        columns.column(static_cast<LineorderColumn>(c)));
  }
}

EncodedColumnStore::EncodedColumnStore(const std::vector<LineorderRow>& rows)
    : size_(rows.size()) {
  constexpr uint64_t kFrame = encoding::kFrameValues;
  std::vector<encoding::ColumnEncoder> encoders;
  encoders.reserve(kNumLineorderColumns);
  for (int c = 0; c < kNumLineorderColumns; ++c) {
    encoders.emplace_back(rows.size());
  }
  // One frame of every column per 32 rows: the tile is the block's nine
  // columns, so each row is read once.
  int32_t tile[kNumLineorderColumns][kFrame] = {};
  for (uint64_t begin = 0; begin < rows.size(); begin += kFrame) {
    const uint64_t count = std::min<uint64_t>(kFrame, rows.size() - begin);
    for (uint64_t i = 0; i < count; ++i) {
      const LineorderRow& row = rows[begin + i];
      for (int c = 0; c < kNumLineorderColumns; ++c) {
        tile[c][i] = row.*kRowFields[c];
      }
    }
    for (int c = 0; c < kNumLineorderColumns; ++c) {
      encoders[c].AppendFrame(tile[c], count);
    }
  }
  for (int c = 0; c < kNumLineorderColumns; ++c) {
    columns_[c] = encoders[c].Finish();
  }
}

uint64_t EncodedColumnStore::TotalEncodedBytes() const {
  uint64_t total = 0;
  for (const encoding::EncodedColumn& column : columns_) {
    total += column.EncodedBytes();
  }
  return total;
}

uint64_t EncodedColumnStore::ScanBytes(
    const std::vector<LineorderColumn>& columns, uint64_t tuples) const {
  if (size_ == 0) return 0;
  uint64_t bytes = 0;
  for (LineorderColumn column : columns) {
    // Fractional encoded bytes-per-tuple: prorate each column's encoded
    // size over the tuples scanned, rounding once per column.
    const double per_tuple =
        static_cast<double>(EncodedBytes(column)) /
        static_cast<double>(size_);
    bytes += static_cast<uint64_t>(
        std::llround(per_tuple * static_cast<double>(tuples)));
  }
  return bytes;
}

}  // namespace pmemolap::ssb
