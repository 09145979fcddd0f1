#include "ssb/encoded_column_store.h"

#include <cmath>

namespace pmemolap::ssb {

EncodedColumnStore::EncodedColumnStore(const ColumnStore& columns)
    : size_(columns.size()) {
  for (int c = 0; c < kNumLineorderColumns; ++c) {
    columns_[c] = encoding::EncodedColumn::Encode(
        columns.column(static_cast<LineorderColumn>(c)));
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
