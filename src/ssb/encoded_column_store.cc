#include "ssb/encoded_column_store.h"

#include <cmath>

namespace pmemolap::ssb {

namespace {

/// Encodes out[c] from column_of(c), a const std::vector<int32_t>&.
template <typename ColumnOf>
void EncodeEach(encoding::EncodedColumn* out, ColumnOf column_of) {
  for (int c = 0; c < kNumLineorderColumns; ++c) {
    out[c] = encoding::EncodedColumn::Encode(column_of(c));
  }
}

}  // namespace

EncodedColumnStore::EncodedColumnStore(const ColumnStore& columns)
    : size_(columns.size()) {
  EncodeEach(columns_, [&](int c) -> const std::vector<int32_t>& {
    return columns.column(static_cast<LineorderColumn>(c));
  });
}

EncodedColumnStore::EncodedColumnStore(const std::vector<LineorderRow>& rows)
    : size_(rows.size()) {
  std::vector<int32_t> values(rows.size());
  EncodeEach(columns_, [&](int c) -> const std::vector<int32_t>& {
    const int32_t LineorderRow::*field = kRowFields[c];
    for (size_t i = 0; i < rows.size(); ++i) values[i] = rows[i].*field;
    return values;
  });
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
