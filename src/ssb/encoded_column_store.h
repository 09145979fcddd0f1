// EncodedColumnStore — the compressed view of the lineorder columns: each
// of the nine int32 columns encoded with the cheapest scheme (FoR
// bit-packing, sorted dictionary, or raw pass-through) at load time.
//
// The engine scans this view when EngineConfig::encoding is on. It builds
// the view in one sweep of the row image: each 32-row block is cut into a
// 9 x 32 tile, one frame per column, and each column's ColumnEncoder
// packs its frame at once, so no raw column is ever resident beside the
// view. The kernels answer a plan's range filters on the encoded frames
// and gather every other column at the selection, and scan traffic is
// priced at the encoded byte widths reported here — so modeled seconds
// drop by exactly the bytes the encodings save.
#pragma once

#include <cstdint>
#include <vector>

#include "encoding/encoding.h"
#include "ssb/column_store.h"
#include "ssb/schema.h"

namespace pmemolap::ssb {

class EncodedColumnStore {
 public:
  EncodedColumnStore() = default;
  /// Encodes all nine columns of `columns` (scheme per column by size).
  explicit EncodedColumnStore(const ColumnStore& columns);
  /// Encodes the nine columns of `rows` in one sweep of the rows, one
  /// 32-row frame of every column at a time: no raw column is resident
  /// while the store is built.
  explicit EncodedColumnStore(const std::vector<LineorderRow>& rows);

  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const encoding::EncodedColumn& column(LineorderColumn column) const {
    return columns_[static_cast<size_t>(column)];
  }

  /// Encoded bytes of one column / of all nine.
  uint64_t EncodedBytes(LineorderColumn column) const {
    return this->column(column).EncodedBytes();
  }
  uint64_t TotalEncodedBytes() const;
  /// Raw bytes the same nine int32 columns occupy (4 B per value each).
  uint64_t TotalRawBytes() const {
    return size_ * kNumLineorderColumns * sizeof(int32_t);
  }

  /// Bytes a scan of `tuples` tuples moves over the given column set at
  /// the store's per-column encoded widths (fractional bytes-per-tuple,
  /// rounded once per column — deterministic for a fixed store).
  uint64_t ScanBytes(const std::vector<LineorderColumn>& columns,
                     uint64_t tuples) const;

 private:
  uint64_t size_ = 0;
  encoding::EncodedColumn columns_[kNumLineorderColumns];
};

}  // namespace pmemolap::ssb
