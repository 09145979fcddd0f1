// ColumnStore — a structure-of-arrays projection of the lineorder fact
// table (the §2.2 column-store layout, materialized for real).
//
// It is one of the kernels' three fact images (engine/kernels.h): the
// raw columns, next to the encoded store and the 128 B row image. The
// engine's `columnar` flag prices the traffic reduction; queries read
// these columns only through the kernels' select-by-range and
// gather-at-selection primitives.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "ssb/schema.h"

namespace pmemolap::ssb {

/// The nine projected lineorder columns, in ColumnStore order.
enum class LineorderColumn {
  kOrderdate = 0,
  kCustkey,
  kPartkey,
  kSuppkey,
  kQuantity,
  kDiscount,
  kExtendedprice,
  kRevenue,
  kSupplycost,
};

inline constexpr int kNumLineorderColumns = 9;

const char* LineorderColumnName(LineorderColumn column);

/// The row field behind each column, in LineorderColumn order.
inline constexpr int32_t LineorderRow::*kRowFields[kNumLineorderColumns] = {
    &LineorderRow::orderdate,     &LineorderRow::custkey,
    &LineorderRow::partkey,       &LineorderRow::suppkey,
    &LineorderRow::quantity,      &LineorderRow::discount,
    &LineorderRow::extendedprice, &LineorderRow::revenue,
    &LineorderRow::supplycost,
};

class ColumnStore {
 public:
  ColumnStore() = default;
  /// Builds the SoA projection from row storage.
  explicit ColumnStore(const std::vector<LineorderRow>& rows);
  /// Builds the SoA projection and releases the source rows: after the
  /// call `rows` is empty with zero capacity, so the 128 B row image and
  /// the columnar image are never resident together (the row copy would
  /// cost 3.5x the nine 4 B columns).
  explicit ColumnStore(std::vector<LineorderRow>&& rows);

  size_t size() const { return columns_[0].size(); }
  bool empty() const { return columns_[0].empty(); }

  const std::vector<int32_t>& column(LineorderColumn column) const {
    return columns_[static_cast<size_t>(column)];
  }

 private:
  std::array<std::vector<int32_t>, kNumLineorderColumns> columns_;
};

}  // namespace pmemolap::ssb
