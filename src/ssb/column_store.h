// ColumnStore — a structure-of-arrays projection of the lineorder fact
// table (the §2.2 column-store layout, materialized for real).
//
// The engine's `columnar` flag models the traffic reduction; this class
// provides the actual storage so scans over individual columns can be
// executed and wall-clock-benchmarked (bench_functional_microbench) —
// demonstrating functionally why "high-performance column stores can be
// orders of magnitude faster" on scan-bound flights.
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

  /// Bytes of one column.
  uint64_t BytesPerColumn() const { return size() * sizeof(int32_t); }
  /// Total bytes across the nine projected columns — vs 128 B/row.
  uint64_t TotalBytes() const { return 9 * BytesPerColumn(); }

  /// Flight-1-style columnar scan: touches exactly four columns and
  /// returns sum(extendedprice * discount) over tuples with discount in
  /// [discount_lo, discount_hi] and quantity < quantity_below. Used by
  /// the wall-clock row-vs-column microbenchmark.
  int64_t ScanDiscountedRevenue(int32_t discount_lo, int32_t discount_hi,
                                int32_t quantity_below) const;

 private:
  std::array<std::vector<int32_t>, kNumLineorderColumns> columns_;
};

/// The row-storage counterpart of ScanDiscountedRevenue, for apples-to-
/// apples wall-clock comparison.
int64_t RowScanDiscountedRevenue(const std::vector<LineorderRow>& rows,
                                 int32_t discount_lo, int32_t discount_hi,
                                 int32_t quantity_below);

}  // namespace pmemolap::ssb
