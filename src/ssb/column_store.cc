#include "ssb/column_store.h"

namespace pmemolap::ssb {

const char* LineorderColumnName(LineorderColumn column) {
  switch (column) {
    case LineorderColumn::kOrderdate:
      return "orderdate";
    case LineorderColumn::kCustkey:
      return "custkey";
    case LineorderColumn::kPartkey:
      return "partkey";
    case LineorderColumn::kSuppkey:
      return "suppkey";
    case LineorderColumn::kQuantity:
      return "quantity";
    case LineorderColumn::kDiscount:
      return "discount";
    case LineorderColumn::kExtendedprice:
      return "extendedprice";
    case LineorderColumn::kRevenue:
      return "revenue";
    case LineorderColumn::kSupplycost:
      return "supplycost";
  }
  return "?";
}

ColumnStore::ColumnStore(const std::vector<LineorderRow>& rows) {
  for (std::vector<int32_t>& column : columns_) column.reserve(rows.size());
  for (const LineorderRow& row : rows) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c].push_back(row.*kRowFields[c]);
    }
  }
}

ColumnStore::ColumnStore(std::vector<LineorderRow>&& rows)
    : ColumnStore(static_cast<const std::vector<LineorderRow>&>(rows)) {
  rows.clear();
  rows.shrink_to_fit();
}

int64_t ColumnStore::ScanDiscountedRevenue(int32_t discount_lo,
                                           int32_t discount_hi,
                                           int32_t quantity_below) const {
  int64_t sum = 0;
  const size_t n = size();
  const int32_t* discount = column(LineorderColumn::kDiscount).data();
  const int32_t* quantity = column(LineorderColumn::kQuantity).data();
  const int32_t* price = column(LineorderColumn::kExtendedprice).data();
  for (size_t i = 0; i < n; ++i) {
    if (discount[i] >= discount_lo && discount[i] <= discount_hi &&
        quantity[i] < quantity_below) {
      sum += static_cast<int64_t>(price[i]) * discount[i];
    }
  }
  return sum;
}

int64_t RowScanDiscountedRevenue(const std::vector<LineorderRow>& rows,
                                 int32_t discount_lo, int32_t discount_hi,
                                 int32_t quantity_below) {
  int64_t sum = 0;
  for (const LineorderRow& row : rows) {
    if (row.discount >= discount_lo && row.discount <= discount_hi &&
        row.quantity < quantity_below) {
      sum += static_cast<int64_t>(row.extendedprice) * row.discount;
    }
  }
  return sum;
}

}  // namespace pmemolap::ssb
