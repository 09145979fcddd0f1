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

}  // namespace pmemolap::ssb
