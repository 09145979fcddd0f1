#include "fault/column_guard.h"

#include <algorithm>
#include <vector>

namespace pmemolap {

namespace {

Result<std::unique_ptr<GuardedTable>> GuardColumn(
    PmemSpace* space, FaultInjector* injector,
    const std::vector<int32_t>& column, const GuardedTable::Options& options) {
  return GuardedTable::Create(
      space, injector, reinterpret_cast<const std::byte*>(column.data()),
      column.size() * sizeof(int32_t), options);
}

}  // namespace

Result<std::unique_ptr<GuardedColumnStore>> GuardedColumnStore::Create(
    PmemSpace* space, FaultInjector* injector, const ssb::ColumnStore* store,
    const GuardedTable::Options& options) {
  if (store == nullptr || store->empty()) {
    return Status::InvalidArgument("column store must be non-empty");
  }
  using C = ssb::LineorderColumn;
  std::unique_ptr<GuardedColumnStore> guarded(new GuardedColumnStore());
  guarded->rows_ = store->size();
  PMEMOLAP_ASSIGN_OR_RETURN(
      guarded->orderdate_,
      GuardColumn(space, injector, store->column(C::kOrderdate), options));
  PMEMOLAP_ASSIGN_OR_RETURN(
      guarded->custkey_,
      GuardColumn(space, injector, store->column(C::kCustkey), options));
  PMEMOLAP_ASSIGN_OR_RETURN(
      guarded->partkey_,
      GuardColumn(space, injector, store->column(C::kPartkey), options));
  PMEMOLAP_ASSIGN_OR_RETURN(
      guarded->suppkey_,
      GuardColumn(space, injector, store->column(C::kSuppkey), options));
  PMEMOLAP_ASSIGN_OR_RETURN(
      guarded->quantity_,
      GuardColumn(space, injector, store->column(C::kQuantity), options));
  PMEMOLAP_ASSIGN_OR_RETURN(
      guarded->discount_,
      GuardColumn(space, injector, store->column(C::kDiscount), options));
  PMEMOLAP_ASSIGN_OR_RETURN(
      guarded->extendedprice_,
      GuardColumn(space, injector, store->column(C::kExtendedprice), options));
  PMEMOLAP_ASSIGN_OR_RETURN(
      guarded->revenue_,
      GuardColumn(space, injector, store->column(C::kRevenue), options));
  PMEMOLAP_ASSIGN_OR_RETURN(
      guarded->supplycost_,
      GuardColumn(space, injector, store->column(C::kSupplycost), options));
  return guarded;
}

Result<int64_t> GuardedColumnStore::ScanDiscountedRevenue(
    int32_t discount_lo, int32_t discount_hi, int32_t quantity_below) {
  // Chunked column-at-a-time scan (the flight-1 shape): each column is
  // pulled through the guarded read path one batch at a time.
  constexpr size_t kBatchRows = 16 * 1024;
  std::vector<int32_t> quantity(kBatchRows);
  std::vector<int32_t> discount(kBatchRows);
  std::vector<int32_t> extendedprice(kBatchRows);
  int64_t sum = 0;
  for (size_t row = 0; row < rows_; row += kBatchRows) {
    const size_t n = std::min(kBatchRows, rows_ - row);
    const uint64_t offset = row * sizeof(int32_t);
    const uint64_t bytes = n * sizeof(int32_t);
    PMEMOLAP_RETURN_NOT_OK(quantity_->Read(
        offset, bytes, reinterpret_cast<std::byte*>(quantity.data())));
    PMEMOLAP_RETURN_NOT_OK(discount_->Read(
        offset, bytes, reinterpret_cast<std::byte*>(discount.data())));
    PMEMOLAP_RETURN_NOT_OK(extendedprice_->Read(
        offset, bytes, reinterpret_cast<std::byte*>(extendedprice.data())));
    for (size_t i = 0; i < n; ++i) {
      if (discount[i] >= discount_lo && discount[i] <= discount_hi &&
          quantity[i] < quantity_below) {
        sum += static_cast<int64_t>(extendedprice[i]) *
               static_cast<int64_t>(discount[i]);
      }
    }
  }
  return sum;
}

Result<uint64_t> GuardedColumnStore::ScrubAll() {
  uint64_t repaired = 0;
  GuardedTable* columns[] = {orderdate_.get(), custkey_.get(),
                             partkey_.get(),   suppkey_.get(),
                             quantity_.get(),  discount_.get(),
                             extendedprice_.get(), revenue_.get(),
                             supplycost_.get()};
  for (GuardedTable* column : columns) {
    PMEMOLAP_ASSIGN_OR_RETURN(uint64_t fixed, column->ScrubAll());
    repaired += fixed;
  }
  return repaired;
}

}  // namespace pmemolap
