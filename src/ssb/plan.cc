#include "ssb/plan.h"

#include <algorithm>
#include <limits>

#include "ssb/schema.h"

namespace pmemolap::ssb {

namespace {

constexpr int kUnitedStates = 9;    // AMERICA nation index
constexpr int kUnitedKingdom = 19;  // EUROPE nation index
constexpr int kRegionAmerica = 1;
constexpr int kRegionAsia = 2;
constexpr int kRegionEurope = 3;

AttrTest Between(Attr attr, int32_t lo, int32_t hi) {
  return {attr, lo, hi, lo};
}
AttrTest Equals(Attr attr, int32_t value) {
  return Between(attr, value, value);
}
AttrTest EitherOf(Attr attr, int32_t a, int32_t b) { return {attr, a, a, b}; }

std::vector<QueryPlan> BuildPlans() {
  using C = LineorderColumn;
  const AttrTest uk_city = EitherOf(Attr::kCity, CityId(kUnitedKingdom, 1),
                                    CityId(kUnitedKingdom, 5));
  const AttrTest mfgr_1_or_2 = Between(Attr::kMfgr, 1, 2);
  const Join year_only{Dim::kDate, {}, Attr::kYear};
  auto year_in = [](int32_t lo, int32_t hi) {
    return Join{Dim::kDate, {Between(Attr::kYear, lo, hi)}, Attr::kYear};
  };
  auto flight1 = [](RangeFilter discount, RangeFilter quantity,
                    std::vector<AttrTest> date) {
    return QueryPlan{{discount, quantity},
                     {{Dim::kDate, std::move(date), std::nullopt}},
                     {},
                     Measure::kDiscountedPrice};
  };
  // Part (test, carry brand) -> supplier region -> date (carry year);
  // grouped by (year, brand).
  auto flight2 = [&](AttrTest part, int region) {
    return QueryPlan{{},
                     {{Dim::kPart, {part}, Attr::kBrand},
                      {Dim::kSupplier, {Equals(Attr::kRegion, region)}, {}},
                      year_only},
                     {1, 0},
                     Measure::kRevenue};
  };
  // Customer and supplier (same test, carry geo) -> date (carry year);
  // grouped by (customer geo, supplier geo, year).
  auto flight3 = [](AttrTest geo, Attr carry, Join date) {
    return QueryPlan{{},
                     {{Dim::kCustomer, {geo}, carry},
                      {Dim::kSupplier, {geo}, carry},
                      std::move(date)},
                     {0, 1, 2},
                     Measure::kRevenue};
  };
  const AttrTest america = Equals(Attr::kRegion, kRegionAmerica);
  const AttrTest asia = Equals(Attr::kRegion, kRegionAsia);
  const AttrTest us = Equals(Attr::kNation, kUnitedStates);
  // In QueryId order.
  return {
      // Q1.1–Q1.3: discount and quantity ranges, then one date probe.
      flight1({C::kDiscount, 1, 3},
              {C::kQuantity, std::numeric_limits<int32_t>::min(), 24},
              {Equals(Attr::kYear, 1993)}),
      flight1({C::kDiscount, 4, 6}, {C::kQuantity, 26, 35},
              {Equals(Attr::kYearMonthNum, 199401)}),
      flight1({C::kDiscount, 5, 7}, {C::kQuantity, 26, 35},
              {Equals(Attr::kWeekNumInYear, 6), Equals(Attr::kYear, 1994)}),
      // Q2.1–Q2.3.
      flight2(Equals(Attr::kCategory, CategoryId(1, 2)), kRegionAmerica),
      flight2(Between(Attr::kBrand, BrandId(2, 2, 21), BrandId(2, 2, 28)),
              kRegionAsia),
      flight2(Equals(Attr::kBrand, BrandId(2, 2, 39)), kRegionEurope),
      // Q3.1–Q3.4.
      flight3(asia, Attr::kNation, year_in(1992, 1997)),
      flight3(us, Attr::kCity, year_in(1992, 1997)),
      flight3(uk_city, Attr::kCity, year_in(1992, 1997)),
      flight3(uk_city, Attr::kCity,
              {Dim::kDate, {Equals(Attr::kYearMonthNum, 199712)}, Attr::kYear}),
      // Q4.1: grouped by (year, customer nation).
      {{},
       {{Dim::kCustomer, {america}, Attr::kNation},
        {Dim::kSupplier, {america}, {}},
        {Dim::kPart, {mfgr_1_or_2}, {}},
        year_only},
       {1, 0},
       Measure::kProfit},
      // Q4.2: grouped by (year, supplier nation, category).
      {{},
       {{Dim::kCustomer, {america}, {}},
        {Dim::kSupplier, {america}, Attr::kNation},
        {Dim::kPart, {mfgr_1_or_2}, Attr::kCategory},
        year_in(1997, 1998)},
       {2, 0, 1},
       Measure::kProfit},
      // Q4.3: grouped by (year, supplier city, brand).
      {{},
       {{Dim::kSupplier, {us}, Attr::kCity},
        {Dim::kPart, {Equals(Attr::kCategory, CategoryId(1, 4))}, Attr::kBrand},
        year_in(1997, 1998)},
       {2, 0, 1},
       Measure::kProfit},
  };
}

}  // namespace

const QueryPlan& PlanFor(QueryId query) {
  static const std::vector<QueryPlan> kPlans = BuildPlans();
  return kPlans[static_cast<size_t>(query)];
}

LineorderColumn KeyColumn(Dim dim) {
  switch (dim) {
    case Dim::kDate:
      return LineorderColumn::kOrderdate;
    case Dim::kCustomer:
      return LineorderColumn::kCustkey;
    case Dim::kSupplier:
      return LineorderColumn::kSuppkey;
    case Dim::kPart:
      return LineorderColumn::kPartkey;
  }
  return LineorderColumn::kOrderdate;
}

std::vector<LineorderColumn> MeasureColumns(Measure measure) {
  using C = LineorderColumn;
  switch (measure) {
    case Measure::kRevenue:
      return {C::kRevenue};
    case Measure::kProfit:
      return {C::kRevenue, C::kSupplycost};
    case Measure::kDiscountedPrice:
      return {C::kExtendedprice, C::kDiscount};
  }
  return {};
}

std::vector<LineorderColumn> ScanColumnsFor(QueryId query) {
  const QueryPlan& plan = PlanFor(query);
  std::vector<LineorderColumn> columns;
  auto add = [&columns](LineorderColumn column) {
    if (std::find(columns.begin(), columns.end(), column) == columns.end()) {
      columns.push_back(column);
    }
  };
  for (const RangeFilter& filter : plan.filters) add(filter.column);
  for (const Join& join : plan.joins) add(KeyColumn(join.dim));
  for (LineorderColumn column : MeasureColumns(plan.measure)) add(column);
  return columns;
}

}  // namespace pmemolap::ssb
