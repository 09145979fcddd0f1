// QueryPlan — each of the 13 SSB queries written down once, as data: the
// fact-column range filters, the dimension joins in probe order (each
// with attribute tests and an optional carried attribute), the group key
// over the carried attributes, and the measure.
//
// The engine's one kernel executor runs these plans over every fact
// image, and scan pricing reads each query's columns from them.
// ReferenceExecutor stays hand-written as the independent oracle.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ssb/column_store.h"
#include "ssb/queries.h"

namespace pmemolap::ssb {

/// A dimension the fact table joins.
enum class Dim { kDate, kCustomer, kSupplier, kPart };

inline constexpr int kNumDims = 4;

/// The dimension attributes a join tests or carries. The geo attributes
/// belong to the customer or the supplier, whichever the join probes.
enum class Attr {
  kYear,
  kYearMonthNum,
  kWeekNumInYear,
  kRegion,
  kNation,
  kCity,  ///< the global CityId
  kMfgr,
  kCategory,  ///< CategoryId
  kBrand,     ///< BrandId
};

inline constexpr int kNumAttrs = 9;

/// Keeps the tuples with lo <= column <= hi.
struct RangeFilter {
  LineorderColumn column;
  int32_t lo;
  int32_t hi;
};

/// Passes when lo <= attr <= hi, or when attr == alt.
struct AttrTest {
  Attr attr;
  int32_t lo;
  int32_t hi;
  int32_t alt;
};

/// One probe stage: a tuple survives when every test passes on the
/// dimension row its key joins; `carry` is recorded for each survivor.
struct Join {
  Dim dim;
  std::vector<AttrTest> tests;
  std::optional<Attr> carry;
};

enum class Measure {
  kRevenue,          ///< revenue
  kProfit,           ///< revenue - supplycost
  kDiscountedPrice,  ///< extendedprice * discount
};

struct QueryPlan {
  /// Applied in order before any join.
  std::vector<RangeFilter> filters;
  /// Probed in order; each join probes only the previous stage's
  /// survivors, so the order fixes the probe counts the model prices.
  std::vector<Join> joins;
  /// Per group-key slot, an index into the carried attributes (in join
  /// order); unused slots are 0. Empty: one scalar sum.
  std::vector<int> group;
  Measure measure;

  bool scalar() const { return group.empty(); }
};

/// The plan of `query`.
const QueryPlan& PlanFor(QueryId query);

/// The fact column holding a dimension's join key.
LineorderColumn KeyColumn(Dim dim);

/// The fact columns a measure reads: one, or two for a product or a
/// difference.
std::vector<LineorderColumn> MeasureColumns(Measure measure);

/// The fact columns a query's scan touches: its filter, join-key and
/// measure columns, each once. Columnar scans are priced at 4 B per
/// column, encoded scans at each column's encoded width.
std::vector<LineorderColumn> ScanColumnsFor(QueryId query);

}  // namespace pmemolap::ssb
