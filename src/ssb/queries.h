// The 13 SSB queries: identifiers, flights, parameters, and the shared
// result representation used by the reference executor, the query engine,
// and the tests that cross-validate them.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pmemolap::ssb {

enum class QueryId {
  kQ1_1,
  kQ1_2,
  kQ1_3,
  kQ2_1,
  kQ2_2,
  kQ2_3,
  kQ3_1,
  kQ3_2,
  kQ3_3,
  kQ3_4,
  kQ4_1,
  kQ4_2,
  kQ4_3,
};

inline constexpr int kNumQueries = 13;

/// "Q1.1" etc.
std::string QueryName(QueryId query);

/// Query flight 1..4 (queries in a flight join the same tables).
int FlightOf(QueryId query);

/// All queries in benchmark order.
const std::vector<QueryId>& AllQueries();

/// Group-by key: up to three int32 components (unused components are 0).
/// Q1.x results are scalar; Q2.x use (year, brand); Q3.x use
/// (c_geo, s_geo, year); Q4.x use (year, geo[, category/brand]).
using GroupKey = std::array<int32_t, 3>;

/// Grouped aggregate: key -> sum. std::map gives deterministic ordering
/// for printing and comparison.
using GroupMap = std::map<GroupKey, int64_t>;

/// Result of one query: either a scalar sum (flight 1) or grouped sums.
struct QueryOutput {
  bool scalar = false;
  int64_t value = 0;
  GroupMap groups;

  bool operator==(const QueryOutput& other) const = default;

  /// Number of result rows (1 for scalars).
  size_t rows() const { return scalar ? 1 : groups.size(); }
};

/// Merges per-worker partial results into one output: scalar sums add,
/// group sums add per key. Aggregation is commutative, so the merge is
/// independent of worker/steal order — any parallel schedule produces the
/// same output.
QueryOutput MergeOutputs(const std::vector<QueryOutput>& parts);

}  // namespace pmemolap::ssb
