#include "ssb/queries.h"

namespace pmemolap::ssb {

std::string QueryName(QueryId query) {
  switch (query) {
    case QueryId::kQ1_1:
      return "Q1.1";
    case QueryId::kQ1_2:
      return "Q1.2";
    case QueryId::kQ1_3:
      return "Q1.3";
    case QueryId::kQ2_1:
      return "Q2.1";
    case QueryId::kQ2_2:
      return "Q2.2";
    case QueryId::kQ2_3:
      return "Q2.3";
    case QueryId::kQ3_1:
      return "Q3.1";
    case QueryId::kQ3_2:
      return "Q3.2";
    case QueryId::kQ3_3:
      return "Q3.3";
    case QueryId::kQ3_4:
      return "Q3.4";
    case QueryId::kQ4_1:
      return "Q4.1";
    case QueryId::kQ4_2:
      return "Q4.2";
    case QueryId::kQ4_3:
      return "Q4.3";
  }
  return "Q?";
}

int FlightOf(QueryId query) {
  switch (query) {
    case QueryId::kQ1_1:
    case QueryId::kQ1_2:
    case QueryId::kQ1_3:
      return 1;
    case QueryId::kQ2_1:
    case QueryId::kQ2_2:
    case QueryId::kQ2_3:
      return 2;
    case QueryId::kQ3_1:
    case QueryId::kQ3_2:
    case QueryId::kQ3_3:
    case QueryId::kQ3_4:
      return 3;
    case QueryId::kQ4_1:
    case QueryId::kQ4_2:
    case QueryId::kQ4_3:
      return 4;
  }
  return 0;
}

const std::vector<QueryId>& AllQueries() {
  static const std::vector<QueryId> kAll = {
      QueryId::kQ1_1, QueryId::kQ1_2, QueryId::kQ1_3, QueryId::kQ2_1,
      QueryId::kQ2_2, QueryId::kQ2_3, QueryId::kQ3_1, QueryId::kQ3_2,
      QueryId::kQ3_3, QueryId::kQ3_4, QueryId::kQ4_1, QueryId::kQ4_2,
      QueryId::kQ4_3};
  return kAll;
}

QueryOutput MergeOutputs(const std::vector<QueryOutput>& parts) {
  QueryOutput merged;
  for (const QueryOutput& part : parts) {
    if (part.scalar) {
      merged.scalar = true;
      merged.value += part.value;
    }
    for (const auto& [key, value] : part.groups) {
      merged.groups[key] += value;
    }
  }
  return merged;
}

}  // namespace pmemolap::ssb
