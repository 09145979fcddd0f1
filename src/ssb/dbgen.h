// Deterministic SSB data generator.
//
// Table cardinalities follow the SSB specification:
//   lineorder: 6,000,000 x sf       date: 2,556 (7 years, 1992-1998)
//   customer:     30,000 x sf       supplier: 2,000 x sf
//   part: 200,000 x (1 + floor(log2(sf))) for sf >= 1, scaled down for
//   fractional sf used in tests.
//
// All values derive from a seeded Rng, so the same (sf, seed) always
// produces byte-identical tables on every platform.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "ssb/schema.h"

namespace pmemolap::ssb {

struct DbgenConfig {
  double scale_factor = 0.01;
  uint64_t seed = 42;
  /// Zipf exponent for the fact table's foreign keys (0 = uniform, the
  /// SSB default). Skewed keys concentrate join traffic on hot dimension
  /// tuples — the partitioning challenge §6.2 flags ("e.g., due to skewed
  /// data").
  double key_skew = 0.0;
};

/// A fully generated SSB database in host memory.
struct Database {
  std::vector<DateRow> date;
  std::vector<CustomerRow> customer;
  std::vector<SupplierRow> supplier;
  std::vector<PartRow> part;
  std::vector<LineorderRow> lineorder;

  uint64_t FactBytes() const {
    return lineorder.size() * sizeof(LineorderRow);
  }
};

/// Cardinalities for a scale factor (exposed for capacity planning and
/// paper-scale projections without generating the data).
struct Cardinalities {
  uint64_t lineorder = 0;
  uint64_t customer = 0;
  uint64_t supplier = 0;
  uint64_t part = 0;
  uint64_t date = 0;
};
Cardinalities CardinalitiesFor(double scale_factor);

/// Generates the database. Fails for non-positive scale factors.
Result<Database> Generate(const DbgenConfig& config);

/// Checks that `rows` join: every row's orderdate, custkey, suppkey and
/// partkey matches a row of `db`'s date, customer, supplier and part
/// tables. InvalidArgument names the first row (index into `rows`) that
/// does not. Import and ingest run it, because the engine resolves keys
/// by direct indexing.
Status CheckForeignKeys(const Database& db, const LineorderRow* rows,
                        uint64_t count);

}  // namespace pmemolap::ssb
