#include "ssb/dbgen.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "common/zipf.h"

namespace pmemolap::ssb {

namespace {

constexpr int kStartYear = 1992;
constexpr int kNumYears = 7;  // 1992..1998

bool IsLeapYear(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int DaysInMonth(int year, int month) {
  static const int kDays[12] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (month == 2 && IsLeapYear(year)) return 29;
  return kDays[month - 1];
}

/// Generates the fixed 7-year date dimension with real calendar structure.
std::vector<DateRow> GenerateDates() {
  std::vector<DateRow> dates;
  // 1992-01-01 was a Wednesday => daynuminweek 1..7 with Monday = 1 gives 3.
  int day_of_week = 3;
  for (int year = kStartYear; year < kStartYear + kNumYears; ++year) {
    int day_of_year = 0;
    for (int month = 1; month <= 12; ++month) {
      for (int day = 1; day <= DaysInMonth(year, month); ++day) {
        ++day_of_year;
        DateRow row;
        row.datekey = year * 10000 + month * 100 + day;
        row.yearmonthnum = year * 100 + month;
        row.year = static_cast<int16_t>(year);
        row.monthnuminyear = static_cast<int8_t>(month);
        row.daynuminweek = static_cast<int8_t>(day_of_week);
        row.weeknuminyear = static_cast<int8_t>((day_of_year - 1) / 7 + 1);
        dates.push_back(row);
        day_of_week = day_of_week % 7 + 1;
      }
    }
  }
  return dates;
}

/// Draws the fact table one row per Next(), in order, from one Rng
/// stream. The draw state, the bounds and the pointers are members, fixed
/// at construction except for the order state.
class LineorderGenerator {
 public:
  /// A null Zipf sampler draws that key uniformly.
  LineorderGenerator(Rng rng, const std::vector<DateRow>& dates,
                     const Cardinalities& cards, const ZipfSampler* cust_zipf,
                     const ZipfSampler* supp_zipf,
                     const ZipfSampler* part_zipf)
      : rng_(rng),
        dates_(dates.data()),
        num_dates_(dates.size()),
        customers_(cards.customer),
        suppliers_(cards.supplier),
        parts_(cards.part),
        cust_zipf_(cust_zipf),
        supp_zipf_(supp_zipf),
        part_zipf_(part_zipf) {}

  void Next(LineorderRow* row) {
    if (lines_left_ == 0) {
      ++order_;
      lines_left_ = static_cast<int>(1 + rng_.NextBelow(7));
      linenumber_ = 0;
      ordtotalprice_ = 0;
    }
    --lines_left_;
    ++linenumber_;

    row->orderkey = static_cast<int64_t>(order_);
    row->linenumber = linenumber_;
    row->custkey = PickKey(cust_zipf_, customers_);
    row->partkey = PickKey(part_zipf_, parts_);
    row->suppkey = PickKey(supp_zipf_, suppliers_);
    row->orderdate = dates_[rng_.NextBelow(num_dates_)].datekey;
    row->commitdate = dates_[rng_.NextBelow(num_dates_)].datekey;
    row->quantity = static_cast<int32_t>(1 + rng_.NextBelow(50));
    row->discount = static_cast<int32_t>(rng_.NextBelow(11));
    // Unit price 90..110k cents-ish, as in SSB's derived pricing.
    const int32_t unit_price =
        static_cast<int32_t>(90 + rng_.NextBelow(110'000));
    row->extendedprice = row->quantity * (unit_price / 10 + 100);
    row->revenue = row->extendedprice * (100 - row->discount) / 100;
    row->supplycost = row->extendedprice * 6 / 10 / row->quantity;
    row->tax = static_cast<int32_t>(rng_.NextBelow(9));
    ordtotalprice_ += row->extendedprice;
    row->ordtotalprice = ordtotalprice_;
    row->shipmode = static_cast<uint8_t>(rng_.NextBelow(7));
    row->priority = static_cast<uint8_t>(rng_.NextBelow(5));
  }

 private:
  int32_t PickKey(const ZipfSampler* zipf, uint64_t cardinality) {
    if (zipf == nullptr) {
      return static_cast<int32_t>(1 + rng_.NextBelow(cardinality));
    }
    // The sampled rank is scrambled with a fixed odd-multiplier
    // permutation over [0, cardinality), so hot keys spread over the key
    // space instead of clustering at 1..k.
    const uint64_t rank = zipf->Sample(rng_);
    return static_cast<int32_t>(1 + (rank * 2654435761ULL + 7) % cardinality);
  }

  Rng rng_;
  const DateRow* dates_;
  uint64_t num_dates_;
  uint64_t customers_;
  uint64_t suppliers_;
  uint64_t parts_;
  const ZipfSampler* cust_zipf_;
  const ZipfSampler* supp_zipf_;
  const ZipfSampler* part_zipf_;
  uint64_t order_ = 0;
  int lines_left_ = 0;
  int linenumber_ = 0;
  int32_t ordtotalprice_ = 0;
};

std::vector<LineorderRow> GenerateLineorder(LineorderGenerator* generator,
                                            uint64_t count) {
  std::vector<LineorderRow> rows;
  rows.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    // A temporary that Next fills whole compiles to field stores straight
    // into the vector's slot (the padding stays unwritten); emplace_back()
    // would zero-fill all 128 B of every slot first.
    LineorderRow row;
    generator->Next(&row);
    rows.push_back(row);
  }
  return rows;
}

/// Membership over one dimension's keys: a bitmap over [lo, hi].
class KeySet {
 public:
  template <typename Rows, typename KeyOf>
  KeySet(const Rows& rows, KeyOf key_of) {
    if (rows.empty()) return;
    int64_t hi = key_of(rows.front());
    lo_ = hi;
    for (const auto& row : rows) {
      lo_ = std::min<int64_t>(lo_, key_of(row));
      hi = std::max<int64_t>(hi, key_of(row));
    }
    present_.assign(static_cast<size_t>(hi - lo_) + 1, false);
    for (const auto& row : rows) {
      present_[static_cast<size_t>(key_of(row) - lo_)] = true;
    }
  }

  bool Contains(int32_t key) const {
    const int64_t at = int64_t{key} - lo_;
    return at >= 0 && at < static_cast<int64_t>(present_.size()) &&
           present_[static_cast<size_t>(at)];
  }

 private:
  int64_t lo_ = 0;
  std::vector<bool> present_;
};

}  // namespace

Status CheckForeignKeys(const Database& db, const LineorderRow* rows,
                        uint64_t count) {
  const KeySet dates(db.date, [](const DateRow& d) { return d.datekey; });
  const KeySet customers(db.customer,
                         [](const CustomerRow& c) { return c.custkey; });
  const KeySet suppliers(db.supplier,
                         [](const SupplierRow& s) { return s.suppkey; });
  const KeySet parts(db.part, [](const PartRow& p) { return p.partkey; });
  auto dangling = [](uint64_t i, const char* column, int32_t key) {
    return Status::InvalidArgument(
        "lineorder row " + std::to_string(i) + ": " + column + " " +
        std::to_string(key) + " matches no dimension row");
  };
  for (uint64_t i = 0; i < count; ++i) {
    const LineorderRow& row = rows[i];
    if (!dates.Contains(row.orderdate)) {
      return dangling(i, "orderdate", row.orderdate);
    }
    if (!customers.Contains(row.custkey)) {
      return dangling(i, "custkey", row.custkey);
    }
    if (!suppliers.Contains(row.suppkey)) {
      return dangling(i, "suppkey", row.suppkey);
    }
    if (!parts.Contains(row.partkey)) {
      return dangling(i, "partkey", row.partkey);
    }
  }
  return Status::OK();
}

Cardinalities CardinalitiesFor(double scale_factor) {
  Cardinalities cards;
  // 7 calendar years 1992-1998 with the leap days of 1992 and 1996; the
  // SSB spec quotes "~2556" days.
  cards.date = 2557;
  cards.lineorder = static_cast<uint64_t>(
      std::llround(6'000'000.0 * scale_factor));
  cards.customer = std::max<uint64_t>(
      10, static_cast<uint64_t>(std::llround(30'000.0 * scale_factor)));
  cards.supplier = std::max<uint64_t>(
      5, static_cast<uint64_t>(std::llround(2'000.0 * scale_factor)));
  if (scale_factor >= 1.0) {
    cards.part = static_cast<uint64_t>(
        200'000.0 * (1.0 + std::floor(std::log2(scale_factor))));
  } else {
    cards.part = std::max<uint64_t>(
        50, static_cast<uint64_t>(std::llround(200'000.0 * scale_factor)));
  }
  return cards;
}

Result<Database> Generate(const DbgenConfig& config) {
  if (config.scale_factor <= 0.0) {
    return Status::InvalidArgument("scale factor must be positive");
  }
  Cardinalities cards = CardinalitiesFor(config.scale_factor);
  Rng root(config.seed);

  Database db;
  db.date = GenerateDates();
  if (db.date.size() != cards.date) {
    return Status::Internal("date dimension cardinality mismatch");
  }

  Rng cust_rng = root.Fork(1);
  db.customer.reserve(cards.customer);
  for (uint64_t i = 0; i < cards.customer; ++i) {
    CustomerRow row;
    row.custkey = static_cast<int32_t>(i + 1);
    row.nation = static_cast<uint8_t>(cust_rng.NextBelow(kNumNations));
    row.region = static_cast<uint8_t>(RegionOfNation(row.nation));
    row.city = static_cast<uint8_t>(cust_rng.NextBelow(kCitiesPerNation));
    row.mktsegment = static_cast<uint8_t>(cust_rng.NextBelow(5));
    db.customer.push_back(row);
  }

  Rng supp_rng = root.Fork(2);
  db.supplier.reserve(cards.supplier);
  for (uint64_t i = 0; i < cards.supplier; ++i) {
    SupplierRow row;
    row.suppkey = static_cast<int32_t>(i + 1);
    row.nation = static_cast<uint8_t>(supp_rng.NextBelow(kNumNations));
    row.region = static_cast<uint8_t>(RegionOfNation(row.nation));
    row.city = static_cast<uint8_t>(supp_rng.NextBelow(kCitiesPerNation));
    db.supplier.push_back(row);
  }

  Rng part_rng = root.Fork(3);
  db.part.reserve(cards.part);
  for (uint64_t i = 0; i < cards.part; ++i) {
    PartRow row;
    row.partkey = static_cast<int32_t>(i + 1);
    row.mfgr = static_cast<uint8_t>(1 + part_rng.NextBelow(kNumMfgrs));
    row.category =
        static_cast<uint8_t>(1 + part_rng.NextBelow(kCategoriesPerMfgr));
    row.brand =
        static_cast<uint8_t>(1 + part_rng.NextBelow(kBrandsPerCategory));
    row.color = static_cast<uint8_t>(part_rng.NextBelow(92));
    row.size = static_cast<uint8_t>(1 + part_rng.NextBelow(50));
    db.part.push_back(row);
  }

  // Skewed foreign keys (key_skew > 0): hot customers/suppliers/parts
  // receive Zipf-distributed shares of the fact tuples.
  std::unique_ptr<ZipfSampler> cust_zipf;
  std::unique_ptr<ZipfSampler> supp_zipf;
  std::unique_ptr<ZipfSampler> part_zipf;
  if (config.key_skew > 0.0) {
    cust_zipf = std::make_unique<ZipfSampler>(cards.customer,
                                              config.key_skew);
    supp_zipf = std::make_unique<ZipfSampler>(cards.supplier,
                                              config.key_skew);
    part_zipf = std::make_unique<ZipfSampler>(cards.part, config.key_skew);
  }
  LineorderGenerator lineorder(root.Fork(4), db.date, cards, cust_zipf.get(),
                               supp_zipf.get(), part_zipf.get());
  db.lineorder = GenerateLineorder(&lineorder, cards.lineorder);
  return db;
}

}  // namespace pmemolap::ssb
