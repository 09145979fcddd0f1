// Star Schema Benchmark schema (O'Neil et al.): one fact table `lineorder`
// and four dimensions `date`, `customer`, `supplier`, `part`.
//
// Categorical string attributes are stored as small integer codes (region
// 0-4, nation 0-24 with region = nation / 5, city 0-9 within a nation,
// brand hierarchy mfgr -> category -> brand1); display helpers render the
// benchmark's string forms ("ASIA", "MFGR#12", "UNITED KI1", ...).
//
// Lineorder rows are padded to 128 B, matching the paper's handcrafted SSB
// layout ("we align all fields to 128 Byte, which is slightly larger than
// the size of a tuple").
#pragma once

#include <cstdint>
#include <string>

namespace pmemolap::ssb {

inline constexpr int kNumRegions = 5;
inline constexpr int kNationsPerRegion = 5;
inline constexpr int kNumNations = kNumRegions * kNationsPerRegion;
inline constexpr int kCitiesPerNation = 10;
inline constexpr int kNumMfgrs = 5;
inline constexpr int kCategoriesPerMfgr = 5;
inline constexpr int kBrandsPerCategory = 40;

/// Region code of a nation.
constexpr int RegionOfNation(int nation) { return nation / kNationsPerRegion; }

/// Global city id (0 .. kNumNations * kCitiesPerNation - 1).
constexpr int CityId(int nation, int city_in_nation) {
  return nation * kCitiesPerNation + city_in_nation;
}

std::string NationName(int nation);
/// E.g. "UNITED ST3" — the nation name truncated to 9 chars + city digit.
std::string CityName(int city_id);

/// Encoded category id: mfgr * 10 + category (reads as the display digits).
constexpr int CategoryId(int mfgr, int category) {
  return mfgr * 10 + category;
}
/// Encoded brand id: category id * 100 + brand (1..40).
constexpr int BrandId(int mfgr, int category, int brand) {
  return CategoryId(mfgr, category) * 100 + brand;
}

struct DateRow {
  int32_t datekey = 0;        ///< yyyymmdd
  int32_t yearmonthnum = 0;   ///< yyyymm
  int16_t year = 0;           ///< 1992..1998
  int8_t monthnuminyear = 0;  ///< 1..12
  int8_t daynuminweek = 0;    ///< 1..7
  int8_t weeknuminyear = 0;   ///< 1..53

  bool operator==(const DateRow&) const = default;
};

struct CustomerRow {
  int32_t custkey = 0;
  uint8_t nation = 0;   ///< 0..24
  uint8_t region = 0;   ///< nation / 5
  uint8_t city = 0;     ///< 0..9 within the nation
  uint8_t mktsegment = 0;

  bool operator==(const CustomerRow&) const = default;
};

struct SupplierRow {
  int32_t suppkey = 0;
  uint8_t nation = 0;
  uint8_t region = 0;
  uint8_t city = 0;

  bool operator==(const SupplierRow&) const = default;
};

struct PartRow {
  int32_t partkey = 0;
  uint8_t mfgr = 0;      ///< 1..5
  uint8_t category = 0;  ///< 1..5 within the mfgr
  uint8_t brand = 0;     ///< 1..40 within the category
  uint8_t color = 0;
  uint8_t size = 0;

  int category_id() const { return CategoryId(mfgr, category); }
  int brand_id() const { return BrandId(mfgr, category, brand); }

  bool operator==(const PartRow&) const = default;
};

/// The fact table row, padded to 128 B (the paper's layout).
struct alignas(128) LineorderRow {
  int64_t orderkey = 0;
  int32_t linenumber = 0;
  int32_t custkey = 0;
  int32_t partkey = 0;
  int32_t suppkey = 0;
  int32_t orderdate = 0;   ///< datekey
  int32_t commitdate = 0;  ///< datekey
  int32_t quantity = 0;       ///< 1..50
  int32_t discount = 0;       ///< 0..10 (percent)
  int32_t extendedprice = 0;
  int32_t ordtotalprice = 0;
  int32_t revenue = 0;      ///< extendedprice * (100 - discount) / 100
  int32_t supplycost = 0;
  int32_t tax = 0;          ///< 0..8
  uint8_t shipmode = 0;
  uint8_t priority = 0;

  bool operator==(const LineorderRow&) const = default;
};
static_assert(sizeof(LineorderRow) == 128,
              "lineorder rows must be 128 B (paper layout)");

}  // namespace pmemolap::ssb
