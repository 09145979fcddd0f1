#include "ssb/schema.h"

#include <gtest/gtest.h>

namespace pmemolap::ssb {
namespace {

TEST(SchemaTest, LineorderRowIsPaperAligned) {
  EXPECT_EQ(sizeof(LineorderRow), 128u);
  EXPECT_EQ(alignof(LineorderRow), 128u);
}

TEST(SchemaTest, RegionOfNation) {
  EXPECT_EQ(RegionOfNation(0), 0);   // ALGERIA -> AFRICA
  EXPECT_EQ(RegionOfNation(9), 1);   // UNITED STATES -> AMERICA
  EXPECT_EQ(RegionOfNation(12), 2);  // INDONESIA -> ASIA
  EXPECT_EQ(RegionOfNation(19), 3);  // UNITED KINGDOM -> EUROPE
  EXPECT_EQ(RegionOfNation(24), 4);  // SAUDI ARABIA -> MIDDLE EAST
}

TEST(SchemaTest, NationNames) {
  EXPECT_EQ(NationName(9), "UNITED STATES");
  EXPECT_EQ(NationName(19), "UNITED KINGDOM");
  EXPECT_EQ(NationName(10), "CHINA");
  EXPECT_EQ(NationName(99), "UNKNOWN");
}

TEST(SchemaTest, CityNamesMatchSsbFormat) {
  // SSB cities: 9-char nation prefix + digit. "UNITED KI1" is the famous
  // Q3.3 city.
  EXPECT_EQ(CityName(CityId(19, 1)), "UNITED KI1");
  EXPECT_EQ(CityName(CityId(19, 5)), "UNITED KI5");
  EXPECT_EQ(CityName(CityId(9, 3)), "UNITED ST3");
  // Short nation names are space-padded.
  EXPECT_EQ(CityName(CityId(2, 0)), "KENYA    0");
}

TEST(SchemaTest, BrandAndCategoryIds) {
  // Encoded ids read like the display digits: "MFGR#12" -> 12,
  // "MFGR#2221" -> 2221.
  EXPECT_EQ(CategoryId(1, 2), 12);
  EXPECT_EQ(BrandId(2, 2, 21), 2221);
  EXPECT_EQ(BrandId(2, 2, 39), 2239);
  PartRow part;
  part.mfgr = 1;
  part.category = 2;
  part.brand = 40;
  EXPECT_EQ(part.category_id(), 12);
  EXPECT_EQ(part.brand_id(), 1240);
}

TEST(SchemaTest, BrandIdRangesDisjointPerCategory) {
  // Q2.2's range predicate (brand between 2221 and 2228) must not leak
  // into neighboring categories.
  EXPECT_LT(BrandId(2, 1, 40), BrandId(2, 2, 1));
  EXPECT_LT(BrandId(2, 2, 40), BrandId(2, 3, 1));
}

TEST(SchemaTest, CityIdRoundTrip) {
  for (int nation = 0; nation < kNumNations; ++nation) {
    for (int city = 0; city < kCitiesPerNation; ++city) {
      int id = CityId(nation, city);
      EXPECT_EQ(id / kCitiesPerNation, nation);
      EXPECT_EQ(id % kCitiesPerNation, city);
    }
  }
}

}  // namespace
}  // namespace pmemolap::ssb
