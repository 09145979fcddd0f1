// The plan executor over every fact image and odd morsel cuts: the raw
// columns, the encoded store and the row image must each answer all 13
// queries like the reference executor, and do exactly the raw whole-table
// run's probe and aggregate work, however the table is cut into morsels.
// Cuts of 31 and 33 tuples cross the encoded store's 32-value frames
// mid-frame, and a 1-tuple cut gathers at a single selected tuple. Every
// plan must also fit the executor's fixed shapes.
#include "engine/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "ssb/reference.h"

namespace pmemolap {
namespace {

using ssb::QueryId;

struct DenseMaps {
  DenseDimMap date, customer, supplier, part;
};

/// The engine's dense maps over `db`: key -> encoded payload.
DenseMaps BuildMaps(const ssb::Database& db) {
  DenseMaps maps;
  maps.date.Build(db.date);
  auto build = [](DenseDimMap* map, const auto& rows, auto key, auto payload) {
    std::vector<int32_t> keys;
    std::vector<uint64_t> payloads;
    for (const auto& row : rows) {
      keys.push_back(key(row));
      payloads.push_back(payload(row));
    }
    map->Build(keys, payloads);
  };
  build(
      &maps.customer, db.customer,
      [](const ssb::CustomerRow& c) { return c.custkey; },
      [](const ssb::CustomerRow& c) {
        return EncodeGeo(c.nation, c.region, c.city);
      });
  build(
      &maps.supplier, db.supplier,
      [](const ssb::SupplierRow& s) { return s.suppkey; },
      [](const ssb::SupplierRow& s) {
        return EncodeGeo(s.nation, s.region, s.city);
      });
  build(
      &maps.part, db.part, [](const ssb::PartRow& p) { return p.partkey; },
      [](const ssb::PartRow& p) { return EncodePart(p); });
  return maps;
}

enum class Image { kRaw, kEncoded, kRows };

const char* ImageName(Image image) {
  switch (image) {
    case Image::kRaw:
      return "raw";
    case Image::kEncoded:
      return "encoded";
    case Image::kRows:
      return "rows";
  }
  return "?";
}

bool SameWork(const KernelCounters& a, const KernelCounters& b) {
  return a.probes == b.probes && a.qualifying == b.qualifying;
}

TEST(KernelPlanTest, EveryPlanFitsTheExecutor) {
  for (QueryId query : ssb::AllQueries()) {
    const ssb::QueryPlan& plan = ssb::PlanFor(query);
    EXPECT_FALSE(plan.joins.empty()) << ssb::QueryName(query);
    int carried = 0;
    for (const ssb::Join& join : plan.joins) {
      EXPECT_LE(join.tests.size(), static_cast<size_t>(kMaxTests))
          << ssb::QueryName(query);
      carried += join.carry.has_value() ? 1 : 0;
    }
    EXPECT_LE(carried, kMaxCarried) << ssb::QueryName(query);
    EXPECT_LE(plan.group.size(), std::tuple_size_v<ssb::GroupKey>)
        << ssb::QueryName(query);
    for (int slot : plan.group) {
      EXPECT_GE(slot, 0) << ssb::QueryName(query);
      EXPECT_LT(slot, carried) << ssb::QueryName(query);
    }
    EXPECT_LE(ssb::MeasureColumns(plan.measure).size(),
              static_cast<size_t>(kMaxMeasureColumns))
        << ssb::QueryName(query);
  }
}

TEST(KernelPlanTest, EveryImageAndMorselCutMatchesTheReference) {
  const ssb::Database db = *ssb::Generate({.scale_factor = 0.005, .seed = 7});
  const ssb::ReferenceExecutor reference(&db);
  const ssb::ColumnStore columns(db.lineorder);
  const ssb::EncodedColumnStore encoded(columns);
  const DenseMaps maps = BuildMaps(db);
  const uint64_t rows = db.lineorder.size();
  ASSERT_GT(rows, 4095u);

  // Runs `query` over `image` in morsels of `cut` tuples.
  auto run = [&](QueryId query, Image image, uint64_t cut,
                 KernelCounters* counters) {
    KernelScratch scratch;
    AggTable groups;
    ssb::QueryOutput out;
    for (uint64_t begin = 0; begin < rows; begin += cut) {
      const uint64_t end = std::min(rows, begin + cut);
      KernelContext ctx{&columns,       nullptr,         &maps.date,
                        &maps.customer, &maps.supplier, &maps.part};
      if (image == Image::kEncoded) ctx.encoded = &encoded;
      if (image == Image::kRows) ctx.rows = db.lineorder.data() + begin;
      ExecuteMorselKernel(query, ctx, begin, end, &scratch, &groups,
                          &out.value, &out.scalar, counters);
    }
    groups.MergeInto(&out.groups);
    return out;
  };

  for (QueryId query : ssb::AllQueries()) {
    const ssb::QueryOutput expected = reference.Execute(query);
    KernelCounters whole;
    ASSERT_EQ(run(query, Image::kRaw, rows, &whole), expected)
        << ssb::QueryName(query);
    for (Image image : {Image::kRaw, Image::kEncoded, Image::kRows}) {
      for (uint64_t cut : {uint64_t{1}, uint64_t{31}, uint64_t{33},
                           uint64_t{4095}, rows}) {
        const std::string what = ssb::QueryName(query) + " " +
                                 ImageName(image) + " cut " +
                                 std::to_string(cut);
        KernelCounters counters;
        EXPECT_EQ(run(query, image, cut, &counters), expected) << what;
        EXPECT_TRUE(SameWork(counters, whole)) << what;
      }
    }
  }
}

}  // namespace
}  // namespace pmemolap
