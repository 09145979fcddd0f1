#include "encoding/encoding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ssb/dbgen.h"
#include "ssb/encoded_column_store.h"
#include "ssb/plan.h"

namespace pmemolap::encoding {
namespace {

constexpr int32_t kInt32Min = std::numeric_limits<int32_t>::min();
constexpr int32_t kInt32Max = std::numeric_limits<int32_t>::max();

/// Uniform integer in [lo, hi] inclusive.
int64_t InRange(Rng& rng, int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(
                  rng.NextBelow(static_cast<uint64_t>(hi - lo + 1)));
}

/// Scalar reference for the predicate fast paths.
std::vector<uint64_t> ReferenceMatches(const std::vector<int32_t>& values,
                                       int32_t lo, int32_t hi,
                                       uint64_t begin, uint64_t end) {
  std::vector<uint64_t> sel;
  for (uint64_t i = begin; i < end && i < values.size(); ++i) {
    if (values[i] >= lo && values[i] <= hi) sel.push_back(i);
  }
  return sel;
}

void ExpectRoundTrip(const EncodedColumn& column,
                     const std::vector<int32_t>& values) {
  ASSERT_EQ(column.size(), values.size());
  // Point access.
  for (uint64_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(column.Get(i), values[i]) << "index " << i;
  }
  // Block decode of the whole column and of unaligned sub-ranges.
  std::vector<int32_t> decoded(values.size());
  column.Decode(0, values.size(), decoded.data());
  EXPECT_EQ(decoded, values);
  if (values.size() > 3) {
    const uint64_t begin = 1;
    const uint64_t end = values.size() - 2;
    std::vector<int32_t> part(end - begin);
    column.Decode(begin, end, part.data());
    for (uint64_t i = begin; i < end; ++i) {
      ASSERT_EQ(part[i - begin], values[i]) << "index " << i;
    }
  }
}

// --- round-trip property tests ---------------------------------------------

TEST(EncodingRoundTrip, AllWidthsForBitPack) {
  Rng rng(7);
  // Every code width 1..32: domains of size 2^w, with a random (possibly
  // negative) base so references exercise the full int32 range.
  for (int width = 1; width <= 32; ++width) {
    const uint64_t domain =
        width == 32 ? 0 : (uint64_t{1} << width);  // 0 = full uint32 wrap
    std::vector<int32_t> values(3 * kFrameValues + 7);
    const int64_t base =
        width == 32 ? kInt32Min
                    : InRange(rng, kInt32Min,
                                      kInt32Max - static_cast<int64_t>(
                                                      domain == 0 ? 0
                                                                  : domain -
                                                                        1));
    for (int32_t& v : values) {
      const uint64_t offset =
          domain == 0 ? rng.Next() & 0xFFFFFFFFull : rng.NextBelow(domain);
      v = static_cast<int32_t>(base + static_cast<int64_t>(offset));
    }
    EncodedColumn column = EncodedColumn::EncodeWith(Scheme::kForBitPack,
                                                     values);
    ASSERT_NO_FATAL_FAILURE(ExpectRoundTrip(column, values))
        << "width " << width;
  }
}

TEST(EncodingRoundTrip, AllSchemesOnRandomDomains) {
  Rng rng(21);
  for (int round = 0; round < 20; ++round) {
    Rng local = rng.Fork(static_cast<uint64_t>(round));
    const uint64_t n = local.NextBelow(5 * kFrameValues) + 1;
    const int64_t lo = InRange(local, -1'000'000, 1'000'000);
    const int64_t hi = lo + static_cast<int64_t>(local.NextBelow(100'000));
    std::vector<int32_t> values(n);
    for (int32_t& v : values) {
      v = static_cast<int32_t>(InRange(local, lo, hi));
    }
    for (Scheme scheme :
         {Scheme::kRaw, Scheme::kForBitPack, Scheme::kDictionary}) {
      EncodedColumn column = EncodedColumn::EncodeWith(scheme, values);
      EXPECT_EQ(column.scheme(), scheme);
      ASSERT_NO_FATAL_FAILURE(ExpectRoundTrip(column, values))
          << SchemeName(scheme) << " round " << round;
    }
    // The automatic pick round-trips too, whatever it chose.
    EncodedColumn best = EncodedColumn::Encode(values);
    ASSERT_NO_FATAL_FAILURE(ExpectRoundTrip(best, values));
  }
}

TEST(EncodingRoundTrip, FrameBoundaries) {
  // Sizes straddling frame boundaries, including empty and single-value.
  for (uint64_t n : {uint64_t{0}, uint64_t{1}, kFrameValues - 1,
                     kFrameValues, kFrameValues + 1, 2 * kFrameValues,
                     2 * kFrameValues + 1}) {
    std::vector<int32_t> values(n);
    for (uint64_t i = 0; i < n; ++i) {
      values[i] = static_cast<int32_t>(i * 3 % 97);
    }
    EncodedColumn column = EncodedColumn::Encode(values);
    ASSERT_NO_FATAL_FAILURE(ExpectRoundTrip(column, values)) << "n " << n;
  }
}

TEST(EncodingRoundTrip, ConstantColumnPacksToDirectoryOnly) {
  std::vector<int32_t> values(4 * kFrameValues, -123456);
  EncodedColumn column = EncodedColumn::EncodeWith(Scheme::kForBitPack,
                                                   values);
  ExpectRoundTrip(column, values);
  // Width-0 frames carry no packed words: only the frame directory.
  EXPECT_LT(column.EncodedBytes(), values.size());
}

TEST(EncodingRoundTrip, ExtremeValues) {
  std::vector<int32_t> values = {kInt32Min, kInt32Max, 0, -1, 1,
                                 kInt32Min, kInt32Max};
  for (Scheme scheme :
       {Scheme::kRaw, Scheme::kForBitPack, Scheme::kDictionary}) {
    EncodedColumn column = EncodedColumn::EncodeWith(scheme, values);
    ASSERT_NO_FATAL_FAILURE(ExpectRoundTrip(column, values))
        << SchemeName(scheme);
  }
}

// --- scheme selection -------------------------------------------------------

TEST(EncodingSelection, NarrowRangePicksForBitPack) {
  Rng rng(3);
  std::vector<int32_t> values(10 * kFrameValues);
  for (int32_t& v : values) {
    v = static_cast<int32_t>(InRange(rng, 1, 50));  // quantity-like
  }
  EncodedColumn column = EncodedColumn::Encode(values);
  EXPECT_EQ(column.scheme(), Scheme::kForBitPack);
  EXPECT_GT(column.CompressionRatio(), 3.0);
}

TEST(EncodingSelection, LowCardinalityWideValuesPickDictionary) {
  Rng rng(5);
  // 16 distinct values scattered over the full int32 range: FoR frames
  // stay wide (the spread inside a frame is huge) but 16 dictionary codes
  // need only 4 bits.
  std::vector<int32_t> domain(16);
  for (int32_t& v : domain) {
    v = static_cast<int32_t>(InRange(rng, kInt32Min, kInt32Max));
  }
  std::vector<int32_t> values(10 * kFrameValues);
  for (int32_t& v : values) {
    v = domain[rng.NextBelow(domain.size())];
  }
  EncodedColumn column = EncodedColumn::Encode(values);
  EXPECT_EQ(column.scheme(), Scheme::kDictionary);
  EXPECT_GT(column.CompressionRatio(), 3.0);
}

TEST(EncodingSelection, IncompressiblePicksRaw) {
  Rng rng(9);
  // Full-range random values: every frame spans ~32 bits and nearly every
  // value is distinct, so both encodings cost more than 4 B/value.
  std::vector<int32_t> values(10 * kFrameValues);
  for (int32_t& v : values) {
    v = static_cast<int32_t>(InRange(rng, kInt32Min, kInt32Max));
  }
  EncodedColumn column = EncodedColumn::Encode(values);
  EXPECT_EQ(column.scheme(), Scheme::kRaw);
  EXPECT_EQ(column.EncodedBytes(), column.RawBytes());
}

/// The selection Encode must reproduce: build all three schemes and keep
/// the smallest, ties preferring FoR, then dictionary, then raw.
EncodedColumn ExhaustiveTrial(const std::vector<int32_t>& values) {
  EncodedColumn best =
      EncodedColumn::EncodeWith(Scheme::kForBitPack, values);
  for (Scheme scheme : {Scheme::kDictionary, Scheme::kRaw}) {
    EncodedColumn next = EncodedColumn::EncodeWith(scheme, values);
    if (next.EncodedBytes() < best.EncodedBytes()) best = std::move(next);
  }
  return best;
}

/// The dictionary by definition: the sorted distinct values, each value
/// coded by its lower_bound position among them.
void ExpectReferenceDictionary(const std::vector<int32_t>& values) {
  const EncodedColumn column =
      EncodedColumn::EncodeWith(Scheme::kDictionary, values);
  std::vector<int32_t> entries = values;
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  ASSERT_EQ(column.dictionary(), entries);
  // The entries are distinct, so the value a code decodes to pins the
  // code: decoding to the reference position's entry means the stored
  // code is that position.
  for (uint64_t i = 0; i < values.size(); ++i) {
    const auto code =
        std::lower_bound(entries.begin(), entries.end(), values[i]) -
        entries.begin();
    ASSERT_EQ(column.Get(i), entries[static_cast<size_t>(code)])
        << "index " << i;
  }
}

TEST(EncodingSelection, EncodeMatchesTheExhaustiveTrial) {
  Rng rng(71);
  struct Input {
    std::string name;
    std::vector<int32_t> values;
  };
  std::vector<Input> inputs;
  auto uniform = [&](uint64_t n, int64_t lo, int64_t hi) {
    std::vector<int32_t> values(n);
    for (int32_t& v : values) {
      v = static_cast<int32_t>(InRange(rng, lo, hi));
    }
    return values;
  };
  auto drawn_from = [&](uint64_t n, const std::vector<int32_t>& domain) {
    std::vector<int32_t> values(n);
    for (int32_t& v : values) v = domain[rng.NextBelow(domain.size())];
    return values;
  };
  const std::vector<int32_t> wide = uniform(16, kInt32Min, kInt32Max);
  const std::vector<int32_t> clustered = uniform(8, 0, 60'000);
  for (uint64_t n : {uint64_t{1}, uint64_t{31}, uint64_t{32}, uint64_t{33},
                     uint64_t{4095}}) {
    // Spans above 32 bits per value take the rank's sorted path.
    inputs.push_back({"full-range", uniform(n, kInt32Min, kInt32Max)});
    inputs.push_back(
        {"int32-extremes", drawn_from(n, {kInt32Min, kInt32Max})});
    inputs.push_back({"low-cardinality-wide", drawn_from(n, wide)});
    inputs.push_back({"constant", std::vector<int32_t>(n, -77)});
    inputs.push_back({"clustered", drawn_from(n, clustered)});
    inputs.push_back({"narrow", uniform(n, -50, 50)});
    inputs.push_back(
        {"near-int32-min", uniform(n, kInt32Min, kInt32Min + 999)});
    inputs.push_back(
        {"near-int32-max", uniform(n, kInt32Max - 999, kInt32Max)});
  }
  // Exact ties, each broken by the scheme order.
  auto bytes = [](Scheme scheme, const std::vector<int32_t>& values) {
    return EncodedColumn::EncodeWith(scheme, values).EncodedBytes();
  };
  // FoR = dictionary: two values 4 apart in one frame cost 9 + 8 B either
  // way (3-bit FoR codes; 1-bit codes plus two 4 B entries).
  std::vector<int32_t> for_ties_dict(kFrameValues);
  for (uint64_t i = 0; i < kFrameValues; ++i) {
    for_ties_dict[i] = static_cast<int32_t>(4 * (i % 2));
  }
  EXPECT_EQ(bytes(Scheme::kForBitPack, for_ties_dict),
            bytes(Scheme::kDictionary, for_ties_dict));
  inputs.push_back({"for-ties-dictionary", for_ties_dict});
  // Dictionary = raw: 87 wide values over 4 frames, each frame holding the
  // smallest and largest, cost 4 * 87 + 4 * 9 + 16 * 8 = 512 = 4 * 128.
  std::vector<int32_t> dict_domain = uniform(87, kInt32Min, kInt32Max);
  std::sort(dict_domain.begin(), dict_domain.end());
  dict_domain.erase(std::unique(dict_domain.begin(), dict_domain.end()),
                    dict_domain.end());
  ASSERT_EQ(dict_domain.size(), 87u);
  std::vector<int32_t> dict_ties_raw(4 * kFrameValues);
  for (uint64_t i = 0, next = 0; i < dict_ties_raw.size(); ++i) {
    const uint64_t slot = i % kFrameValues;
    dict_ties_raw[i] =
        dict_domain[slot == 0 ? 0 : slot == 1 ? 86 : 1 + next++ % 85];
  }
  EXPECT_EQ(bytes(Scheme::kDictionary, dict_ties_raw),
            bytes(Scheme::kRaw, dict_ties_raw));
  EXPECT_GT(bytes(Scheme::kForBitPack, dict_ties_raw),
            bytes(Scheme::kRaw, dict_ties_raw));
  inputs.push_back({"dictionary-ties-raw", dict_ties_raw});
  // FoR = raw: 7 frames of 32-bit codes and one of 14-bit codes cost
  // 8 * 9 + (7 * 16 + 7) * 8 = 1024 = 4 * 256; no value repeats, so the
  // dictionary costs more than raw.
  std::vector<int32_t> for_ties_raw(8 * kFrameValues);
  for (uint64_t i = 0; i < for_ties_raw.size(); ++i) {
    for_ties_raw[i] = i < 7 * kFrameValues
                          ? static_cast<int32_t>(i % 2 == 0 ? kInt32Min + i
                                                            : kInt32Max - i)
                          : static_cast<int32_t>(i * 300);
  }
  EXPECT_EQ(bytes(Scheme::kForBitPack, for_ties_raw),
            bytes(Scheme::kRaw, for_ties_raw));
  EXPECT_GT(bytes(Scheme::kDictionary, for_ties_raw),
            bytes(Scheme::kRaw, for_ties_raw));
  inputs.push_back({"for-ties-raw", for_ties_raw});
  for (int round = 0; round < 200; ++round) {
    // Seeded random domains: any length, base and span, any cardinality.
    const uint64_t n = rng.NextBelow(5 * kFrameValues) + 1;
    const uint64_t shift = 32 + rng.NextBelow(32);
    const int64_t span = static_cast<int64_t>(rng.Next() >> shift);
    const int64_t lo = InRange(rng, kInt32Min, kInt32Max - span);
    const std::vector<int32_t> domain =
        uniform(rng.NextBelow(n) + 1, lo, lo + span);
    inputs.push_back({"random-" + std::to_string(round),
                      drawn_from(n, domain)});
  }
  auto db = ssb::Generate({.scale_factor = 0.02, .seed = 7});
  ASSERT_TRUE(db.ok());
  const ssb::ColumnStore columns(db->lineorder);
  for (int c = 0; c < ssb::kNumLineorderColumns; ++c) {
    const auto column = static_cast<ssb::LineorderColumn>(c);
    inputs.push_back(
        {ssb::LineorderColumnName(column), columns.column(column)});
  }

  std::vector<bool> picked(3, false);
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.name + " n=" + std::to_string(input.values.size()));
    const EncodedColumn want = ExhaustiveTrial(input.values);
    const EncodedColumn got = EncodedColumn::Encode(input.values);
    ASSERT_EQ(std::string(SchemeName(got.scheme())),
              SchemeName(want.scheme()));
    EXPECT_EQ(got.EncodedBytes(), want.EncodedBytes());
    EXPECT_EQ(got.dictionary(), want.dictionary());
    ASSERT_NO_FATAL_FAILURE(ExpectRoundTrip(got, input.values));
    ASSERT_NO_FATAL_FAILURE(ExpectReferenceDictionary(input.values));
    picked[static_cast<size_t>(got.scheme())] = true;
  }
  // The inputs exercise every outcome of the selection.
  EXPECT_TRUE(picked[static_cast<size_t>(Scheme::kRaw)]);
  EXPECT_TRUE(picked[static_cast<size_t>(Scheme::kForBitPack)]);
  EXPECT_TRUE(picked[static_cast<size_t>(Scheme::kDictionary)]);
}

// --- predicate-on-encoded equivalence ---------------------------------------

TEST(EncodingPredicate, RangeMatchesScalarReference) {
  Rng rng(31);
  for (int round = 0; round < 30; ++round) {
    Rng local = rng.Fork(static_cast<uint64_t>(round));
    const uint64_t n = local.NextBelow(6 * kFrameValues) + 1;
    const int64_t lo_v = InRange(local, -500, 500);
    const int64_t hi_v = lo_v + static_cast<int64_t>(local.NextBelow(200));
    std::vector<int32_t> values(n);
    for (int32_t& v : values) {
      v = static_cast<int32_t>(InRange(local, lo_v, hi_v));
    }
    const int32_t plo = static_cast<int32_t>(
        InRange(local, lo_v - 10, hi_v + 10));
    const int32_t phi = static_cast<int32_t>(
        plo + InRange(local, 0, (hi_v - lo_v) + 20));
    const uint64_t begin = local.NextBelow(n);
    const uint64_t end = begin + local.NextBelow(n - begin) + 1;
    const std::vector<uint64_t> expect =
        ReferenceMatches(values, plo, phi, begin, end);
    for (Scheme scheme :
         {Scheme::kRaw, Scheme::kForBitPack, Scheme::kDictionary}) {
      EncodedColumn column = EncodedColumn::EncodeWith(scheme, values);
      std::vector<uint64_t> sel;
      column.AppendMatchingRange(plo, phi, begin, end, &sel);
      EXPECT_EQ(sel, expect) << SchemeName(scheme) << " round " << round;
    }
  }
}

TEST(EncodingPredicate, PointRangeMatchesScalarReference) {
  Rng rng(47);
  std::vector<int32_t> values(4 * kFrameValues);
  for (int32_t& v : values) {
    v = static_cast<int32_t>(InRange(rng, 0, 20));
  }
  for (int32_t probe = -2; probe <= 22; ++probe) {
    const std::vector<uint64_t> expect =
        ReferenceMatches(values, probe, probe, 0, values.size());
    for (Scheme scheme :
         {Scheme::kRaw, Scheme::kForBitPack, Scheme::kDictionary}) {
      EncodedColumn column = EncodedColumn::EncodeWith(scheme, values);
      std::vector<uint64_t> sel;
      column.AppendMatchingRange(probe, probe, 0, values.size(), &sel);
      EXPECT_EQ(sel, expect) << SchemeName(scheme) << " probe " << probe;
    }
  }
}

TEST(EncodingPredicate, RangePastTheEndClampsOnEveryScheme) {
  // A range ending past the column matches exactly what [begin, size())
  // matches, whatever the scheme: no frame past the last is read.
  Rng rng(53);
  std::vector<int32_t> values(100);
  for (int32_t& v : values) {
    v = static_cast<int32_t>(InRange(rng, 0, 9));
  }
  const std::vector<uint64_t> expect =
      ReferenceMatches(values, 2, 6, 90, values.size());
  ASSERT_FALSE(expect.empty());
  // Every value matches the full range, so any index read past the end
  // would show up as a match.
  std::vector<uint64_t> tail;
  for (uint64_t i = 90; i < values.size(); ++i) tail.push_back(i);
  for (Scheme scheme :
       {Scheme::kRaw, Scheme::kForBitPack, Scheme::kDictionary}) {
    EncodedColumn column = EncodedColumn::EncodeWith(scheme, values);
    std::vector<uint64_t> sel;
    column.AppendMatchingRange(2, 6, 90, 200, &sel);
    EXPECT_EQ(sel, expect) << SchemeName(scheme);
    sel.clear();
    column.AppendMatchingRange(kInt32Min, kInt32Max, 90, 200, &sel);
    EXPECT_EQ(sel, tail) << SchemeName(scheme);
    sel.clear();
    column.AppendMatchingRange(2, 6, 150, 200, &sel);  // starts past too
    EXPECT_TRUE(sel.empty()) << SchemeName(scheme);
  }
}

TEST(EncodingPredicate, FrameSkipQualifiesWholeFramesWithoutDecode) {
  // Frame 0 holds 0..31, frame 1 holds 1000..1031, frame 2 holds 5..36:
  // a [900, 2000] predicate must skip frames 0 and 2 and take all of
  // frame 1 via the bounds check.
  std::vector<int32_t> values;
  for (int32_t i = 0; i < 32; ++i) values.push_back(i);
  for (int32_t i = 0; i < 32; ++i) values.push_back(1000 + i);
  for (int32_t i = 0; i < 32; ++i) values.push_back(5 + i);
  EncodedColumn column = EncodedColumn::EncodeWith(Scheme::kForBitPack,
                                                   values);
  std::vector<uint64_t> sel;
  column.AppendMatchingRange(900, 2000, 0, values.size(), &sel);
  ASSERT_EQ(sel.size(), 32u);
  for (uint64_t i = 0; i < 32; ++i) EXPECT_EQ(sel[i], 32 + i);
}

TEST(EncodingPredicate, DictionaryAbsentValueMatchesNothing) {
  std::vector<int32_t> values(2 * kFrameValues, 10);
  for (size_t i = 0; i < values.size(); i += 2) values[i] = 20;
  EncodedColumn column = EncodedColumn::EncodeWith(Scheme::kDictionary,
                                                   values);
  std::vector<uint64_t> sel;
  column.AppendMatchingRange(15, 15, 0, values.size(), &sel);  // absent
  EXPECT_TRUE(sel.empty());
}

// --- gather ------------------------------------------------------------------

TEST(EncodingGather, MatchesPointAccess) {
  Rng rng(61);
  std::vector<int32_t> values(8 * kFrameValues);
  for (int32_t& v : values) {
    v = static_cast<int32_t>(InRange(rng, -1000, 1000));
  }
  std::vector<uint64_t> sel;
  for (uint64_t i = 0; i < values.size(); ++i) {
    if (rng.NextBool(0.2)) sel.push_back(i);
  }
  for (Scheme scheme :
       {Scheme::kRaw, Scheme::kForBitPack, Scheme::kDictionary}) {
    EncodedColumn column = EncodedColumn::EncodeWith(scheme, values);
    std::vector<int32_t> gathered;
    column.GatherInto(sel, &gathered);
    ASSERT_EQ(gathered.size(), sel.size());
    for (size_t i = 0; i < sel.size(); ++i) {
      ASSERT_EQ(gathered[i], values[sel[i]]) << SchemeName(scheme);
    }
  }
}

// --- EncodedColumnStore ------------------------------------------------------

TEST(EncodedColumnStore, CompressesSsbColumnsAndPricesScans) {
  auto db = ssb::Generate({.scale_factor = 0.01, .seed = 12});
  ASSERT_TRUE(db.ok());
  ssb::ColumnStore columns(db->lineorder);
  ssb::EncodedColumnStore encoded(columns);
  ASSERT_EQ(encoded.size(), columns.size());

  // Every value survives the chosen scheme.
  const encoding::EncodedColumn& quantity =
      encoded.column(ssb::LineorderColumn::kQuantity);
  for (uint64_t i = 0; i < columns.size(); i += 997) {
    ASSERT_EQ(quantity.Get(i), columns.column(ssb::LineorderColumn::kQuantity)[i]);
  }

  // The nine SSB columns compress well overall (small domains, dense
  // keys) — the whole premise of the encoded pricing.
  EXPECT_LT(encoded.TotalEncodedBytes(), encoded.TotalRawBytes() / 2);

  // Scan pricing: full-table scan of a column set costs its summed
  // encoded bytes; half the tuples cost half (±rounding).
  const std::vector<ssb::LineorderColumn> cols =
      ssb::ScanColumnsFor(ssb::QueryId::kQ1_1);
  uint64_t full = encoded.ScanBytes(cols, encoded.size());
  uint64_t expect_full = 0;
  for (ssb::LineorderColumn c : cols) expect_full += encoded.EncodedBytes(c);
  EXPECT_NEAR(static_cast<double>(full), static_cast<double>(expect_full),
              static_cast<double>(cols.size()));
  uint64_t half = encoded.ScanBytes(cols, encoded.size() / 2);
  EXPECT_NEAR(static_cast<double>(half), static_cast<double>(full) / 2,
              static_cast<double>(full) / 100.0);
}

TEST(EncodedColumnStore, ScanColumnSetsMatchColumnarWidths) {
  // The explicit column sets must agree with the 16/20/24 B columnar
  // pricing contract: 4 raw bytes per touched column.
  for (ssb::QueryId query : ssb::AllQueries()) {
    const size_t columns = ssb::ScanColumnsFor(query).size();
    size_t expect;
    switch (ssb::FlightOf(query)) {
      case 1:
      case 2:
      case 3:
        expect = 4;
        break;
      default:
        expect = query == ssb::QueryId::kQ4_3 ? 5 : 6;
        break;
    }
    EXPECT_EQ(columns, expect) << ssb::QueryName(query);
  }
}

TEST(EncodedColumnStore, RowsAndColumnsBuildTheSameStore) {
  // The row sweep and the column path run the same encoder: both stores
  // equal EncodedColumn::Encode of each projected column. At sf 0.001
  // the 6,000 rows are 187 full frames and a 16-value tail, and
  // extendedprice and revenue span more than 32 bits per value, so their
  // rank takes the sorted path.
  for (const double sf : {0.01, 0.001}) {
    SCOPED_TRACE("sf " + std::to_string(sf));
    auto db = ssb::Generate({.scale_factor = sf, .seed = 12});
    ASSERT_TRUE(db.ok());
    const ssb::ColumnStore columns(db->lineorder);
    const ssb::EncodedColumnStore from_columns(columns);
    const ssb::EncodedColumnStore from_rows(db->lineorder);
    ASSERT_EQ(from_rows.size(), from_columns.size());
    if (sf == 0.001) {
      ASSERT_EQ(columns.size(), 187 * kFrameValues + 16);
      for (const ssb::LineorderColumn sparse :
           {ssb::LineorderColumn::kExtendedprice,
            ssb::LineorderColumn::kRevenue}) {
        const auto [lo, hi] = std::minmax_element(
            columns.column(sparse).begin(), columns.column(sparse).end());
        EXPECT_GE((static_cast<int64_t>(*hi) - *lo) / 32,
                  static_cast<int64_t>(columns.size()))
            << ssb::LineorderColumnName(sparse);
      }
    }
    for (int c = 0; c < ssb::kNumLineorderColumns; ++c) {
      const auto column = static_cast<ssb::LineorderColumn>(c);
      SCOPED_TRACE(ssb::LineorderColumnName(column));
      const EncodedColumn want = EncodedColumn::Encode(columns.column(column));
      for (const EncodedColumn* got :
           {&from_rows.column(column), &from_columns.column(column)}) {
        EXPECT_EQ(got->scheme(), want.scheme());
        EXPECT_EQ(got->EncodedBytes(), want.EncodedBytes());
        EXPECT_EQ(got->dictionary(), want.dictionary());
        ASSERT_NO_FATAL_FAILURE(ExpectRoundTrip(*got, columns.column(column)));
      }
    }
    EXPECT_EQ(from_rows.TotalEncodedBytes(),
              from_columns.TotalEncodedBytes());
  }
}

TEST(ColumnStoreMoveConstructor, ReleasesRowImage) {
  auto db = ssb::Generate({.scale_factor = 0.01, .seed = 12});
  ASSERT_TRUE(db.ok());
  const ssb::ColumnStore reference(db->lineorder);
  const size_t rows = db->lineorder.size();

  std::vector<ssb::LineorderRow> moved = db->lineorder;
  ssb::ColumnStore consumed(std::move(moved));
  // The source rows are released: no double residency of the 128 B row
  // image next to the columnar image.
  EXPECT_TRUE(moved.empty());
  EXPECT_EQ(moved.capacity(), 0u);
  ASSERT_EQ(consumed.size(), rows);
  for (int c = 0; c < ssb::kNumLineorderColumns; ++c) {
    const auto column = static_cast<ssb::LineorderColumn>(c);
    EXPECT_EQ(consumed.column(column), reference.column(column));
  }
}

}  // namespace
}  // namespace pmemolap::encoding
