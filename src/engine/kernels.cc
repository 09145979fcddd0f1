#include "engine/kernels.h"

#include <algorithm>
#include <limits>

#include "fault/guarded_table.h"

namespace pmemolap {

namespace {

using ssb::LineorderColumn;
using ssb::QueryId;

constexpr int kUnitedStates = 9;
constexpr int kUnitedKingdom = 19;
constexpr int kRegionAmerica = 1;
constexpr int kRegionAsia = 2;
constexpr int kRegionEurope = 3;

const std::vector<int32_t>& RawColumn(const ssb::ColumnStore& columns,
                                      LineorderColumn column) {
  switch (column) {
    case LineorderColumn::kOrderdate:
      return columns.orderdate();
    case LineorderColumn::kCustkey:
      return columns.custkey();
    case LineorderColumn::kPartkey:
      return columns.partkey();
    case LineorderColumn::kSuppkey:
      return columns.suppkey();
    case LineorderColumn::kQuantity:
      return columns.quantity();
    case LineorderColumn::kDiscount:
      return columns.discount();
    case LineorderColumn::kExtendedprice:
      return columns.extendedprice();
    case LineorderColumn::kRevenue:
      return columns.revenue();
    case LineorderColumn::kSupplycost:
      return columns.supplycost();
  }
  return columns.orderdate();
}

/// The row field behind each lineorder column, in LineorderColumn order.
constexpr int32_t ssb::LineorderRow::*kRowFields[ssb::kNumLineorderColumns] = {
    &ssb::LineorderRow::orderdate,     &ssb::LineorderRow::custkey,
    &ssb::LineorderRow::partkey,       &ssb::LineorderRow::suppkey,
    &ssb::LineorderRow::quantity,      &ssb::LineorderRow::discount,
    &ssb::LineorderRow::extendedprice, &ssb::LineorderRow::revenue,
    &ssb::LineorderRow::supplycost,
};

/// The morsel's view of one column: a zero-copy slice of the raw vector,
/// or a fill of [begin, end) into the scratch buffer for that column —
/// a block decode (encoded path) or a transposition of the morsel's rows
/// (row-image path).
ColumnSlice SliceFor(const KernelContext& ctx, LineorderColumn column,
                     uint64_t begin, uint64_t end, KernelScratch* s) {
  if (ctx.encoded == nullptr && ctx.rows == nullptr) {
    return ColumnSlice{RawColumn(*ctx.columns, column).data(), 0};
  }
  std::vector<int32_t>& buffer = s->decoded[static_cast<size_t>(column)];
  buffer.resize(end - begin);
  if (ctx.rows != nullptr) {
    int32_t ssb::LineorderRow::*field =
        kRowFields[static_cast<size_t>(column)];
    for (uint64_t i = 0; i < end - begin; ++i) {
      buffer[i] = ctx.rows[i].*field;
    }
  } else {
    ctx.encoded->column(column).Decode(begin, end, buffer.data());
  }
  return ColumnSlice{buffer.data(), begin};
}

/// A probe in the plain and durable modes: one dense payload load.
struct DenseLookup {
  const DenseDimMap* map;
  uint64_t operator()(int32_t key) const { return map->Lookup(key); }
};

/// A probe in fault mode: the dense map gives the key's position, the
/// payload comes through the guarded replicas (GuardedDims).
struct GuardedLookup {
  const DenseDimMap* map;
  GuardedDimension* dim;
  GuardedDims* sink;
  uint64_t operator()(int32_t key) const {
    Result<uint64_t> payload = dim->Payload(sink->socket, map->Lookup(key));
    if (payload.ok()) return payload.value();
    if (sink->status.ok()) sink->status = payload.status();
    return 0;
  }
};

/// The four dimension probes of one morsel. The flights are templates
/// over the lookup, so the plain hot loops inline a dense load and only
/// fault mode pays for the guarded read.
template <typename Lookup>
struct Dims {
  Lookup date;
  Lookup customer;
  Lookup supplier;
  Lookup part;
};

/// Loads sel with every tuple of the morsel (stage-1 "probe all rows").
void SelectAll(uint64_t begin, uint64_t end, KernelScratch* s) {
  s->sel.resize(end - begin);
  for (uint64_t i = begin; i < end; ++i) s->sel[i - begin] = i;
}

/// Gathers `col` at the sel positions through the dimension lookup,
/// leaving payloads aligned with sel. Counts |sel| probes into `count`.
template <typename Lookup>
void ProbeSelected(Lookup dim, ColumnSlice col, KernelScratch* s,
                   uint64_t* count) {
  const size_t n = s->sel.size();
  *count += n;
  s->payloads.resize(n);
  for (size_t i = 0; i < n; ++i) {
    s->payloads[i] = dim(col[s->sel[i]]);
  }
}

/// Compacts sel by keep(payload). An existing carried attribute
/// (`keep_attr`) is compacted alongside; when `out_attr` is non-null,
/// carry(payload) is recorded for every survivor.
template <typename Keep, typename Carry>
void CompactStage(KernelScratch* s, std::vector<int32_t>* keep_attr,
                  std::vector<int32_t>* out_attr, Keep keep, Carry carry) {
  const size_t n = s->sel.size();
  if (out_attr != nullptr) out_attr->resize(n);
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t payload = s->payloads[i];
    if (!keep(payload)) continue;
    s->sel[out] = s->sel[i];
    if (keep_attr != nullptr) (*keep_attr)[out] = (*keep_attr)[i];
    if (out_attr != nullptr) {
      (*out_attr)[out] = static_cast<int32_t>(carry(payload));
    }
    ++out;
  }
  s->sel.resize(out);
  if (keep_attr != nullptr) keep_attr->resize(out);
  if (out_attr != nullptr) out_attr->resize(out);
}

constexpr auto kNoCarry = [](uint64_t) { return 0; };

/// Final stage of the join flights: dense date lookup per survivor,
/// year filter, group-aggregate update.
template <typename Lookup, typename Keep, typename Key, typename Value>
void DateAggregate(Lookup date, ColumnSlice orderdate, KernelScratch* s,
                   AggTable* groups, KernelCounters* counters, Keep keep,
                   Key key, Value value) {
  counters->date_probes += s->sel.size();
  for (size_t i = 0; i < s->sel.size(); ++i) {
    const uint64_t idx = s->sel[i];
    const DateAttrs d = DecodeDate(date(orderdate[idx]));
    if (!keep(d)) continue;
    groups->Add(key(d, i), value(idx));
    ++counters->qualifying;
  }
}

/// Flight-1 predicate bounds: discount in [d_lo, d_hi], quantity in
/// [q_lo, q_hi] (Q1.1's `quantity < 25` as an inclusive range).
struct Flight1Predicate {
  int32_t d_lo, d_hi, q_lo, q_hi;
};

Flight1Predicate Flight1PredicateOf(QueryId query) {
  switch (query) {
    case QueryId::kQ1_1:
      return {1, 3, std::numeric_limits<int32_t>::min(), 24};
    case QueryId::kQ1_2:
      return {4, 6, 26, 35};
    default:  // kQ1_3
      return {5, 7, 26, 35};
  }
}

/// Flight-1 date filter + sum over the final selection, shared by every
/// fact image. `orderdate_at`/`price_at`/`discount_at` map a sel position
/// to the tuple's attribute values.
template <typename Lookup, typename Date, typename Price, typename Discount>
void Flight1Aggregate(QueryId query, Lookup date, KernelScratch* s,
                      int64_t* scalar_sum, KernelCounters* counters,
                      Date orderdate_at, Price price_at,
                      Discount discount_at) {
  counters->date_probes += s->sel.size();
  int64_t sum = 0;
  uint64_t qualifying = 0;
  for (size_t i = 0; i < s->sel.size(); ++i) {
    const uint64_t payload = date(orderdate_at(i));
    bool keep;
    if (query == QueryId::kQ1_1) {
      keep = (payload >> 40) == 1993;
    } else if (query == QueryId::kQ1_2) {
      keep = ((payload >> 16) & 0xFFFFFF) == 199401;
    } else {
      const DateAttrs d = DecodeDate(payload);
      keep = d.week == 6 && d.year == 1994;
    }
    if (!keep) continue;
    sum += static_cast<int64_t>(price_at(i)) * discount_at(i);
    ++qualifying;
  }
  *scalar_sum += sum;
  counters->qualifying += qualifying;
}

/// Encoded flight 1: the discount range predicate runs directly against
/// the encoded frames (FoR frame-skipping / dictionary code rewriting —
/// no decode for frames whose bounds miss the range), the quantity
/// refinement and the aggregate inputs come through frame-cached gathers
/// at the surviving positions. Selection order and counts match the raw
/// loop exactly.
template <typename Lookup>
void Flight1Encoded(QueryId query, const KernelContext& ctx, Lookup date,
                    uint64_t begin, uint64_t end, KernelScratch* s,
                    int64_t* scalar_sum, KernelCounters* counters) {
  const ssb::EncodedColumnStore& enc = *ctx.encoded;
  const Flight1Predicate pred = Flight1PredicateOf(query);

  s->sel.clear();
  enc.column(LineorderColumn::kDiscount)
      .AppendMatchingRange(pred.d_lo, pred.d_hi, begin, end, &s->sel);
  // Refine by quantity: gather at the discount survivors, compact.
  enc.column(LineorderColumn::kQuantity).GatherInto(s->sel, &s->attr_a);
  size_t out = 0;
  for (size_t i = 0; i < s->sel.size(); ++i) {
    if (s->attr_a[i] >= pred.q_lo && s->attr_a[i] <= pred.q_hi) {
      s->sel[out++] = s->sel[i];
    }
  }
  s->sel.resize(out);

  enc.column(LineorderColumn::kOrderdate).GatherInto(s->sel, &s->attr_a);
  enc.column(LineorderColumn::kExtendedprice)
      .GatherInto(s->sel, &s->attr_b);
  enc.column(LineorderColumn::kDiscount).GatherInto(s->sel, &s->attr_c);
  Flight1Aggregate(
      query, date, s, scalar_sum, counters,
      [&](size_t i) { return s->attr_a[i]; },
      [&](size_t i) { return s->attr_b[i]; },
      [&](size_t i) { return s->attr_c[i]; });
}

/// Flight-1 filter + sum over one column image: raw column pointers, or
/// ColumnSlices of a row image's transposed buffers.
template <typename Col, typename Lookup>
void Flight1Columns(QueryId query, Lookup date, Col discount, Col quantity,
                    Col orderdate, Col price, uint64_t begin, uint64_t end,
                    KernelScratch* s, int64_t* scalar_sum,
                    KernelCounters* counters) {
  s->sel.clear();
  switch (query) {
    case QueryId::kQ1_1:
      for (uint64_t i = begin; i < end; ++i) {
        if (discount[i] >= 1 && discount[i] <= 3 && quantity[i] < 25) {
          s->sel.push_back(i);
        }
      }
      break;
    case QueryId::kQ1_2:
      for (uint64_t i = begin; i < end; ++i) {
        if (discount[i] >= 4 && discount[i] <= 6 && quantity[i] >= 26 &&
            quantity[i] <= 35) {
          s->sel.push_back(i);
        }
      }
      break;
    default:  // kQ1_3
      for (uint64_t i = begin; i < end; ++i) {
        if (discount[i] >= 5 && discount[i] <= 7 && quantity[i] >= 26 &&
            quantity[i] <= 35) {
          s->sel.push_back(i);
        }
      }
      break;
  }

  Flight1Aggregate(
      query, date, s, scalar_sum, counters,
      [&](size_t i) { return orderdate[s->sel[i]]; },
      [&](size_t i) { return price[s->sel[i]]; },
      [&](size_t i) { return discount[s->sel[i]]; });
}

template <typename Lookup>
void Flight1(QueryId query, const KernelContext& ctx, const Dims<Lookup>& dims,
             uint64_t begin, uint64_t end, KernelScratch* s,
             int64_t* scalar_sum, KernelCounters* counters) {
  if (ctx.encoded != nullptr) {
    Flight1Encoded(query, ctx, dims.date, begin, end, s, scalar_sum,
                   counters);
    return;
  }
  if (ctx.rows != nullptr) {
    Flight1Columns(query, dims.date,
                   SliceFor(ctx, LineorderColumn::kDiscount, begin, end, s),
                   SliceFor(ctx, LineorderColumn::kQuantity, begin, end, s),
                   SliceFor(ctx, LineorderColumn::kOrderdate, begin, end, s),
                   SliceFor(ctx, LineorderColumn::kExtendedprice, begin, end,
                            s),
                   begin, end, s, scalar_sum, counters);
    return;
  }
  const ssb::ColumnStore& columns = *ctx.columns;
  Flight1Columns(query, dims.date, columns.discount().data(),
                 columns.quantity().data(), columns.orderdate().data(),
                 columns.extendedprice().data(), begin, end, s, scalar_sum,
                 counters);
}

template <typename Lookup>
void Flight2(QueryId query, const KernelContext& ctx, const Dims<Lookup>& dims,
             uint64_t begin, uint64_t end, KernelScratch* s, AggTable* groups,
             KernelCounters* counters) {
  const ColumnSlice partkey =
      SliceFor(ctx, LineorderColumn::kPartkey, begin, end, s);
  const ColumnSlice suppkey =
      SliceFor(ctx, LineorderColumn::kSuppkey, begin, end, s);
  const ColumnSlice orderdate =
      SliceFor(ctx, LineorderColumn::kOrderdate, begin, end, s);
  const ColumnSlice revenue =
      SliceFor(ctx, LineorderColumn::kRevenue, begin, end, s);
  SelectAll(begin, end, s);
  ProbeSelected(dims.part, partkey, s, &counters->part_probes);
  auto brand = [](uint64_t payload) {
    return DecodePart(payload).brand_id;
  };
  if (query == QueryId::kQ2_1) {
    CompactStage(s, nullptr, &s->attr_a,
                 [](uint64_t p) { return DecodePart(p).category_id == 12; },
                 brand);
  } else if (query == QueryId::kQ2_2) {
    CompactStage(s, nullptr, &s->attr_a,
                 [&](uint64_t p) {
                   const int b = DecodePart(p).brand_id;
                   return b >= 2221 && b <= 2228;
                 },
                 brand);
  } else {
    CompactStage(s, nullptr, &s->attr_a,
                 [&](uint64_t p) { return DecodePart(p).brand_id == 2239; },
                 brand);
  }

  const int wanted_region = query == QueryId::kQ2_1   ? kRegionAmerica
                            : query == QueryId::kQ2_2 ? kRegionAsia
                                                      : kRegionEurope;
  ProbeSelected(dims.supplier, suppkey, s, &counters->supplier_probes);
  CompactStage(s, &s->attr_a, nullptr,
               [&](uint64_t p) { return DecodeGeo(p).region == wanted_region; },
               kNoCarry);

  DateAggregate(
      dims.date, orderdate, s, groups, counters,
      [](const DateAttrs&) { return true; },
      [&](const DateAttrs& d, size_t i) {
        return ssb::GroupKey{d.year, s->attr_a[i], 0};
      },
      [&](uint64_t idx) { return static_cast<int64_t>(revenue[idx]); });
}

template <typename Lookup>
void Flight3(QueryId query, const KernelContext& ctx, const Dims<Lookup>& dims,
             uint64_t begin, uint64_t end, KernelScratch* s, AggTable* groups,
             KernelCounters* counters) {
  const ColumnSlice custkey =
      SliceFor(ctx, LineorderColumn::kCustkey, begin, end, s);
  const ColumnSlice suppkey =
      SliceFor(ctx, LineorderColumn::kSuppkey, begin, end, s);
  const ColumnSlice orderdate =
      SliceFor(ctx, LineorderColumn::kOrderdate, begin, end, s);
  const ColumnSlice revenue =
      SliceFor(ctx, LineorderColumn::kRevenue, begin, end, s);
  SelectAll(begin, end, s);
  ProbeSelected(dims.customer, custkey, s, &counters->customer_probes);
  auto is_uk_city = [](int city_id) {
    return city_id == ssb::CityId(kUnitedKingdom, 1) ||
           city_id == ssb::CityId(kUnitedKingdom, 5);
  };
  // Customer stage: filter + carry the grouping attribute (attr_a).
  if (query == QueryId::kQ3_1) {
    CompactStage(s, nullptr, &s->attr_a,
                 [](uint64_t p) { return DecodeGeo(p).region == kRegionAsia; },
                 [](uint64_t p) { return DecodeGeo(p).nation; });
  } else if (query == QueryId::kQ3_2) {
    CompactStage(s, nullptr, &s->attr_a,
                 [](uint64_t p) { return DecodeGeo(p).nation == kUnitedStates; },
                 [](uint64_t p) { return DecodeGeo(p).city_id; });
  } else {
    CompactStage(s, nullptr, &s->attr_a,
                 [&](uint64_t p) { return is_uk_city(DecodeGeo(p).city_id); },
                 [](uint64_t p) { return DecodeGeo(p).city_id; });
  }

  // Supplier stage: filter + carry the second grouping attribute.
  ProbeSelected(dims.supplier, suppkey, s, &counters->supplier_probes);
  if (query == QueryId::kQ3_1) {
    CompactStage(s, &s->attr_a, &s->attr_b,
                 [](uint64_t p) { return DecodeGeo(p).region == kRegionAsia; },
                 [](uint64_t p) { return DecodeGeo(p).nation; });
  } else if (query == QueryId::kQ3_2) {
    CompactStage(s, &s->attr_a, &s->attr_b,
                 [](uint64_t p) { return DecodeGeo(p).nation == kUnitedStates; },
                 [](uint64_t p) { return DecodeGeo(p).city_id; });
  } else {
    CompactStage(s, &s->attr_a, &s->attr_b,
                 [&](uint64_t p) { return is_uk_city(DecodeGeo(p).city_id); },
                 [](uint64_t p) { return DecodeGeo(p).city_id; });
  }

  auto keep_date = [&](const DateAttrs& d) {
    if (query == QueryId::kQ3_4) return d.yearmonthnum == 199712;
    return d.year >= 1992 && d.year <= 1997;
  };
  DateAggregate(
      dims.date, orderdate, s, groups, counters, keep_date,
      [&](const DateAttrs& d, size_t i) {
        return ssb::GroupKey{s->attr_a[i], s->attr_b[i], d.year};
      },
      [&](uint64_t idx) { return static_cast<int64_t>(revenue[idx]); });
}

template <typename Lookup>
void Flight4(QueryId query, const KernelContext& ctx, const Dims<Lookup>& dims,
             uint64_t begin, uint64_t end, KernelScratch* s, AggTable* groups,
             KernelCounters* counters) {
  const ColumnSlice suppkey =
      SliceFor(ctx, LineorderColumn::kSuppkey, begin, end, s);
  const ColumnSlice partkey =
      SliceFor(ctx, LineorderColumn::kPartkey, begin, end, s);
  const ColumnSlice orderdate =
      SliceFor(ctx, LineorderColumn::kOrderdate, begin, end, s);
  const ColumnSlice revenue =
      SliceFor(ctx, LineorderColumn::kRevenue, begin, end, s);
  const ColumnSlice supplycost =
      SliceFor(ctx, LineorderColumn::kSupplycost, begin, end, s);
  SelectAll(begin, end, s);
  auto profit = [&](uint64_t idx) {
    return static_cast<int64_t>(revenue[idx]) - supplycost[idx];
  };

  if (query == QueryId::kQ4_3) {
    // supplier (nation, carry city) -> part (category, carry brand) -> date
    ProbeSelected(dims.supplier, suppkey, s, &counters->supplier_probes);
    CompactStage(s, nullptr, &s->attr_a,
                 [](uint64_t p) { return DecodeGeo(p).nation == kUnitedStates; },
                 [](uint64_t p) { return DecodeGeo(p).city_id; });
    ProbeSelected(dims.part, partkey, s, &counters->part_probes);
    CompactStage(s, &s->attr_a, &s->attr_b,
                 [](uint64_t p) { return DecodePart(p).category_id == 14; },
                 [](uint64_t p) { return DecodePart(p).brand_id; });
    DateAggregate(
        dims.date, orderdate, s, groups, counters,
        [](const DateAttrs& d) { return d.year == 1997 || d.year == 1998; },
        [&](const DateAttrs& d, size_t i) {
          return ssb::GroupKey{d.year, s->attr_a[i], s->attr_b[i]};
        },
        profit);
    return;
  }

  // Q4.1 / Q4.2: customer -> supplier -> part -> date.
  const ColumnSlice custkey =
      SliceFor(ctx, LineorderColumn::kCustkey, begin, end, s);
  ProbeSelected(dims.customer, custkey, s, &counters->customer_probes);
  if (query == QueryId::kQ4_1) {
    CompactStage(s, nullptr, &s->attr_a,
                 [](uint64_t p) { return DecodeGeo(p).region == kRegionAmerica; },
                 [](uint64_t p) { return DecodeGeo(p).nation; });
  } else {
    CompactStage(s, nullptr, nullptr,
                 [](uint64_t p) { return DecodeGeo(p).region == kRegionAmerica; },
                 kNoCarry);
  }

  ProbeSelected(dims.supplier, suppkey, s, &counters->supplier_probes);
  if (query == QueryId::kQ4_1) {
    CompactStage(s, &s->attr_a, nullptr,
                 [](uint64_t p) { return DecodeGeo(p).region == kRegionAmerica; },
                 kNoCarry);
  } else {
    CompactStage(s, nullptr, &s->attr_a,
                 [](uint64_t p) { return DecodeGeo(p).region == kRegionAmerica; },
                 [](uint64_t p) { return DecodeGeo(p).nation; });
  }

  ProbeSelected(dims.part, partkey, s, &counters->part_probes);
  if (query == QueryId::kQ4_1) {
    CompactStage(s, &s->attr_a, nullptr,
                 [](uint64_t p) {
                   const int mfgr = DecodePart(p).mfgr;
                   return mfgr == 1 || mfgr == 2;
                 },
                 kNoCarry);
    DateAggregate(
        dims.date, orderdate, s, groups, counters,
        [](const DateAttrs&) { return true; },
        [&](const DateAttrs& d, size_t i) {
          return ssb::GroupKey{d.year, s->attr_a[i], 0};
        },
        profit);
  } else {
    CompactStage(s, &s->attr_a, &s->attr_b,
                 [](uint64_t p) {
                   const int mfgr = DecodePart(p).mfgr;
                   return mfgr == 1 || mfgr == 2;
                 },
                 [](uint64_t p) { return DecodePart(p).category_id; });
    DateAggregate(
        dims.date, orderdate, s, groups, counters,
        [](const DateAttrs& d) { return d.year == 1997 || d.year == 1998; },
        [&](const DateAttrs& d, size_t i) {
          return ssb::GroupKey{d.year, s->attr_a[i], s->attr_b[i]};
        },
        profit);
  }
}

template <typename Lookup>
void RunFlight(ssb::QueryId query, const KernelContext& ctx,
               const Dims<Lookup>& dims, uint64_t begin, uint64_t end,
               KernelScratch* scratch, AggTable* groups, int64_t* scalar_sum,
               bool* scalar, KernelCounters* counters) {
  switch (ssb::FlightOf(query)) {
    case 1:
      *scalar = true;
      Flight1(query, ctx, dims, begin, end, scratch, scalar_sum, counters);
      break;
    case 2:
      Flight2(query, ctx, dims, begin, end, scratch, groups, counters);
      break;
    case 3:
      Flight3(query, ctx, dims, begin, end, scratch, groups, counters);
      break;
    default:
      Flight4(query, ctx, dims, begin, end, scratch, groups, counters);
      break;
  }
}

}  // namespace

void DenseDimMap::Build(const std::vector<int32_t>& keys,
                        const std::vector<uint64_t>& payloads) {
  payloads_.clear();
  if (keys.empty()) return;
  int32_t lo = std::numeric_limits<int32_t>::max();
  int32_t hi = std::numeric_limits<int32_t>::min();
  for (int32_t key : keys) {
    lo = std::min(lo, key);
    hi = std::max(hi, key);
  }
  base_ = lo;
  payloads_.assign(static_cast<size_t>(hi - lo) + 1, 0);
  for (size_t i = 0; i < keys.size(); ++i) {
    payloads_[static_cast<size_t>(keys[i] - lo)] = payloads[i];
  }
}

void DenseDimMap::Build(const std::vector<ssb::DateRow>& dates) {
  payloads_.clear();
  if (dates.empty()) return;
  int32_t lo = std::numeric_limits<int32_t>::max();
  int32_t hi = std::numeric_limits<int32_t>::min();
  for (const ssb::DateRow& d : dates) {
    lo = std::min(lo, d.datekey);
    hi = std::max(hi, d.datekey);
  }
  base_ = lo;
  payloads_.assign(static_cast<size_t>(hi - lo) + 1, 0);
  for (const ssb::DateRow& d : dates) {
    payloads_[static_cast<size_t>(d.datekey - lo)] = EncodeDate(d);
  }
}

void ExecuteMorselKernel(ssb::QueryId query, const KernelContext& ctx,
                         uint64_t begin, uint64_t end, KernelScratch* scratch,
                         AggTable* groups, int64_t* scalar_sum, bool* scalar,
                         KernelCounters* counters) {
  if (begin >= end) return;
  if (ctx.guarded == nullptr) {
    const Dims<DenseLookup> dims{{ctx.date}, {ctx.customer}, {ctx.supplier},
                                 {ctx.part}};
    RunFlight(query, ctx, dims, begin, end, scratch, groups, scalar_sum,
              scalar, counters);
    return;
  }
  GuardedDims* g = ctx.guarded;
  const Dims<GuardedLookup> dims{{ctx.date, g->date, g},
                                 {ctx.customer, g->customer, g},
                                 {ctx.supplier, g->supplier, g},
                                 {ctx.part, g->part, g}};
  RunFlight(query, ctx, dims, begin, end, scratch, groups, scalar_sum, scalar,
            counters);
}

}  // namespace pmemolap
