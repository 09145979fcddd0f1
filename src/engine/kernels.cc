#include "engine/kernels.h"

#include <algorithm>
#include <limits>

#include "fault/guarded_table.h"

namespace pmemolap {

namespace {

using ssb::LineorderColumn;

/// lo <= value <= hi as one unsigned compare, so a value near the range
/// costs no second branch.
struct RangeTest {
  uint32_t lo = 0;
  uint32_t span = 0;

  RangeTest() = default;
  RangeTest(int32_t lo_value, int32_t hi_value)
      : lo(static_cast<uint32_t>(lo_value)),
        span(static_cast<uint32_t>(hi_value) - lo) {}

  bool operator()(int32_t value) const {
    return static_cast<uint32_t>(value) - lo <= span;
  }
};

/// The fact image one morsel [begin, end) reads, behind the executor's two
/// primitives. Exactly one image answers: the row image when `rows` is
/// set (rows[0] holds tuple `begin`), else the encoded store when set,
/// else the raw columns.
class FactImage {
 public:
  FactImage(const KernelContext& ctx, uint64_t begin, uint64_t end)
      : columns_(ctx.columns),
        encoded_(ctx.rows == nullptr ? ctx.encoded : nullptr),
        rows_(ctx.rows),
        begin_(begin),
        end_(end) {}

  uint64_t begin() const { return begin_; }
  uint64_t size() const { return end_ - begin_; }

  /// Select-by-range: `sel` becomes the morsel's tuples whose `column`
  /// lies in [lo, hi], ascending. The encoded image skips frames whose
  /// bounds miss the range without decoding them.
  void SelectRange(const ssb::RangeFilter& filter,
                   std::vector<uint64_t>* sel) const {
    if (encoded_ != nullptr) {
      sel->clear();
      encoded_->column(filter.column)
          .AppendMatchingRange(filter.lo, filter.hi, begin_, end_, sel);
      return;
    }
    const RangeTest in_range(filter.lo, filter.hi);
    sel->resize(size());
    uint64_t* out = sel->data();
    size_t kept = 0;
    auto keep_if = [&](uint64_t tuple, int32_t value) {
      out[kept] = tuple;
      kept += in_range(value);
    };
    if (rows_ != nullptr) {
      const int32_t ssb::LineorderRow::*field = RowField(filter.column);
      for (uint64_t i = 0; i < size(); ++i) {
        keep_if(begin_ + i, rows_[i].*field);
      }
    } else {
      const int32_t* values = columns_->column(filter.column).data();
      for (uint64_t i = begin_; i < end_; ++i) keep_if(i, values[i]);
    }
    sel->resize(kept);
  }

  /// Gather-at-selection: `column`'s values aligned with `sel`, or with
  /// the whole morsel when `sel` is null. The raw image answers a
  /// whole-morsel read in place; every other read fills `buffer`.
  const int32_t* Gather(LineorderColumn column,
                        const std::vector<uint64_t>* sel,
                        std::vector<int32_t>* buffer) const {
    if (sel == nullptr) {
      if (rows_ == nullptr && encoded_ == nullptr) {
        return columns_->column(column).data() + begin_;
      }
      buffer->resize(size());
      if (encoded_ != nullptr) {
        encoded_->column(column).Decode(begin_, end_, buffer->data());
      } else {
        const int32_t ssb::LineorderRow::*field = RowField(column);
        for (uint64_t i = 0; i < size(); ++i) (*buffer)[i] = rows_[i].*field;
      }
      return buffer->data();
    }
    if (encoded_ != nullptr) {
      encoded_->column(column).GatherInto(*sel, buffer);
      return buffer->data();
    }
    buffer->resize(sel->size());
    if (rows_ != nullptr) {
      const int32_t ssb::LineorderRow::*field = RowField(column);
      for (size_t i = 0; i < sel->size(); ++i) {
        (*buffer)[i] = rows_[(*sel)[i] - begin_].*field;
      }
    } else {
      const int32_t* values = columns_->column(column).data();
      for (size_t i = 0; i < sel->size(); ++i) {
        (*buffer)[i] = values[(*sel)[i]];
      }
    }
    return buffer->data();
  }

 private:
  static const int32_t ssb::LineorderRow::*RowField(LineorderColumn column) {
    return ssb::kRowFields[static_cast<size_t>(column)];
  }

  const ssb::ColumnStore* columns_;
  const ssb::EncodedColumnStore* encoded_;
  const ssb::LineorderRow* rows_;
  uint64_t begin_;
  uint64_t end_;
};

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

/// An attribute test compiled for the hot loop: the range test OR'ed
/// bitwise with the alternative's equality, so neither costs a branch.
struct CompiledTest {
  PayloadField field{0, 0};
  RangeTest range;
  int32_t alt = 0;

  CompiledTest() = default;
  explicit CompiledTest(const ssb::AttrTest& test)
      : field(FieldOf(test.attr)), range(test.lo, test.hi), alt(test.alt) {}

  bool operator()(uint64_t payload) const {
    const int32_t value =
        static_cast<int32_t>((payload >> field.shift) & field.mask);
    return range(value) | (value == alt);
  }
};

/// One join stage over `n` selected tuples, `keys` aligned with them
/// (`all`: the selection is the whole morsel, tuple `begin + i`). Keeps
/// the tuples whose payload passes the first `kTests` tests, compacting
/// sel and the `live` carried slots alongside; `carry` (if non-null)
/// receives `carry_field` of each survivor. Returns the survivor count.
template <int kTests, typename Lookup>
size_t Narrow(Lookup lookup, const int32_t* keys, size_t n, bool all,
              uint64_t begin, const CompiledTest* tests, KernelScratch* s,
              int live, int32_t* carry, PayloadField carry_field) {
  uint64_t* sel = s->sel.data();
  int32_t* slots[kMaxCarried];
  for (int k = 0; k < live; ++k) slots[k] = s->carried[k].data();
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t payload = lookup(keys[i]);
    bool pass = true;
    if constexpr (kTests >= 1) pass = tests[0](payload);
    if constexpr (kTests >= 2) pass &= tests[1](payload);
    if (!pass) continue;
    sel[out] = all ? begin + i : sel[i];
    for (int k = 0; k < live; ++k) slots[k][out] = slots[k][i];
    if (carry != nullptr) {
      carry[out] = static_cast<int32_t>((payload >> carry_field.shift) &
                                        carry_field.mask);
    }
    ++out;
  }
  return out;
}

/// Runs `join` over the current selection (null: the whole morsel),
/// leaving the survivors in s->sel and the carried slots. Returns the
/// number of live carried slots.
template <typename Lookup>
int RunJoin(const ssb::Join& join, Lookup lookup, const FactImage& fact,
            const std::vector<uint64_t>* sel, KernelScratch* s, int live,
            uint64_t* probes) {
  const int32_t* keys =
      fact.Gather(ssb::KeyColumn(join.dim), sel, &s->values[0]);
  const bool all = sel == nullptr;
  const size_t n = all ? fact.size() : sel->size();
  *probes += n;
  s->sel.resize(n);
  const int slots = join.carry.has_value() ? live + 1 : live;
  for (int k = 0; k < slots; ++k) s->carried[k].resize(n);
  int32_t* carry = join.carry.has_value() ? s->carried[live].data() : nullptr;
  const PayloadField carry_field =
      join.carry.has_value() ? FieldOf(*join.carry) : PayloadField{0, 0};
  CompiledTest tests[kMaxTests];
  for (size_t t = 0; t < join.tests.size(); ++t) {
    tests[t] = CompiledTest(join.tests[t]);
  }
  size_t kept = 0;
  switch (join.tests.size()) {
    case 0:
      kept = Narrow<0>(lookup, keys, n, all, fact.begin(), tests, s, live,
                       carry, carry_field);
      break;
    case 1:
      kept = Narrow<1>(lookup, keys, n, all, fact.begin(), tests, s, live,
                       carry, carry_field);
      break;
    default:
      kept = Narrow<2>(lookup, keys, n, all, fact.begin(), tests, s, live,
                       carry, carry_field);
      break;
  }
  s->sel.resize(kept);
  for (int k = 0; k < slots; ++k) s->carried[k].resize(kept);
  return slots;
}

/// Runs `plan` over one morsel of `fact`; `dims` holds one lookup per
/// ssb::Dim.
template <typename Lookup>
void RunPlan(const ssb::QueryPlan& plan, const FactImage& fact,
             const std::array<Lookup, ssb::kNumDims>& dims, KernelScratch* s,
             AggTable* groups, int64_t* scalar_sum, KernelCounters* counters) {
  // Null while every tuple of the morsel is selected.
  const std::vector<uint64_t>* sel = nullptr;
  for (const ssb::RangeFilter& filter : plan.filters) {
    if (sel == nullptr) {
      fact.SelectRange(filter, &s->sel);
      sel = &s->sel;
      continue;
    }
    const int32_t* values = fact.Gather(filter.column, sel, &s->values[0]);
    const RangeTest in_range(filter.lo, filter.hi);
    size_t kept = 0;
    for (size_t i = 0; i < s->sel.size(); ++i) {
      s->sel[kept] = s->sel[i];
      kept += in_range(values[i]);
    }
    s->sel.resize(kept);
  }

  int live = 0;
  for (const ssb::Join& join : plan.joins) {
    const size_t d = static_cast<size_t>(join.dim);
    live = RunJoin(join, dims[d], fact, sel, s, live, &counters->probes[d]);
    sel = &s->sel;
  }

  const size_t n = sel != nullptr ? sel->size() : fact.size();
  counters->qualifying += n;
  const std::vector<ssb::LineorderColumn> columns =
      ssb::MeasureColumns(plan.measure);
  const int32_t* a = fact.Gather(columns[0], sel, &s->values[0]);
  const int32_t* b =
      columns.size() > 1 ? fact.Gather(columns[1], sel, &s->values[1]) : a;
  auto value = [&](size_t i) -> int64_t {
    switch (plan.measure) {
      case ssb::Measure::kRevenue:
        return a[i];
      case ssb::Measure::kProfit:
        return static_cast<int64_t>(a[i]) - b[i];
      case ssb::Measure::kDiscountedPrice:
        return static_cast<int64_t>(a[i]) * b[i];
    }
    return 0;
  };
  if (plan.scalar()) {
    int64_t sum = 0;
    for (size_t i = 0; i < n; ++i) sum += value(i);
    *scalar_sum += sum;
    return;
  }
  const int32_t* key_slots[std::tuple_size_v<ssb::GroupKey>] = {};
  for (size_t k = 0; k < plan.group.size(); ++k) {
    key_slots[k] = s->carried[static_cast<size_t>(plan.group[k])].data();
  }
  for (size_t i = 0; i < n; ++i) {
    ssb::GroupKey key{};
    for (size_t k = 0; k < plan.group.size(); ++k) key[k] = key_slots[k][i];
    groups->Add(key, value(i));
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
  std::vector<int32_t> keys;
  std::vector<uint64_t> payloads;
  for (const ssb::DateRow& d : dates) {
    keys.push_back(d.datekey);
    payloads.push_back(EncodeDate(d));
  }
  Build(keys, payloads);
}

void ExecuteMorselKernel(ssb::QueryId query, const KernelContext& ctx,
                         uint64_t begin, uint64_t end, KernelScratch* scratch,
                         AggTable* groups, int64_t* scalar_sum, bool* scalar,
                         KernelCounters* counters) {
  if (begin >= end) return;
  const ssb::QueryPlan& plan = ssb::PlanFor(query);
  *scalar = plan.scalar();
  const FactImage fact(ctx, begin, end);
  // Indexed by ssb::Dim.
  const DenseDimMap* const maps[ssb::kNumDims] = {ctx.date, ctx.customer,
                                                  ctx.supplier, ctx.part};
  if (ctx.guarded == nullptr) {
    std::array<DenseLookup, ssb::kNumDims> dims{};
    for (size_t d = 0; d < dims.size(); ++d) dims[d] = {maps[d]};
    RunPlan(plan, fact, dims, scratch, groups, scalar_sum, counters);
    return;
  }
  std::array<GuardedLookup, ssb::kNumDims> dims{};
  for (size_t d = 0; d < dims.size(); ++d) {
    dims[d] = {maps[d], ctx.guarded->dims[d], ctx.guarded};
  }
  RunPlan(plan, fact, dims, scratch, groups, scalar_sum, counters);
}

}  // namespace pmemolap
