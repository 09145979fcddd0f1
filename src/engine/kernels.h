// The vectorized SSB kernels: the engine's one implementation of the 13
// queries, in every mode. One staged executor runs each query's
// ssb::QueryPlan over a morsel:
//
//   1. range filters: the first selects the morsel's tuples by range, the
//      rest narrow the selection on values gathered at it;
//   2. joins, in the plan's order: each probes its dimension through a
//      direct-indexed key map (DenseDimMap — SSB keys are dense, so a
//      payload array replaces the hash probe on the host; the Dash/chained
//      indexes only price the probes) for every selected tuple, keeps the
//      tuples whose payload passes the join's tests, and records its
//      carried attribute for each survivor;
//   3. the measure, gathered at the final selection, summed into one
//      scalar or into a flat open-addressing AggTable per worker under the
//      group key built from the carried attributes, merged once at the end
//      of the query.
//
// A dimension is probed only for tuples that survived the previous
// stage, and the per-dimension probe counts feeding the traffic model
// follow that short-circuit order exactly: modeled seconds are a
// function of the data and the config, not of how a morsel is cut.
//
// The fact values come from one of three images, chosen per morsel, through
// two primitives, select-by-range and gather-at-selection: the raw
// ColumnStore (zero copy; a whole-morsel read is answered in place), the
// encoded store (range filters run on the encoded frames, gathers decode
// each touched frame once), or a row image the engine read from a durable
// snapshot or guarded PMEM (fields read at the selected rows). In fault
// mode every dimension payload is read through its GuardedDimension.
//
// The dimension payload encodings (the uint64 values the dense maps and
// guarded replicas hold) live here so every mode shares one definition.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "engine/agg_table.h"
#include "engine/dimension_index.h"
#include "ssb/column_store.h"
#include "ssb/dbgen.h"
#include "ssb/encoded_column_store.h"
#include "ssb/plan.h"
#include "ssb/queries.h"

namespace pmemolap {

class GuardedDimension;

// --- Dimension payload encodings -------------------------------------------

/// Where a plan attribute sits in its dimension's payload: every tested
/// or carried attribute has its own bit field, so reading one is a shift
/// and a mask.
struct PayloadField {
  int shift;
  uint64_t mask;
};

/// Indexed by ssb::Attr.
inline constexpr PayloadField kPayloadFields[ssb::kNumAttrs] = {
    {40, 0xFFFF},      // kYear
    {16, 0xFFFFFF},    // kYearMonthNum
    {8, 0xFF},         // kWeekNumInYear
    {16, 0xFF},        // kRegion
    {24, 0xFF},        // kNation
    {0, 0xFFFF},       // kCity (global CityId)
    {24, 0xFF},        // kMfgr
    {16, 0xFF},        // kCategory (CategoryId)
    {0, 0xFFFF},       // kBrand (BrandId)
};

inline constexpr PayloadField FieldOf(ssb::Attr attr) {
  return kPayloadFields[static_cast<int>(attr)];
}

/// `value` placed in `attr`'s bit field.
inline constexpr uint64_t PutField(ssb::Attr attr, int value) {
  return (static_cast<uint64_t>(value) & FieldOf(attr).mask)
         << FieldOf(attr).shift;
}

/// The date payload; its low byte holds the month, which no plan reads.
inline uint64_t EncodeDate(const ssb::DateRow& d) {
  return PutField(ssb::Attr::kYear, d.year) |
         PutField(ssb::Attr::kYearMonthNum, d.yearmonthnum) |
         PutField(ssb::Attr::kWeekNumInYear, d.weeknuminyear) |
         static_cast<uint64_t>(static_cast<uint8_t>(d.monthnuminyear));
}

inline uint64_t EncodeGeo(int nation, int region, int city) {
  return PutField(ssb::Attr::kNation, nation) |
         PutField(ssb::Attr::kRegion, region) |
         PutField(ssb::Attr::kCity, ssb::CityId(nation, city));
}

inline uint64_t EncodePart(const ssb::PartRow& p) {
  return PutField(ssb::Attr::kMfgr, p.mfgr) |
         PutField(ssb::Attr::kCategory, p.category_id()) |
         PutField(ssb::Attr::kBrand, p.brand_id());
}

// --- Dense dimension fast path ----------------------------------------------

/// Direct-indexed key -> value map. Every SSB dimension has a dense key
/// space (custkey/suppkey/partkey run 1..N; datekey spans the yyyymmdd
/// values of seven years, a ~70k range), so a direct-indexed array
/// replaces the hash probe entirely. The value is the encoded payload, or
/// in fault mode the row's position in its GuardedDimension. Keys must
/// exist: dbgen emits only joinable keys, and ssb::CheckForeignKeys
/// guards import and ingest.
class DenseDimMap {
 public:
  /// Build from parallel key/payload arrays (keys need not be sorted).
  void Build(const std::vector<int32_t>& keys,
             const std::vector<uint64_t>& payloads);
  /// Date-dimension convenience: key = datekey, payload = EncodeDate.
  void Build(const std::vector<ssb::DateRow>& dates);

  uint64_t Lookup(int32_t key) const {
    return payloads_[static_cast<uint32_t>(key - base_)];
  }
  bool empty() const { return payloads_.empty(); }

 private:
  int32_t base_ = 0;
  std::vector<uint64_t> payloads_;
};

// --- Morsel kernel ----------------------------------------------------------

/// Fault mode's dimension payloads: the dense maps give each key's
/// position, and the payload is read from the guarded replica nearest
/// `socket` (failover and repair included). The first failed read is
/// kept in `status`; the stage goes on with payload 0, and the engine
/// fails the query once the kernel returns.
struct GuardedDims {
  /// Indexed by ssb::Dim.
  std::array<GuardedDimension*, ssb::kNumDims> dims{};
  int socket = 0;
  Status status;
};

/// Everything one worker needs to execute a morsel: the fact image plus
/// the dense dimension lookup arrays. The fact values come from `columns`
/// unless `rows` (the morsel's fact rows, rows[0] holding tuple `begin`)
/// or `encoded` (decode-on-scan: range filters on the encoded frames,
/// frame-cached gathers at the selection) is set. A non-null `guarded`
/// reads every dimension payload through the fault layer. Results and
/// probe counts are bit-identical whichever image a morsel reads.
struct KernelContext {
  const ssb::ColumnStore* columns = nullptr;
  const ssb::EncodedColumnStore* encoded = nullptr;
  const DenseDimMap* date = nullptr;
  const DenseDimMap* customer = nullptr;
  const DenseDimMap* supplier = nullptr;
  const DenseDimMap* part = nullptr;
  const ssb::LineorderRow* rows = nullptr;
  GuardedDims* guarded = nullptr;
};

/// Per-dimension probe counts and qualifying tuples of one kernel run, in
/// the stages' short-circuit order. These feed RecordSocketTraffic.
struct KernelCounters {
  /// Indexed by ssb::Dim.
  std::array<uint64_t, ssb::kNumDims> probes{};
  uint64_t qualifying = 0;

  KernelCounters& operator+=(const KernelCounters& other) {
    for (size_t d = 0; d < probes.size(); ++d) probes[d] += other.probes[d];
    qualifying += other.qualifying;
    return *this;
  }
};

/// The plan shapes the executor takes: tests per join, attributes carried
/// per plan, and columns per measure.
inline constexpr int kMaxTests = 2;
inline constexpr int kMaxCarried = 3;
inline constexpr int kMaxMeasureColumns = 2;

/// Reusable per-worker buffers (selection vector, gathered fact values,
/// carried attributes) so the hot loop never allocates.
struct KernelScratch {
  std::vector<uint64_t> sel;  ///< selected tuple indexes (global), ascending
  /// Fact values gathered at the selection: a filter's or a join key's
  /// column, then the measure's columns.
  std::array<std::vector<int32_t>, kMaxMeasureColumns> values;
  /// Carried attributes, aligned with sel, in the plan's carry order.
  std::array<std::vector<int32_t>, kMaxCarried> carried;
};

/// Executes `query`'s plan over tuples [begin, end), accumulating grouped
/// sums into `groups`, a scalar plan's sum into `*scalar_sum` (setting
/// `*scalar`), and probe/qualifying counts into `counters`.
void ExecuteMorselKernel(ssb::QueryId query, const KernelContext& ctx,
                         uint64_t begin, uint64_t end, KernelScratch* scratch,
                         AggTable* groups, int64_t* scalar_sum, bool* scalar,
                         KernelCounters* counters);

}  // namespace pmemolap
