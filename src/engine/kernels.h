// The vectorized SSB kernels: the engine's one implementation of the 13
// queries, in every mode. A morsel executes in columnar stages:
//
//   1. selection-vector predicate evaluation over the morsel's columns
//      (only the columns the flight touches, never the 128 B row);
//   2. dimension probes through direct-indexed key maps (DenseDimMap —
//      SSB keys are dense, so a payload array replaces the hash probe on
//      the host; the Dash/chained indexes only price the probes);
//   3. flat open-addressing aggregation (AggTable) per worker, merged
//      once at the end of the query.
//
// A dimension is probed only for tuples that survived the previous
// stage, and the per-dimension probe counts feeding the traffic model
// follow that short-circuit order exactly: modeled seconds are a
// function of the data and the config, not of how a morsel is cut.
//
// The fact columns come from one of three images, chosen per morsel:
// the raw ColumnStore (zero copy), the encoded store (block decode, and
// flight-1 predicates on the encoded frames), or a row image the engine
// read from a durable snapshot or guarded PMEM (transposed per column
// into the same decode buffers). In fault mode every dimension payload
// is read through its GuardedDimension.
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
#include "ssb/queries.h"

namespace pmemolap {

class GuardedDimension;

// --- Dimension payload encodings -------------------------------------------

inline uint64_t EncodeDate(const ssb::DateRow& d) {
  return (static_cast<uint64_t>(d.year) << 40) |
         (static_cast<uint64_t>(d.yearmonthnum) << 16) |
         (static_cast<uint64_t>(static_cast<uint8_t>(d.weeknuminyear)) << 8) |
         static_cast<uint64_t>(static_cast<uint8_t>(d.monthnuminyear));
}

struct DateAttrs {
  int year;
  int yearmonthnum;
  int week;
};

inline DateAttrs DecodeDate(uint64_t payload) {
  return DateAttrs{static_cast<int>(payload >> 40),
                   static_cast<int>((payload >> 16) & 0xFFFFFF),
                   static_cast<int>((payload >> 8) & 0xFF)};
}

inline uint64_t EncodeGeo(int nation, int region, int city) {
  return (static_cast<uint64_t>(nation) << 16) |
         (static_cast<uint64_t>(region) << 8) | static_cast<uint64_t>(city);
}

struct GeoAttrs {
  int nation;
  int region;
  int city_id;
};

inline GeoAttrs DecodeGeo(uint64_t payload) {
  int nation = static_cast<int>(payload >> 16);
  int city = static_cast<int>(payload & 0xFF);
  return GeoAttrs{nation, static_cast<int>((payload >> 8) & 0xFF),
                  ssb::CityId(nation, city)};
}

inline uint64_t EncodePart(const ssb::PartRow& p) {
  return (static_cast<uint64_t>(p.mfgr) << 16) |
         (static_cast<uint64_t>(p.category) << 8) |
         static_cast<uint64_t>(p.brand);
}

struct PartAttrs {
  int mfgr;
  int category_id;
  int brand_id;
};

inline PartAttrs DecodePart(uint64_t payload) {
  int mfgr = static_cast<int>(payload >> 16);
  int category = static_cast<int>((payload >> 8) & 0xFF);
  int brand = static_cast<int>(payload & 0xFF);
  return PartAttrs{mfgr, ssb::CategoryId(mfgr, category),
                   ssb::BrandId(mfgr, category, brand)};
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

/// One column of a morsel as the kernels see it: a base pointer plus the
/// global index of its first element. The raw path slices the ColumnStore
/// vector directly (base 0, zero copy); the encoded and row-image paths
/// slice a morsel-local buffer (base = morsel begin). The staged flight
/// code is written once against this view.
struct ColumnSlice {
  const int32_t* data = nullptr;
  uint64_t base = 0;

  int32_t operator[](uint64_t global_index) const {
    return data[global_index - base];
  }
};

/// Fault mode's dimension payloads: the dense maps give each key's
/// position, and the payload is read from the guarded replica nearest
/// `socket` (failover and repair included). The first failed read is
/// kept in `status`; the stage goes on with payload 0, and the engine
/// fails the query once the kernel returns.
struct GuardedDims {
  GuardedDimension* date = nullptr;
  GuardedDimension* customer = nullptr;
  GuardedDimension* supplier = nullptr;
  GuardedDimension* part = nullptr;
  int socket = 0;
  Status status;
};

/// Everything one worker needs to execute a morsel: the fact image plus
/// the dense dimension lookup arrays. The fact columns come from
/// `columns` unless `encoded` (decode-on-scan: flight predicates run on
/// the encoded frames, the staged kernels read block-decoded buffers) or
/// `rows` (the morsel's fact rows, rows[0] holding tuple `begin`,
/// transposed per touched column) is set. A non-null `guarded` reads
/// every dimension payload through the fault layer. Results and probe
/// counts are bit-identical whichever image a morsel reads.
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
  uint64_t date_probes = 0;
  uint64_t customer_probes = 0;
  uint64_t supplier_probes = 0;
  uint64_t part_probes = 0;
  uint64_t qualifying = 0;
};

/// Reusable per-worker buffers (selection vectors, gathered payloads,
/// carried attributes) so the hot loop never allocates.
struct KernelScratch {
  std::vector<uint64_t> sel;       ///< selected tuple indexes (global)
  std::vector<uint64_t> payloads;  ///< probed payloads, aligned with sel
  std::vector<int32_t> attr_a;     ///< carried attribute, aligned with sel
  std::vector<int32_t> attr_b;     ///< second carried attribute
  std::vector<int32_t> attr_c;     ///< third carried attribute (flight 1)
  /// Morsel-local column buffers for the encoded and row-image paths, one
  /// per lineorder column (only the flight's touched columns are filled).
  std::array<std::vector<int32_t>, ssb::kNumLineorderColumns> decoded;
};

/// Executes `query` over tuples [begin, end) with the staged columnar
/// kernels, accumulating grouped sums into `groups`, the flight-1 scalar
/// sum into `*scalar_sum` (setting `*scalar`), and probe/qualifying
/// counts into `counters`.
void ExecuteMorselKernel(ssb::QueryId query, const KernelContext& ctx,
                         uint64_t begin, uint64_t end, KernelScratch* scratch,
                         AggTable* groups, int64_t* scalar_sum, bool* scalar,
                         KernelCounters* counters);

}  // namespace pmemolap
