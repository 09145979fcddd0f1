// SsbEngine — the SSB query engine, in the paper's two configurations:
//
//  kPmemAware  (§6.2, "Handcrafted C++"): the fact table is striped across
//    the PMEM of both sockets, dimension indexes (Dash) are replicated per
//    socket (priced as near probes; the replicas would be identical, so
//    one index is built), workers are pinned and touch only near data,
//    rows are 128 B aligned, intermediates are written sequentially per
//    worker.
//
//  kUnaware    (§6.1, "Hyrise"): everything lives on one socket, joins use
//    a chained (pointer-chasing) hash table, no replication, no explicit
//    data placement — PMEM treated as drop-in DRAM.
//
// Queries execute functionally on the real generated data (results are
// validated against ssb::ReferenceExecutor) while an ExecutionProfile
// records the traffic. Each record is also projected where it is made —
// optionally to the paper's sf 50 / sf 100 — and QueryTimer prices the
// projected records through the MemSystemModel.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <string>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/partitioner.h"
#include "core/profile.h"
#include "durability/durable_table.h"
#include "durability/recovery.h"
#include "engine/dimension_index.h"
#include "engine/kernels.h"
#include "engine/timer.h"
#include "exec/pool.h"
#include "fault/fault_domain.h"
#include "fault/guarded_table.h"
#include "governor/governor.h"
#include "memsys/mem_system.h"
#include "qos/admission.h"
#include "qos/cancel_token.h"
#include "qos/query_options.h"
#include "ssb/column_store.h"
#include "ssb/dbgen.h"
#include "ssb/encoded_column_store.h"
#include "ssb/plan.h"
#include "ssb/queries.h"
#include "tiering/tier_manager.h"

namespace pmemolap {

enum class EngineMode {
  kPmemAware,
  kUnaware,
};

/// How worker parallelism is realized on the host.
enum class ExecutorKind {
  /// No threads: the calling thread runs the query's morsel plan inline,
  /// socket queue by socket queue.
  kSerial,
  /// The persistent work-stealing pool with per-socket run queues and
  /// morsel-granular dispatch.
  kMorselStealing,
};

// lint:allow(test-only-api): name table engine_pool_test prints on failure
const char* ExecutorKindName(ExecutorKind kind);

struct EngineConfig {
  EngineMode mode = EngineMode::kPmemAware;
  /// Where tables, indexes, and intermediates live.
  Media media = Media::kPmem;
  /// Hybrid placements (paper §9 future work): override the media of the
  /// randomly probed indexes and/or the write-heavy intermediates while
  /// the base table stays on `media`. -1 = follow `media`.
  std::optional<Media> index_media;
  std::optional<Media> intermediate_media;
  /// Column-store fact layout: scans touch only the queried columns
  /// instead of the full 128 B row (§2.2's column-store motivation).
  bool columnar = false;
  /// Total worker threads.
  int threads = 36;
  /// Use the cores and memory of both sockets (aware mode; the unaware
  /// engine always runs on one socket, like the paper's Hyrise setup).
  bool use_both_sockets = true;
  /// When false (the Table 1 "2-Socket" rung), data is striped but workers
  /// are not matched to their near partitions: half the scan traffic and
  /// all remote probes cross the UPI.
  bool numa_aware_placement = true;
  PinningPolicy pinning = PinningPolicy::kCores;
  /// Project runtimes to this scale factor (0 = report at the actual sf).
  double project_to_sf = 0.0;
  /// Execute morsels on the persistent pool's host threads. Results,
  /// modeled seconds and QueryProgress are the same either way: both
  /// executors run one morsel plan, and this only moves host work off
  /// the calling thread (exercising thread-safe probes, disjoint ranges
  /// and result merging). False forces kSerial.
  bool parallel_execution = true;
  /// Host execution strategy when parallel_execution is on: the pool gets
  /// host threads only for kMorselStealing.
  ExecutorKind executor = ExecutorKind::kMorselStealing;
  /// Scan the compressed encoded column store (src/encoding): each
  /// lineorder column is FoR-bit-packed, dictionary-encoded, or raw —
  /// whichever is smallest — at Prepare; the kernels run range filters
  /// against the encoded frames and decode the frames they gather from,
  /// and fact-scan traffic is priced at the per-column *encoded* byte
  /// widths, so modeled seconds drop by the bytes the encodings save.
  /// Requires `columnar` (encoded pricing is a column-width refinement);
  /// incompatible with fault/durable modes (both read a row image
  /// instead of the column store). Results are bit-identical to the raw
  /// path in every executor mode; off reproduces today's modeled seconds
  /// exactly.
  bool encoding = false;
  /// Tuples per morsel for the work-stealing executor (0 = default).
  uint64_t morsel_tuples = kDefaultMorselTuples;
  /// Non-null switches the engine into fault mode: the fact table and the
  /// dimension payloads are materialized on the domain's (armed) space as
  /// guarded PMEM state, and every read goes through the recovery path
  /// (retry, scrub, replica failover). When the domain carries a breaker
  /// board, Prepare attaches it to the guarded state and Execute
  /// re-plans morsels away from quarantined sockets. Must outlive the
  /// engine.
  FaultDomain* fault = nullptr;
  /// Non-null gates every Execute through this admission controller:
  /// the engine publishes its load signal (pool depth + fault-domain
  /// degradation), admits at the query's priority, and fails fast with
  /// kResourceExhausted when the class's queue is full. Must outlive the
  /// engine.
  qos::AdmissionController* admission = nullptr;
  /// Non-null enables the closed-loop bandwidth governor: every Execute
  /// applies its current actuator decision (writer-thread clamps on write
  /// traffic, 256 B XPLine morsel shaping, DRAM-staged dimension probes)
  /// and feeds one telemetry sample back.
  /// Null = today's fixed behavior, bit-identical modeled seconds. Must
  /// outlive the engine.
  governor::BandwidthGovernor* governor = nullptr;
  /// Standing background traffic (e.g. an ingest load) present for the
  /// whole query: every query record is costed jointly with these classes
  /// (Fig. 11 interference). Given at model scale — project_to_sf does
  /// not rescale it. Empty = today's solo-query timing, bit-identical.
  std::vector<TrafficRecord> background;
  /// Non-null switches the engine into durable mode: the fact rows live
  /// in this crash-consistent DurableTable (fed epoch-by-epoch through
  /// Ingest) instead of db_->lineorder, every read pins a committed
  /// snapshot epoch (QueryOptions::snapshot_epoch), and the table's
  /// standing ingest write traffic (one writer: payload and commit
  /// record) joins the query's background classes — so ingest writes
  /// show up at the governor's write knee. Queries scan
  /// only committed rows: a crash mid-epoch can never surface torn data
  /// to a reader. Mutually exclusive with `fault` guarded mode. Must
  /// outlive the engine.
  DurableTable* durable = nullptr;
  /// Non-null enables three-tier DRAM↔PMEM↔SSD placement of the fact
  /// table (larger-than-memory mode): Prepare attaches the manager's
  /// extent map over lineorder, every Execute prices its fact scan
  /// against one placement snapshot (cold extents charge SSD reads),
  /// feeds per-morsel touches into the heat tracker, carries the
  /// manager's migration traffic as standing background load, and ticks
  /// one placement quantum. Null = today's single-tier pricing,
  /// bit-identical results and modeled seconds. Mutually exclusive with
  /// fault/durable modes; requires NUMA-aware placement. Must outlive
  /// the engine.
  tiering::TierManager* tiering = nullptr;
  TimerConfig timer;
};

class SsbEngine {
 public:
  /// `db` and `model` must outlive the engine.
  SsbEngine(const ssb::Database* db, const MemSystemModel* model,
            EngineConfig config);

  /// Builds dimension indexes and the fact partitioning.
  Status Prepare();

  struct QueryRun {
    ssb::QueryOutput output;
    double seconds = 0.0;   ///< projected runtime (at project_to_sf if set)
    ExecutionProfile profile;  ///< traffic at the actual scale factor
    CpuWork cpu;               ///< CPU work at the actual scale factor
    /// Projected seconds per phase ("scan", "probe-part", ..., "cpu") —
    /// where the query's time goes at the projected scale.
    std::map<std::string, double> phase_seconds;
    /// How far execution got, in morsels. Meaningful mostly when a
    /// deadline cut the run short.
    qos::QueryProgress progress;
  };

  /// Executes one query functionally and projects its runtime.
  Result<QueryRun> Execute(ssb::QueryId query) const;

  /// Execute under query-lifecycle controls: the query is admitted
  /// through config().admission (if set) at options.priority, its
  /// deadline is armed on a cancel token checked *between* morsels (a
  /// kernel never tears mid-morsel), and partial progress is
  /// reported through options.progress and QueryRun::progress. Expired
  /// deadlines return kDeadlineExceeded; shed admissions return
  /// kResourceExhausted; an inverted scan window returns kInvalidArgument
  /// before admission.
  Result<QueryRun> Execute(ssb::QueryId query,
                           const qos::QueryOptions& options) const;

  /// Durable mode: appends `count` rows as one crash-consistent ingest
  /// epoch and returns the committed epoch id. The rows become visible to
  /// queries whose snapshot is at or past that epoch. A row whose
  /// orderdate, custkey, suppkey or partkey matches no dimension row
  /// fails the batch with InvalidArgument before anything is logged. For
  /// results to stay validatable against the reference executor, ingest
  /// must follow db->lineorder prefix order (epoch k extends the ingested
  /// prefix).
  Result<uint64_t> Ingest(const ssb::LineorderRow* rows, uint64_t count);

  /// Durable mode: runs crash recovery over the commit log. While recovery
  /// runs, config().admission (if set) is paused — TryAdmit fails fast
  /// with kUnavailable and Admit waiters queue — so no query can pin a
  /// snapshot against a half-recovered table; the pause lifts before
  /// returning (on every path, error included). FailedPrecondition
  /// without a durable table.
  Result<RecoveryStats> Recover();

  const EngineConfig& config() const { return config_; }
  /// Scale factor of the loaded database (lineorder rows / 6M).
  double ActualScaleFactor() const;

 private:
  /// Surfaces a non-clean runtime durability oracle
  /// (DurableTable::order_checker) as Internal — called after every
  /// Ingest/Recover so a protocol regression fails the operation that
  /// exposed it instead of silently recording violations.
  Status CheckDurabilityOracle() const;

  /// Row-image modes read the fact rows in blocks of this many tuples, so
  /// no buffer grows with the range a worker executes.
  static constexpr uint64_t kRowBlockTuples = 4096;

  /// Accumulator of one host worker. A worker may execute morsels of
  /// several sockets (stealing), so probe/qualifying counts are kept per
  /// socket — the per-socket traffic records stay deterministic under any
  /// steal schedule.
  struct WorkerState {
    AggTable groups;         ///< grouped sums
    int64_t scalar_sum = 0;  ///< a scalar plan's sum
    bool scalar = false;
    /// Per socket, sized once per query to the partition count.
    std::vector<KernelCounters> counters;
    KernelScratch scratch;
    /// One block of fact rows read from the row image (durable, fault).
    std::vector<ssb::LineorderRow> rows;
  };

  /// Executes tuples [range) of `socket`'s partition into `state`
  /// through the kernels. Durable and fault modes read the range from the
  /// row image in blocks of at most kRowBlockTuples; the first failed
  /// fact or dimension read becomes the returned Status.
  Status ExecuteRangeInto(ssb::QueryId query, int socket,
                          const TupleRange& range, uint64_t snapshot_epoch,
                          WorkerState* state,
                          const CancelCheck& cancel = CancelCheck()) const;

  /// Reads fact rows [begin, end) of the row image into `rows`: one
  /// snapshot read at `snapshot_epoch` in durable mode; in fault mode one
  /// GuardedTable::Read per row, in ascending order, each bound to
  /// `cancel`.
  Status ReadRows(uint64_t begin, uint64_t end, uint64_t snapshot_epoch,
                  const CancelCheck& cancel,
                  std::vector<ssb::LineorderRow>* rows) const;

  /// The partial QueryOutput a worker contributed (merges the flat agg
  /// table into the ordered map).
  static ssb::QueryOutput DrainWorkerOutput(WorkerState* state);

  /// One SSB dimension as the engine holds it (dims_, indexed by
  /// ssb::Dim).
  struct Dimension {
    /// Prices probes only (ProbeCost, StorageBytes).
    std::unique_ptr<DimensionIndex> index;
    /// Key -> payload map the kernels probe; in fault mode key ->
    /// position in `guarded`. Governor staging reprices probes as DRAM
    /// reads; the kernels always read this map.
    DenseDimMap dense;
    /// Fault mode: the payloads in guarded per-socket replicas.
    std::unique_ptr<GuardedDimension> guarded;
    /// Projection of the probe region: the dimension's cardinality at
    /// project_to_sf over its cardinality at the actual scale factor.
    double region_scale = 1.0;
  };

  const Dimension& dim(ssb::Dim d) const {
    return dims_[static_cast<size_t>(d)];
  }

  /// Where Execute's traffic goes: each record into `actual` as made
  /// (QueryRun::profile) and into `priced` projected to project_to_sf.
  struct Traffic {
    ExecutionProfile* actual;
    ExecutionProfile* priced;
  };

  /// Records `record` into both of `out`'s profiles. The priced copy
  /// scales bytes by lineorder_scale_ and region_bytes by `region_scale`.
  void Emit(TrafficRecord record, double region_scale,
            const Traffic& out) const;

  /// Emits the traffic records for one socket's share of the work —
  /// `scanned` is the (window/snapshot-clamped) tuple range the socket's
  /// fact scan covered. A non-null `decision` applies the governor's
  /// actuations: staged structures record DRAM traffic and write records
  /// clamp to the decision's writer-thread count. A non-null `tiers`
  /// placement snapshot splits the fact-scan bytes across the tiers the
  /// scanned extents occupy (DRAM/PMEM/SSD media records).
  void RecordSocketTraffic(ssb::QueryId query, int socket,
                           const TupleRange& scanned,
                           const KernelCounters& counts,
                           int threads_per_socket,
                           const governor::GovernorDecision* decision,
                           const tiering::TieringSnapshot* tiers,
                           const Traffic& out) const;

  /// Fact bytes a scan of `tuples` tuples moves: the padded 128 B row in
  /// row layout; in columnar layout each column of ssb::ScanColumnsFor
  /// (the plan's filter, join-key and measure columns) at 4 B, or at its
  /// encoded width when encoding is on.
  uint64_t ScanBytesForTuples(ssb::QueryId query, uint64_t tuples) const;

  const ssb::Database* db_;
  const MemSystemModel* model_;
  EngineConfig config_;
  std::array<Dimension, ssb::kNumDims> dims_;
  /// Projection of traffic volumes (and of the regions that grow with
  /// the fact table): project_to_sf over the actual scale factor; 1
  /// without a projection.
  double lineorder_scale_ = 1.0;
  std::vector<SocketPartition> partitions_;
  /// Columnar projection of the fact table for the kernels: built in
  /// Prepare unless a row image (durable or fault mode) holds the rows or
  /// encoding is on. Empty otherwise.
  ssb::ColumnStore columns_;
  /// The encoded fact image (EngineConfig::encoding): built in Prepare
  /// straight from the rows, scheme picked per column; the only fact
  /// image the kernels read in encoded mode.
  ssb::EncodedColumnStore encoded_;
  /// The executor every Execute dispatches through: built once in
  /// Prepare, with host threads for kMorselStealing and none (inline on
  /// the caller) for kSerial.
  std::unique_ptr<WorkStealingPool> pool_;
  /// Fault mode: the fact byte image in a CRC-guarded striped table.
  std::unique_ptr<GuardedTable> guarded_fact_;
  bool prepared_ = false;
};

}  // namespace pmemolap
