#include "engine/engine.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>

#include "encoding/encoding.h"
#include "governor/telemetry.h"

namespace pmemolap {

using ssb::QueryId;

namespace {

/// Dimension names in probe and materialize labels, indexed by ssb::Dim.
constexpr const char* kDimNames[ssb::kNumDims] = {"date", "customer",
                                                  "supplier", "part"};

uint64_t Project(uint64_t value, double scale) {
  return static_cast<uint64_t>(
      std::llround(static_cast<double>(value) * scale));
}

}  // namespace

const char* ExecutorKindName(ExecutorKind kind) {
  switch (kind) {
    case ExecutorKind::kSerial:
      return "serial";
    case ExecutorKind::kMorselStealing:
      return "morsel-stealing";
  }
  return "unknown";
}

SsbEngine::SsbEngine(const ssb::Database* db, const MemSystemModel* model,
                     EngineConfig config)
    : db_(db), model_(model), config_(std::move(config)) {}

double SsbEngine::ActualScaleFactor() const {
  return static_cast<double>(db_->lineorder.size()) / 6'000'000.0;
}

Status SsbEngine::Prepare() {
  if (config_.fault != nullptr && config_.durable != nullptr) {
    // Guarded reads repair from db_ in place; durable reads come out of a
    // snapshot epoch. Combining them would give two owners of the row
    // bytes — keep the robustness modes orthogonal.
    return Status::InvalidArgument(
        "fault (guarded) and durable modes are mutually exclusive");
  }
  if (config_.encoding) {
    if (!config_.columnar) {
      // Encoded pricing refines the columnar per-column widths; pricing a
      // 128 B row scan at encoded column bytes would be dishonest.
      return Status::InvalidArgument(
          "encoding requires the columnar layout (EngineConfig::columnar)");
    }
    if (config_.fault != nullptr || config_.durable != nullptr) {
      return Status::InvalidArgument(
          "encoding is incompatible with fault/durable modes (both scan "
          "the guarded/durable row image)");
    }
  }
  if (config_.durable != nullptr &&
      config_.durable->options().capacity_bytes <
          db_->lineorder.size() * sizeof(ssb::LineorderRow)) {
    return Status::InvalidArgument(
        "durable table capacity below the database's lineorder bytes");
  }
  if (config_.tiering != nullptr) {
    if (config_.fault != nullptr || config_.durable != nullptr) {
      // Guarded reads repair into db_'s image and durable reads come out
      // of snapshot epochs — both pin the fact bytes to one owner, which
      // extent migration would contradict. Keep the modes orthogonal.
      return Status::InvalidArgument(
          "tiering is incompatible with fault/durable modes");
    }
    if (!config_.numa_aware_placement) {
      // The unmatched-worker scan split halves bytes across sockets
      // before any extent attribution; tiered pricing needs the scan
      // bytes attributable to concrete extents.
      return Status::InvalidArgument(
          "tiering requires NUMA-aware placement");
    }
    // Extents cover the fact table's row image: the table occupies its
    // full 128 B-per-row footprint on whichever tier holds it, whichever
    // columns a query reads.
    PMEMOLAP_RETURN_NOT_OK(config_.tiering->Attach(
        db_->lineorder.size(), sizeof(ssb::LineorderRow)));
  }
  IndexKind kind = config_.mode == EngineMode::kPmemAware
                       ? IndexKind::kDash
                       : IndexKind::kChained;
  // Fact partitioning: striped across sockets in aware mode, single-socket
  // otherwise (the paper pins Hyrise to one socket).
  const SystemTopology& topology = model_->config().topology;
  int sockets_used = (config_.mode == EngineMode::kPmemAware &&
                      config_.use_both_sockets)
                         ? topology.sockets()
                         : 1;

  const bool guarded = config_.fault != nullptr;
  PmemSpace* space = guarded ? config_.fault->space : nullptr;
  FaultInjector* injector = guarded ? config_.fault->injector : nullptr;
  if (guarded && (space == nullptr || injector == nullptr)) {
    return Status::InvalidArgument(
        "fault domain needs a space and an injector");
  }
  // Projection to project_to_sf. Traffic volumes scale with the lineorder
  // count, but a probe's region scales with its dimension's own
  // cardinality (customer grows with sf, part with log2(sf), date is
  // constant) — which decides the indexes that stay LLC-resident at
  // paper scale.
  const bool project = config_.project_to_sf > 0.0;
  lineorder_scale_ =
      project ? config_.project_to_sf / ActualScaleFactor() : 1.0;
  const ssb::Cardinalities actual =
      ssb::CardinalitiesFor(ActualScaleFactor());
  const ssb::Cardinalities target =
      ssb::CardinalitiesFor(config_.project_to_sf);

  // One step per dimension, in ssb::Dim order (the order the guarded
  // replicas are allocated in). The index only prices probes: every
  // entry holds its row's position. Aware mode's per-socket replicas
  // (§6.2) would hold identical entries, so one index serves every socket
  // and replication is priced as near probes (RecordSocketTraffic's
  // data_socket). The kernels resolve keys through the dense map; in
  // fault mode the payloads live in guarded per-socket replicas and the
  // map holds each key's position in them, so every probe goes through
  // the poison-aware failover path.
  std::vector<int32_t> keys;
  std::vector<uint64_t> values;
  auto prepare_dim = [&](ssb::Dim which,
                         uint64_t ssb::Cardinalities::*cardinality,
                         const auto& rows, auto key_of,
                         auto payload_of) -> Status {
    Dimension& d = dims_[static_cast<size_t>(which)];
    d.index = std::make_unique<DimensionIndex>(kind);
    keys.clear();
    values.clear();
    for (const auto& row : rows) {
      PMEMOLAP_RETURN_NOT_OK(
          d.index->Insert(static_cast<uint64_t>(key_of(row)), keys.size()));
      keys.push_back(key_of(row));
      values.push_back(payload_of(row));
    }
    d.guarded.reset();
    if (guarded) {
      PMEMOLAP_ASSIGN_OR_RETURN(
          d.guarded,
          GuardedDimension::Create(space, injector, values, config_.media));
      std::iota(values.begin(), values.end(), uint64_t{0});
    }
    d.dense.Build(keys, values);
    d.region_scale = project && actual.*cardinality > 0
                         ? static_cast<double>(target.*cardinality) /
                               static_cast<double>(actual.*cardinality)
                         : 1.0;
    return Status::OK();
  };
  PMEMOLAP_RETURN_NOT_OK(prepare_dim(
      ssb::Dim::kDate, &ssb::Cardinalities::date, db_->date,
      [](const ssb::DateRow& d) { return d.datekey; }, EncodeDate));
  PMEMOLAP_RETURN_NOT_OK(prepare_dim(
      ssb::Dim::kCustomer, &ssb::Cardinalities::customer, db_->customer,
      [](const ssb::CustomerRow& c) { return c.custkey; },
      [](const ssb::CustomerRow& c) {
        return EncodeGeo(c.nation, c.region, c.city);
      }));
  PMEMOLAP_RETURN_NOT_OK(prepare_dim(
      ssb::Dim::kSupplier, &ssb::Cardinalities::supplier, db_->supplier,
      [](const ssb::SupplierRow& s) { return s.suppkey; },
      [](const ssb::SupplierRow& s) {
        return EncodeGeo(s.nation, s.region, s.city);
      }));
  PMEMOLAP_RETURN_NOT_OK(prepare_dim(
      ssb::Dim::kPart, &ssb::Cardinalities::part, db_->part,
      [](const ssb::PartRow& p) { return p.partkey; }, EncodePart));
  guarded_fact_.reset();
  if (guarded) {
    // The fact table's byte image, striped and CRC-chunked; db_ stays the
    // repair source (the stand-in for reloading from primary storage).
    PMEMOLAP_ASSIGN_OR_RETURN(
        guarded_fact_,
        GuardedTable::Create(
            space, injector,
            reinterpret_cast<const std::byte*>(db_->lineorder.data()),
            db_->lineorder.size() * sizeof(ssb::LineorderRow),
            config_.fault->fact_options));
    if (config_.fault->breakers != nullptr) {
      BreakerBoard* breakers = config_.fault->breakers;
      guarded_fact_->AttachBreakers(breakers);
      for (Dimension& d : dims_) d.guarded->AttachBreakers(breakers);
    }
  }
  int workers_per_socket =
      std::max(1, config_.threads / std::max(1, sockets_used));
  // Degenerate shapes (threads > lineorder rows): per_worker would
  // truncate to 0, leaving all-but-one range empty while threads still
  // spawn — clamp the effective worker count to the tuple count.
  const uint64_t tuples_per_socket = std::max<uint64_t>(
      1, db_->lineorder.size() / static_cast<uint64_t>(sockets_used));
  if (static_cast<uint64_t>(workers_per_socket) > tuples_per_socket) {
    workers_per_socket = static_cast<int>(tuples_per_socket);
  }
  if (sockets_used == 1) {
    // Collapse onto socket 0. Execute reads only each partition's socket
    // and tuple range, so no per-worker ranges are built.
    partitions_ = {SocketPartition{0, {0, db_->lineorder.size()}, {}}};
  } else {
    Partitioner partitioner(topology);
    PMEMOLAP_ASSIGN_OR_RETURN(
        partitions_,
        partitioner.Partition(db_->lineorder.size(), workers_per_socket));
  }
  // One columnar image backs the kernels unless a row image (durable or
  // fault mode) holds the fact rows: the encoded store when encoding is
  // on, the raw column store otherwise.
  columns_ = ssb::ColumnStore();
  encoded_ = ssb::EncodedColumnStore();
  if (!guarded && config_.durable == nullptr) {
    if (config_.encoding) {
      encoded_ = ssb::EncodedColumnStore(db_->lineorder);
    } else {
      columns_ = ssb::ColumnStore(db_->lineorder);
    }
  }
  // The clamp above also bounds the pool: no point spawning more host
  // threads than there are effective workers. A serial engine's pool has
  // none and runs each plan on the calling thread.
  const bool threaded = config_.parallel_execution &&
                        config_.executor == ExecutorKind::kMorselStealing;
  pool_ = std::make_unique<WorkStealingPool>(
      threaded ? std::min(config_.threads,
                          workers_per_socket *
                              static_cast<int>(partitions_.size()))
               : 0,
      static_cast<int>(partitions_.size()));
  prepared_ = true;
  return Status::OK();
}

uint64_t SsbEngine::ScanBytesForTuples(ssb::QueryId query,
                                       uint64_t tuples) const {
  if (!config_.columnar) return tuples * sizeof(ssb::LineorderRow);
  const std::vector<ssb::LineorderColumn> columns = ssb::ScanColumnsFor(query);
  if (!config_.encoding || encoded_.empty()) {
    return tuples * sizeof(int32_t) * columns.size();
  }
  // Encoded layout: sum the real per-column encoded widths of the
  // columns this query's scan touches (fractional bytes per tuple).
  return encoded_.ScanBytes(columns, tuples);
}

void SsbEngine::Emit(TrafficRecord record, double region_scale,
                     const Traffic& out) const {
  TrafficRecord priced = record;
  priced.bytes = Project(record.bytes, lineorder_scale_);
  priced.region_bytes = Project(record.region_bytes, region_scale);
  out.actual->Record(std::move(record));
  out.priced->Record(std::move(priced));
}

void SsbEngine::RecordSocketTraffic(
    ssb::QueryId query, int socket, const TupleRange& scanned,
    const KernelCounters& counts, int threads_per_socket,
    const governor::GovernorDecision* decision,
    const tiering::TieringSnapshot* tiers, const Traffic& out) const {
  const uint64_t tuples = scanned.size();
  const bool aware = config_.mode == EngineMode::kPmemAware;
  const Media media = config_.media;
  const Media index_media = config_.index_media.value_or(media);
  Media intermediate_media = config_.intermediate_media.value_or(media);
  // Governor actuations on the recorded traffic: staged structures are
  // served from DRAM, write traffic is clamped to the writer-thread
  // target (paper BP2 — past the knee every extra writer costs bandwidth).
  if (decision != nullptr && decision->IsStaged("intermediates")) {
    intermediate_media = Media::kDram;
  }
  const int write_threads =
      decision != nullptr
          ? std::min(threads_per_socket, decision->write_threads)
          : threads_per_socket;
  uint64_t scan_bytes = ScanBytesForTuples(query, tuples);

  // Fact scan.
  if (aware && config_.use_both_sockets && !config_.numa_aware_placement) {
    // Data is striped but workers are not matched to partitions: half the
    // scanned bytes live on the other socket (warm far access).
    TrafficRecord near_scan;
    near_scan.op = OpType::kRead;
    near_scan.pattern = Pattern::kSequentialIndividual;
    near_scan.media = media;
    near_scan.data_socket = socket;
    near_scan.worker_socket = socket;
    near_scan.bytes = scan_bytes / 2;
    near_scan.access_size = 4 * kKiB;
    near_scan.region_bytes = scan_bytes;
    near_scan.threads = threads_per_socket;
    near_scan.label = "scan";
    TrafficRecord far_scan = near_scan;
    far_scan.data_socket = 1 - socket;
    far_scan.bytes = scan_bytes - near_scan.bytes;
    Emit(std::move(near_scan), lineorder_scale_, out);
    Emit(std::move(far_scan), lineorder_scale_, out);
  } else {
    // Tiered placement splits the scan bytes across the tiers the
    // scanned extents occupy, proportional to resident tuples; the PMEM
    // remainder keeps the plain "scan" identity so an all-PMEM placement
    // is byte-identical to tiering off. Cold extents charge modeled SSD
    // sequential reads; hot promoted extents read at DRAM rates.
    uint64_t dram_bytes = 0;
    uint64_t ssd_bytes = 0;
    if (tiers != nullptr && !tiers->empty() && tuples > 0) {
      tiering::TieringSnapshot::TupleShare share =
          tiers->SplitTuples(scanned.begin, scanned.end);
      dram_bytes = static_cast<uint64_t>(
          static_cast<double>(scan_bytes) *
          (static_cast<double>(share.dram) / static_cast<double>(tuples)));
      ssd_bytes = static_cast<uint64_t>(
          static_cast<double>(scan_bytes) *
          (static_cast<double>(share.ssd) / static_cast<double>(tuples)));
    }
    TrafficRecord scan;
    scan.op = OpType::kRead;
    scan.pattern = Pattern::kSequentialIndividual;
    scan.media = media;
    scan.data_socket = socket;
    scan.worker_socket = socket;
    scan.bytes = scan_bytes - dram_bytes - ssd_bytes;
    scan.access_size = 4 * kKiB;
    scan.region_bytes = scan.bytes;
    scan.threads = threads_per_socket;
    scan.label = "scan";
    if (dram_bytes > 0) {
      TrafficRecord dram_scan = scan;
      dram_scan.media = Media::kDram;
      dram_scan.bytes = dram_bytes;
      dram_scan.region_bytes = dram_bytes;
      dram_scan.label = "scan-dram";
      Emit(std::move(dram_scan), lineorder_scale_, out);
    }
    if (ssd_bytes > 0) {
      TrafficRecord ssd_scan = scan;
      ssd_scan.media = Media::kSsd;
      ssd_scan.bytes = ssd_bytes;
      ssd_scan.region_bytes = ssd_bytes;
      ssd_scan.label = "scan-ssd";
      Emit(std::move(ssd_scan), lineorder_scale_, out);
    }
    Emit(std::move(scan), lineorder_scale_, out);
  }

  // Dimension probes. Aware mode prices the paper's per-socket replicas
  // as near probes; without NUMA-aware placement the single copy lives on
  // socket 0.
  for (size_t d = 0; d < dims_.size(); ++d) {
    const uint64_t count = counts.probes[d];
    if (count == 0) continue;
    const DimensionIndex& index = *dims_[d].index;
    ProbeCost cost = index.probe_cost();
    TrafficRecord probe;
    probe.op = OpType::kRead;
    probe.pattern = Pattern::kRandom;
    probe.media = decision != nullptr && decision->IsStaged(kDimNames[d])
                      ? Media::kDram
                      : index_media;
    probe.worker_socket = socket;
    probe.data_socket =
        (aware && config_.numa_aware_placement) ? socket : 0;
    probe.bytes = static_cast<uint64_t>(
        std::llround(static_cast<double>(count) * cost.accesses_per_probe *
                     static_cast<double>(cost.access_bytes)));
    probe.access_size = cost.access_bytes;
    probe.region_bytes = std::max<uint64_t>(index.StorageBytes(), kMiB);
    probe.threads = threads_per_socket;
    probe.label = std::string("probe-") + kDimNames[d];
    Emit(std::move(probe), dims_[d].region_scale, out);
  }

  // The unaware engine executes joins Hyrise-style: every join pass fully
  // materializes its intermediate (position lists + output columns) in the
  // configured media and re-reads it for the next pass — small scattered
  // writes that are brutal on PMEM. The aware engine streams per-worker
  // intermediates instead (recorded below).
  if (!aware) {
    for (size_t d = 0; d < dims_.size(); ++d) {
      const uint64_t rows_into_pass = counts.probes[d];
      if (rows_into_pass == 0) continue;
      TrafficRecord write;
      write.op = OpType::kWrite;
      write.pattern = Pattern::kRandom;
      write.media = intermediate_media;
      write.data_socket = socket;
      write.worker_socket = socket;
      write.bytes = rows_into_pass * 13;
      write.access_size = 64;
      write.region_bytes = 2 * kGiB;
      write.threads = write_threads;
      write.label = std::string("materialize-") + kDimNames[d];
      TrafficRecord read = write;
      read.op = OpType::kRead;
      read.threads = threads_per_socket;  // only writers are clamped
      // The staging region's size is fixed; it does not project.
      Emit(std::move(write), 1.0, out);
      Emit(std::move(read), 1.0, out);
    }
  }

  // Group-aggregate updates: random read+write into the (small) result
  // hash; intermediates: sequential per-worker writes.
  const uint64_t qualifying = counts.qualifying;
  if (qualifying > 0) {
    TrafficRecord agg;
    agg.op = OpType::kRead;
    agg.pattern = Pattern::kRandom;
    agg.media = intermediate_media;
    agg.data_socket = socket;
    agg.worker_socket = socket;
    agg.bytes = qualifying * 64;
    agg.access_size = 64;
    agg.region_bytes = 64 * kMiB;
    agg.threads = threads_per_socket;
    agg.label = "aggregate";
    TrafficRecord agg_write = agg;
    agg_write.op = OpType::kWrite;
    agg_write.threads = write_threads;
    // The result hash's size is fixed; it does not project.
    Emit(std::move(agg), 1.0, out);
    Emit(std::move(agg_write), 1.0, out);

    TrafficRecord intermediate;
    intermediate.op = OpType::kWrite;
    intermediate.pattern = Pattern::kSequentialIndividual;
    intermediate.media = intermediate_media;
    intermediate.data_socket = socket;
    intermediate.worker_socket = socket;
    intermediate.bytes = qualifying * 32;
    intermediate.access_size = 4 * kKiB;
    intermediate.region_bytes = qualifying * 32;
    intermediate.threads = write_threads;
    intermediate.label = "intermediate";
    Emit(std::move(intermediate), lineorder_scale_, out);
  }
}

Status SsbEngine::ExecuteRangeInto(ssb::QueryId query, int socket,
                                   const TupleRange& range,
                                   uint64_t snapshot_epoch, WorkerState* state,
                                   const CancelCheck& cancel) const {
  KernelCounters* counters = &state->counters[static_cast<size_t>(socket)];
  KernelContext ctx;
  ctx.columns = &columns_;
  // Decode-on-scan: with encoding on, the kernels run range filters on
  // the encoded frames and gather every other column at the selection
  // instead of reading the raw columns. Same values, bit-identical results.
  ctx.encoded =
      config_.encoding && !encoded_.empty() ? &encoded_ : nullptr;
  // Governor staging changes only the media probes are priced at
  // (RecordSocketTraffic), never the payloads the kernels read.
  ctx.date = &dim(ssb::Dim::kDate).dense;
  ctx.customer = &dim(ssb::Dim::kCustomer).dense;
  ctx.supplier = &dim(ssb::Dim::kSupplier).dense;
  ctx.part = &dim(ssb::Dim::kPart).dense;
  // Fault mode reads payloads from the replicas near the range's socket.
  GuardedDims guarded;
  if (guarded_fact_ != nullptr) {
    for (size_t d = 0; d < dims_.size(); ++d) {
      guarded.dims[d] = dims_[d].guarded.get();
    }
    guarded.socket = socket;
    ctx.guarded = &guarded;
  }
  if (guarded_fact_ == nullptr && config_.durable == nullptr) {
    ExecuteMorselKernel(query, ctx, range.begin, range.end, &state->scratch,
                        &state->groups, &state->scalar_sum, &state->scalar,
                        counters);
  } else {
    for (uint64_t begin = range.begin; begin < range.end;
         begin += kRowBlockTuples) {
      const uint64_t end = std::min(range.end, begin + kRowBlockTuples);
      PMEMOLAP_RETURN_NOT_OK(
          ReadRows(begin, end, snapshot_epoch, cancel, &state->rows));
      ctx.rows = state->rows.data();
      ExecuteMorselKernel(query, ctx, begin, end, &state->scratch,
                          &state->groups, &state->scalar_sum, &state->scalar,
                          counters);
      PMEMOLAP_RETURN_NOT_OK(guarded.status);
    }
  }
  return Status::OK();
}

Status SsbEngine::ReadRows(uint64_t begin, uint64_t end,
                           uint64_t snapshot_epoch, const CancelCheck& cancel,
                           std::vector<ssb::LineorderRow>* rows) const {
  constexpr uint64_t kRowBytes = sizeof(ssb::LineorderRow);
  rows->resize(end - begin);
  std::byte* dst = reinterpret_cast<std::byte*>(rows->data());
  if (guarded_fact_ == nullptr) {
    // Durable mode: the block is served from the pinned committed
    // snapshot — ranges were clamped to it, so the read cannot run past
    // the epoch's bytes even while ingest keeps committing.
    return config_.durable->ReadSnapshot(snapshot_epoch, begin * kRowBytes,
                                         (end - begin) * kRowBytes, dst);
  }
  // Fault mode: each row comes off the guarded PMEM image — retried,
  // scrubbed or repaired as needed — one read per tuple.
  for (uint64_t i = begin; i < end; ++i) {
    PMEMOLAP_RETURN_NOT_OK(guarded_fact_->Read(
        i * kRowBytes, kRowBytes, dst + (i - begin) * kRowBytes, cancel));
  }
  return Status::OK();
}

ssb::QueryOutput SsbEngine::DrainWorkerOutput(WorkerState* state) {
  ssb::QueryOutput out;
  out.scalar = state->scalar;
  out.value = state->scalar_sum;
  state->groups.MergeInto(&out.groups);
  return out;
}

Result<uint64_t> SsbEngine::Ingest(const ssb::LineorderRow* rows,
                                   uint64_t count) {
  if (config_.durable == nullptr) {
    return Status::FailedPrecondition(
        "Ingest requires a durable table (EngineConfig::durable)");
  }
  if (count == 0) return Status::InvalidArgument("empty ingest batch");
  PMEMOLAP_RETURN_NOT_OK(ssb::CheckForeignKeys(*db_, rows, count));
  PMEMOLAP_ASSIGN_OR_RETURN(
      uint64_t epoch,
      config_.durable->Append(reinterpret_cast<const std::byte*>(rows),
                              count * sizeof(ssb::LineorderRow)));
  PMEMOLAP_RETURN_NOT_OK(CheckDurabilityOracle());
  return epoch;
}

Result<RecoveryStats> SsbEngine::Recover() {
  if (config_.durable == nullptr) {
    return Status::FailedPrecondition(
        "Recover requires a durable table (EngineConfig::durable)");
  }
  if (config_.admission != nullptr) config_.admission->PauseForRecovery();
  Result<RecoveryStats> stats = config_.durable->Recover();
  if (config_.admission != nullptr) {
    config_.admission->ResumeAfterRecovery();
  }
  if (stats.ok()) PMEMOLAP_RETURN_NOT_OK(CheckDurabilityOracle());
  return stats;
}

Status SsbEngine::CheckDurabilityOracle() const {
  const PersistOrderChecker& oracle = config_.durable->order_checker();
  if (oracle.clean()) return Status::OK();
  const std::vector<PersistOrderChecker::Violation> violations =
      oracle.violations();
  const PersistOrderChecker::Violation& first = violations.front();
  return Status::Internal(
      "durability oracle recorded " +
      std::to_string(oracle.total_violations()) +
      " persist-ordering violation(s); first: [" + first.rule + "] " +
      first.region + " line " + std::to_string(first.line) + ": " +
      first.detail);
}

Result<SsbEngine::QueryRun> SsbEngine::Execute(ssb::QueryId query) const {
  return Execute(query, qos::QueryOptions());
}

Result<SsbEngine::QueryRun> SsbEngine::Execute(
    ssb::QueryId query, const qos::QueryOptions& options) const {
  if (!prepared_) {
    return Status::FailedPrecondition("call Prepare() before Execute()");
  }
  // Progress is published on every exit path — a deadline-killed query
  // still reports how far it got.
  qos::QueryProgress progress;
  struct ProgressPublisher {
    const qos::QueryOptions& options;
    qos::QueryProgress& progress;
    ~ProgressPublisher() {
      if (options.progress != nullptr) *options.progress = progress;
    }
  } publisher{options, progress};
  if (options.scan_begin > options.scan_end) {
    return Status::InvalidArgument("scan window begins after it ends");
  }

  FaultInjector* injector =
      config_.fault != nullptr ? config_.fault->injector : nullptr;

  // Snapshot the governor's decision once per Execute: every consumer in
  // this run (staged probes, write clamps, traffic records) acts on the
  // same quantum, so a concurrent Observe can never tear a run's
  // actuation.
  const bool governed = config_.governor != nullptr;
  governor::GovernorDecision decision;
  if (governed) decision = config_.governor->decision();
  const governor::GovernorDecision* decision_ptr =
      governed ? &decision : nullptr;

  // Snapshot the tier placement once per Execute for the same reason:
  // scan pricing and the per-tier byte split act on one quantum's
  // placement even while a concurrent Advance() commits the next.
  const bool tiered = config_.tiering != nullptr;
  tiering::TieringSnapshot tier_snapshot;
  if (tiered) tier_snapshot = config_.tiering->snapshot();
  const tiering::TieringSnapshot* tiers_ptr =
      tiered && !tier_snapshot.empty() ? &tier_snapshot : nullptr;

  // Arm the lifecycle token: wall/modeled deadlines from the options
  // (modeled time defaults to the fault domain's platform clock).
  qos::CancelToken token;
  std::function<double()> default_clock;
  if (injector != nullptr) {
    default_clock = [injector] { return injector->now(); };
  }
  qos::ArmFromOptions(&token, options, default_clock);

  // Admission gate: publish fresh backpressure (executor depth plus the
  // platform degradation estimate), then admit at the query's priority.
  // A shed submission never touches the executor.
  qos::AdmissionTicket ticket;
  if (config_.admission != nullptr) {
    qos::LoadSignal signal;
    signal.executor_depth = pool_->inflight_runs();
    signal.degradation =
        injector != nullptr ? qos::DegradationEstimate(*injector) : 1.0;
    config_.admission->SetLoadSignal(signal);
    Result<qos::AdmissionTicket> admitted =
        config_.admission->Admit(options.priority, &token);
    if (!admitted.ok()) return admitted.status();
    ticket = std::move(admitted.value());
  }
  progress.admitted = true;
  // An already-expired deadline (budget 0) aborts before any work — the
  // same guarantee the between-morsel checks give mid-run.
  PMEMOLAP_RETURN_NOT_OK(token.Check());

  QueryRun run;
  int threads_per_socket = std::max(
      1, config_.threads / std::max<int>(1, static_cast<int>(
                                                partitions_.size())));

  const bool durable = config_.durable != nullptr;
  // Durable mode pins the snapshot once, post-admission: however many
  // epochs commit while the query runs, every range reads the same
  // committed prefix. Ranges are clamped to the snapshot's rows below.
  uint64_t snapshot_epoch = 0;
  uint64_t snapshot_rows = db_->lineorder.size();
  if (durable) {
    snapshot_epoch = options.snapshot_epoch == qos::kLatestSnapshot
                         ? config_.durable->committed_epoch()
                         : options.snapshot_epoch;
    PMEMOLAP_ASSIGN_OR_RETURN(uint64_t snapshot_bytes,
                              config_.durable->SnapshotBytes(snapshot_epoch));
    snapshot_rows = snapshot_bytes / sizeof(ssb::LineorderRow);
  }
  // The scan window (QueryOptions::scan_begin/scan_end) and the durable
  // snapshot compose into one clamp interval: a query reads the tuples
  // inside its window that its snapshot has committed. Default options
  // leave [0, snapshot_rows) — today's behavior exactly.
  const uint64_t window_begin = std::min(options.scan_begin, snapshot_rows);
  const uint64_t window_end = std::min(options.scan_end, snapshot_rows);
  auto clamp_range = [window_begin, window_end](const TupleRange& range) {
    return TupleRange{std::clamp(range.begin, window_begin, window_end),
                      std::clamp(range.end, window_begin, window_end)};
  };
  // Partition i is socket i's share (Partitioner::Partition; a
  // single-socket engine builds socket 0 only), so a morsel's socket
  // indexes the per-socket counters directly.
  const size_t sockets = partitions_.size();
  // The same token the pool polls between morsels also cuts guarded
  // retry storms short: FaultAwareReader checks it between attempts, so a
  // fired deadline stops charging backoff mid-read.
  const CancelCheck cancel_check = [&token] { return token.Check(); };
  // Bytes re-read because morsel boundaries tear 256 B XPLines (only ever
  // non-zero when governed with shaping off — the ablation's "before").
  uint64_t xpline_amplified_bytes = 0;

  // Morsel-granular dispatch: per-socket run queues, idle workers steal
  // across sockets (a serial engine's pool runs them inline), first
  // failure cancels.
  MorselPlan plan = Partitioner::ToMorsels(partitions_, config_.morsel_tuples);
  if (window_begin > 0 || window_end < db_->lineorder.size()) {
    // Clamp the work list to the window/snapshot before
    // shaping/reassignment: tuples outside it (uncommitted rows, or
    // outside the query's scan window) don't exist for this query.
    for (std::vector<Morsel>& queue : plan.queues) {
      for (Morsel& morsel : queue) {
        morsel.begin = std::clamp(morsel.begin, window_begin, window_end);
        morsel.end = std::clamp(morsel.end, window_begin, window_end);
      }
      queue.erase(std::remove_if(
                      queue.begin(), queue.end(),
                      [](const Morsel& m) { return m.size() == 0; }),
                  queue.end());
    }
  }
  if (governed) {
    // A boundary is torn unless it falls on a multiple of the layout's
    // quantum: 2 rows of 128 B or 64 raw 4 B values fill one XPLine, and
    // an encoded column decodes whole 32-value frames. A torn boundary
    // makes both neighbors re-read one XPLine in every stored column the
    // scan reads (the row image stores one).
    uint64_t quantum = kXPLineBytes / sizeof(int32_t);
    if (!config_.columnar) {
      quantum =
          kXPLineBytes / std::gcd(kXPLineBytes, sizeof(ssb::LineorderRow));
    } else if (config_.encoding) {
      quantum = encoding::kFrameValues;
    }
    if (config_.governor->config().shape_morsels) {
      // Snap boundaries before quarantine reassignment — reassignment
      // breaks the queue contiguity shaping relies on.
      AlignMorselPlanTuples(&plan, quantum);
    }
    xpline_amplified_bytes =
        TornBoundaries(plan, quantum) * kXPLineBytes *
        (config_.columnar ? ssb::ScanColumnsFor(query).size() : 1);
  }
  if (config_.fault != nullptr && config_.fault->breakers != nullptr) {
    // Quarantined fault domains don't get "near" work: their queued
    // morsels move to healthy queues (Morsel::socket — and with it the
    // counters it folds into and result identity — is preserved).
    ReassignQuarantinedQueues(&plan,
                              config_.fault->breakers->HealthySockets());
  }
  std::vector<WorkerState> states(
      static_cast<size_t>(std::max(1, pool_->threads())));
  for (WorkerState& state : states) state.counters.resize(sockets);
  progress.units_total = plan.total_morsels();
  WorkStealingPool::RunControl control;
  control.cancel = cancel_check;
  WorkStealingPool::Stats stats;
  control.stats = &stats;
  Status pool_status = pool_->RunWithControl(
      plan,
      [&](const Morsel& morsel, int worker) {
        if (tiered) {
          // Per-morsel heat feed: commutative accumulation, so any steal
          // schedule folds to the same quantum heat.
          config_.tiering->Touch(morsel.begin, morsel.end);
        }
        return ExecuteRangeInto(query, morsel.socket,
                                {morsel.begin, morsel.end}, snapshot_epoch,
                                &states[static_cast<size_t>(worker)],
                                cancel_check);
      },
      control);
  progress.units_executed = stats.executed;
  progress.units_stolen = stats.stolen;
  // The pool counts a morsel whose task failed as neither executed nor
  // dropped; the query's ledger counts it as dropped.
  progress.units_dropped = progress.units_total - stats.executed;
  PMEMOLAP_RETURN_NOT_OK(pool_status);

  // Fold worker states: outputs merge commutatively; probe/qualifying
  // counts roll up per socket for the traffic records.
  std::vector<KernelCounters> socket_counts(sockets);
  std::vector<ssb::QueryOutput> partials;
  partials.reserve(states.size());
  for (WorkerState& state : states) {
    for (size_t socket = 0; socket < sockets; ++socket) {
      socket_counts[socket] += state.counters[socket];
    }
    partials.push_back(DrainWorkerOutput(&state));
  }
  run.output = ssb::MergeOutputs(partials);
  // A query that scanned no tuple still answers in its plan's shape.
  run.output.scalar = ssb::PlanFor(query).scalar();

  ExecutionProfile priced;
  const Traffic traffic{&run.profile, &priced};
  for (const SocketPartition& partition : partitions_) {
    const TupleRange scanned = clamp_range(partition.tuples);
    const KernelCounters& counts =
        socket_counts[static_cast<size_t>(partition.socket)];
    RecordSocketTraffic(query, partition.socket, scanned, counts,
                        threads_per_socket, decision_ptr, tiers_ptr,
                        traffic);
    run.cpu.tuples_scanned += scanned.size();
    run.cpu.probes += std::accumulate(counts.probes.begin(),
                                      counts.probes.end(), uint64_t{0});
    run.cpu.agg_updates += counts.qualifying;
  }

  if (xpline_amplified_bytes > 0) {
    // Morsel boundaries that tear an XPLine make both neighbors re-read
    // the 256 B line — recorded as small random reads against the fact
    // region (too sparse for the LLC to help).
    uint64_t fact_bytes = 0;
    for (const SocketPartition& partition : partitions_) {
      fact_bytes +=
          ScanBytesForTuples(query, clamp_range(partition.tuples).size());
    }
    TrafficRecord torn;
    torn.op = OpType::kRead;
    torn.pattern = Pattern::kRandom;
    torn.media = config_.media;
    torn.data_socket = 0;
    torn.worker_socket = 0;
    torn.bytes = xpline_amplified_bytes;
    torn.access_size = kXPLineBytes;
    torn.region_bytes = std::max(fact_bytes, static_cast<uint64_t>(kMiB));
    torn.threads = threads_per_socket;
    torn.label = "scan-xpline";
    Emit(std::move(torn), lineorder_scale_, traffic);
  }
  const CpuWork priced_cpu = run.cpu.Scaled(lineorder_scale_);

  // The writer clamp also governs any standing background writers (BP2:
  // the whole platform's PMEM writers sit at 4–6 per socket, not just the
  // query's own) — ungoverned runs see the background as configured.
  std::vector<TrafficRecord> background = config_.background;
  if (durable) {
    // The ingest thread's PMEM writes (each epoch's payload and its commit
    // record, one writer) ride along as standing background: the query is
    // costed jointly with them, and — below — the governor's writer clamp
    // applies to them like any other PMEM writer, so ingest writes enter
    // the write-knee loop.
    std::vector<TrafficRecord> ingest = config_.durable->standing_traffic();
    background.insert(background.end(),
                      std::make_move_iterator(ingest.begin()),
                      std::make_move_iterator(ingest.end()));
  }
  if (tiered) {
    // The tier manager's migration traffic rides along the same way.
    // Unlike an external ingest source it copies table extents, which
    // scale with the lineorder count — so it projects by the same factor
    // as the query's own records.
    for (TrafficRecord record : config_.tiering->standing_traffic()) {
      record.bytes = Project(record.bytes, lineorder_scale_);
      record.region_bytes = Project(record.region_bytes, lineorder_scale_);
      background.push_back(std::move(record));
    }
  }
  if (governed) {
    for (TrafficRecord& record : background) {
      if (record.op == OpType::kWrite && record.media == Media::kPmem) {
        record.threads = std::min(record.threads, decision.write_threads);
      }
    }
  }

  QueryTimer timer(model_, config_.timer);
  run.seconds = timer.EstimateSecondsWithBackground(
      priced, priced_cpu, config_.threads, config_.pinning, background,
      &run.phase_seconds);

  if (governed) {
    // Close the loop: one telemetry sample per Execute (the scheduling
    // quantum) carrying the records the run was just priced with.
    governor::TelemetrySample sample = governor::BuildTelemetry(
        *model_, priced.records(), background, config_.pinning);
    config_.governor->Observe(sample);
  }
  if (tiered) {
    // One Execute = one placement quantum: fold this run's touches into
    // the decayed heat and let the loop commit whatever migrations have
    // passed hysteresis. Next quantum's queries see the new placement
    // and carry its migration traffic as background load.
    config_.tiering->Advance();
  }

  run.progress = progress;
  return run;
}

}  // namespace pmemolap
