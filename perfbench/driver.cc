// perfbench driver — the repository benchmark.
//
// One process runs one workload for one seed and prints one JSON result
// line (the last line of stdout):
//
//   perfbench_driver --workload scan|short|ingest|tiered --seed N
//                    --seconds S --trace 0|1 [--trace-dir DIR]
//
// Every workload is one closed-loop client (the next operation starts when
// the previous one returns, no think time) running the 13 SSB queries
// round-robin, with modeled times projected to sf 50:
//
//   scan    sf 0.2, the paper's handcrafted Fig. 14 engine: PMEM-aware,
//           row-layout pricing, 36 modeled threads, serial host execution
//           through the vectorized kernels. Every optional layer is off.
//   short   sf 0.02, columnar, governor + admission controller on, 4-thread
//           morsel-stealing pool (4 modeled threads): fixed per-query costs.
//   ingest  sf 0.05, durable mode (ntstore redo log, clwb table apply,
//           runtime persist-order oracle on), governor on without its
//           staging actuator, 36 modeled threads, serial host. A pass
//           appends the fact table in 26 equal epochs; after each epoch the
//           next query runs pinned to it. The pass ends by recreating the
//           durable table.
//   tiered  sf 0.2, columnar + encoded, closed-loop DRAM 10% / PMEM 30% /
//           SSD 60% TierManager, serial host, 36 modeled threads; queries
//           scan 1/8-table windows whose ranks follow Zipf(0.8).
//
// The seed is the only input: it feeds dbgen, the shuffle of hot window
// ranks over the table and the order of each query's windows. The timed
// window lasts S seconds, and at least until a fixed prefix of the schedule
// is done. Host metrics cover every timed operation; modeled and count
// metrics cover the prefix, so two runs of one seed agree on them exactly.
// Every distinct (query, rows) result is checked against
// ssb::ReferenceExecutor over the same rows after the timed window; any
// error or mismatch fails the run (exit 1).
//
// --trace 1 runs the workload twice in one process — once untraced, once
// with spans around every call into a library layer — and prints the
// per-layer metrics derived from the spans plus the tracing overhead on
// each end-to-end metric. Spans are written to DIR, if given, when the run
// ends.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/zipf.h"
#include "core/partitioner.h"
#include "core/pmem_space.h"
#include "durability/durable_table.h"
#include "engine/engine.h"
#include "engine/kernels.h"
#include "exec/pool.h"
#include "governor/governor.h"
#include "governor/telemetry.h"
#include "qos/admission.h"
#include "ssb/reference.h"
#include "tiering/tier_manager.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace pmemolap;
using ssb::QueryId;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

// --- Workloads --------------------------------------------------------------

enum class Kind { kScan, kShort, kIngest, kTiered };

struct Spec {
  Kind kind;
  const char* name;
  double sf;
  /// Consecutive runs of each query. Governed workloads run 3: the
  /// governor commits a decision after 2 identical quanta, so the third
  /// run prices under the query's own decision and modeled seconds do not
  /// hinge on when a neighbouring query's commit landed.
  int burst;
  /// Untimed operations before the window (ingest: one whole pass).
  int warmup_ops;
  /// Modeled and count metrics cover the first this-many timed queries.
  int modeled_queries;
  /// Setups per session; setup_s is their median. Cheap set-ups repeat
  /// more often, so their median holds still against scheduler noise.
  int setups;
};

constexpr int kQueries = ssb::kNumQueries;
constexpr int kEpochsPerPass = 2 * kQueries;  // ingest: one burst per epoch
constexpr int kSegments = 8;                  // tiered windows
constexpr double kWindowSkew = 0.8;           // tiered Zipf exponent
constexpr int kDeck = 16;                     // tiered windows per query per block
constexpr size_t kTwinQueries = kDeck * kQueries;  // tiering overhead probe: one block

constexpr Spec kSpecs[] = {
    {Kind::kScan, "scan", 0.2, 1, 2 * kQueries, 2 * kQueries, 7},
    {Kind::kShort, "short", 0.02, 3, 6 * kQueries, 6 * kQueries, 15},
    // Ingest warms up with one whole pass (an epoch is 1 ingest + a burst
    // of 3 queries; the pass ends with a rebuild) and models the next one.
    {Kind::kIngest, "ingest", 0.05, 3, kEpochsPerPass * (1 + 3) + 1,
     kEpochsPerPass * 3, 7},
    {Kind::kTiered, "tiered", 0.2, 1, 4 * kDeck * kQueries, 16 * kDeck * kQueries, 3},
};

EngineConfig ConfigFor(const Spec& spec) {
  EngineConfig config;
  config.mode = EngineMode::kPmemAware;
  config.media = Media::kPmem;
  config.threads = 36;
  config.project_to_sf = 50.0;
  // A serial host still prices 36 modeled workers: parallel_execution
  // changes host execution only, never modeled seconds.
  config.parallel_execution = false;
  switch (spec.kind) {
    case Kind::kScan:
      break;
    case Kind::kShort:
      config.columnar = true;
      config.threads = 4;
      config.parallel_execution = true;
      config.executor = ExecutorKind::kMorselStealing;
      break;
    case Kind::kIngest:
      break;  // durable mode executes the scalar path
    case Kind::kTiered:
      config.index_media = Media::kDram;
      config.intermediate_media = Media::kDram;
      config.columnar = true;
      config.encoding = true;
      break;
  }
  return config;
}

/// Host threads the engine's pool spawns: SsbEngine::Prepare's clamp,
/// min(threads, workers_per_socket x partitions); 0 without a pool.
int PoolThreads(const EngineConfig& config, const MemSystemModel& model,
                uint64_t rows) {
  if (!config.parallel_execution ||
      config.executor != ExecutorKind::kMorselStealing) {
    return 0;
  }
  const int sockets =
      config.mode == EngineMode::kPmemAware && config.use_both_sockets
          ? model.config().topology.sockets()
          : 1;
  int per_socket = std::max(1, config.threads / sockets);
  const uint64_t tuples_per_socket =
      std::max<uint64_t>(1, rows / static_cast<uint64_t>(sockets));
  if (static_cast<uint64_t>(per_socket) > tuples_per_socket) {
    per_socket = static_cast<int>(tuples_per_socket);
  }
  return std::min(config.threads, per_socket * sockets);
}

int HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// --- Deployment: the engine and everything it points at ---------------------

tiering::TieringConfig TierConfigFor(uint64_t rows) {
  const uint64_t table_bytes = rows * sizeof(ssb::LineorderRow);
  tiering::TieringConfig config;
  config.policy = tiering::TierPolicy::kClosedLoop;
  config.extent_tuples = 1024;
  config.dram_budget_bytes = table_bytes / 10;
  config.pmem_budget_bytes = 3 * table_bytes / 10;
  config.decay = 0.98;
  config.hysteresis_quanta = 3;
  config.incumbent_bonus = 1.5;
  config.migration_budget_bytes =
      16 * config.extent_tuples * sizeof(ssb::LineorderRow);
  return config;
}

struct Deployment {
  EngineConfig config;
  ssb::Database db;
  MemSystemModel model;
  std::unique_ptr<governor::BandwidthGovernor> governor;
  std::unique_ptr<qos::AdmissionController> admission;
  std::unique_ptr<tiering::TierManager> tiers;
  std::unique_ptr<PmemSpace> space;
  std::unique_ptr<DurableTable> durable;
  std::unique_ptr<SsbEngine> engine;
};

/// (Re)creates the durable table and the engine over it. The table keeps
/// DurableTable's defaults: ntstore log, clwb table apply, oracle on.
Status CreateDurableEngine(Deployment* d, Tracer* tracer) {
  d->engine.reset();
  d->durable.reset();
  d->space = std::make_unique<PmemSpace>(d->model.config().topology);
  const uint64_t fact_bytes = d->db.FactBytes();
  DurableTable::Options options;
  options.capacity_bytes = (fact_bytes + kMiB) / kMiB * kMiB + kMiB;
  options.log_bytes = 2 * options.capacity_bytes + 8 * kMiB;
  {
    ScopedSpan span(tracer, "durability.Create");
    PMEMOLAP_ASSIGN_OR_RETURN(
        d->durable, DurableTable::Create(d->space.get(), nullptr, options));
  }
  d->config.durable = d->durable.get();
  d->engine = std::make_unique<SsbEngine>(&d->db, &d->model, d->config);
  ScopedSpan span(tracer, "engine.Prepare");
  return d->engine->Prepare();
}

Result<std::unique_ptr<Deployment>> Build(const Spec& spec, uint64_t seed,
                                          Tracer* tracer) {
  auto d = std::make_unique<Deployment>();
  d->config = ConfigFor(spec);
  {
    ScopedSpan span(tracer, "ssb.Generate");
    PMEMOLAP_ASSIGN_OR_RETURN(
        d->db, ssb::Generate({.scale_factor = spec.sf, .seed = seed}));
  }
  if (spec.kind == Kind::kShort || spec.kind == Kind::kIngest) {
    governor::GovernorConfig governor_config;
    // Under standing ingest traffic the staging actuator flaps with period
    // two, and the seed picks the phase: modeled seconds split into two
    // modes ~10% apart. Ingest keeps the concurrency and writer-clamp
    // actuators, which act on its log writes.
    governor_config.stage_structures = spec.kind != Kind::kIngest;
    d->governor = std::make_unique<governor::BandwidthGovernor>(&d->model,
                                                                governor_config);
    d->config.governor = d->governor.get();
  }
  if (spec.kind == Kind::kShort) {
    d->admission = std::make_unique<qos::AdmissionController>();
    d->config.admission = d->admission.get();
  }
  if (spec.kind == Kind::kTiered) {
    d->tiers = std::make_unique<tiering::TierManager>(
        &d->model, TierConfigFor(d->db.lineorder.size()));
    d->config.tiering = d->tiers.get();
  }
  if (spec.kind == Kind::kIngest) {
    PMEMOLAP_RETURN_NOT_OK(CreateDurableEngine(d.get(), tracer));
    return d;
  }
  d->engine = std::make_unique<SsbEngine>(&d->db, &d->model, d->config);
  ScopedSpan span(tracer, "engine.Prepare");
  PMEMOLAP_RETURN_NOT_OK(d->engine->Prepare());
  return d;
}

// --- The seeded operation schedule -------------------------------------------

struct Op {
  enum Type { kQuery, kIngest, kRebuild } type = kQuery;
  QueryId query = QueryId::kQ1_1;
  /// Rows the query reads: a scan window, or the committed prefix.
  uint64_t begin = 0;
  uint64_t end = 0;
  uint64_t ingest_begin = 0;  ///< kIngest: rows [ingest_begin, end)
  /// The loop may stop before this op (ingest stops only between passes).
  bool boundary = true;
};

/// kDeck Zipf(kWindowSkew) ranks in exact proportion (largest remainder):
/// a shuffled deck gives every seed the same rank mix per block, so the
/// seed moves the order of windows but not how often each rank is hit.
std::vector<int> ZipfDeck() {
  const ZipfSampler zipf(kSegments, kWindowSkew);
  std::vector<int> counts(kSegments);
  std::vector<std::pair<double, int>> remainders;
  int dealt = 0;
  for (int rank = 0; rank < kSegments; ++rank) {
    const double share = zipf.MassOf(static_cast<uint64_t>(rank)) * kDeck;
    counts[static_cast<size_t>(rank)] = static_cast<int>(share);
    dealt += counts[static_cast<size_t>(rank)];
    remainders.push_back({share - std::floor(share), rank});
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (int i = 0; dealt < kDeck; ++i, ++dealt) {
    ++counts[static_cast<size_t>(remainders[static_cast<size_t>(i)].second)];
  }
  std::vector<int> deck;
  for (int rank = 0; rank < kSegments; ++rank) {
    deck.insert(deck.end(), static_cast<size_t>(counts[static_cast<size_t>(rank)]), rank);
  }
  return deck;
}

class Schedule {
 public:
  Schedule(const Spec& spec, uint64_t rows, uint64_t seed)
      : spec_(spec), rows_(rows), rng_(seed ^ 0x5C4ED01EULL) {
    if (spec.kind == Kind::kTiered) {
      // Hot ranks shuffled across the address space, so address order
      // carries no information about heat.
      for (int i = 0; i < kSegments; ++i) rank_to_segment_.push_back(i);
      Shuffle(&rank_to_segment_);
      decks_.assign(kQueries, ZipfDeck());
    }
  }

  Op Next() {
    if (spec_.kind == Kind::kIngest) return NextIngest();
    const size_t q = static_cast<size_t>(step_++ / static_cast<uint64_t>(spec_.burst) %
                                         kQueries);
    Op op;
    op.query = ssb::AllQueries()[q];
    op.end = rows_;
    if (spec_.kind == Kind::kTiered) {
      std::vector<int>& deck = decks_[q];
      if (dealt_[q] % kDeck == 0) Shuffle(&deck);
      const int rank = deck[dealt_[q]++ % kDeck];
      const uint64_t segment_rows = rows_ / kSegments;
      op.begin = static_cast<uint64_t>(rank_to_segment_[static_cast<size_t>(rank)]) *
                 segment_rows;
      op.end = op.begin + segment_rows;
    }
    return op;
  }

 private:
  void Shuffle(std::vector<int>* values) {
    for (size_t i = values->size() - 1; i > 0; --i) {
      std::swap((*values)[i], (*values)[rng_.NextBelow(i + 1)]);
    }
  }

  /// A pass appends the fact table in kEpochsPerPass equal epochs; after
  /// each epoch one query (round-robin) runs its burst pinned to that
  /// epoch. The pass ends by recreating the table.
  Op NextIngest() {
    const int per_epoch = 1 + spec_.burst;
    const int per_pass = kEpochsPerPass * per_epoch + 1;
    const int at = static_cast<int>(step_++ % static_cast<uint64_t>(per_pass));
    Op op;
    op.boundary = at == 0;
    if (at == per_pass - 1) {
      op.type = Op::kRebuild;
      return op;
    }
    const uint64_t epoch = static_cast<uint64_t>(at / per_epoch);
    op.end = rows_ * (epoch + 1) / kEpochsPerPass;
    if (at % per_epoch == 0) {
      op.type = Op::kIngest;
      op.ingest_begin = rows_ * epoch / kEpochsPerPass;
      return op;
    }
    op.query = ssb::AllQueries()[epoch % kQueries];
    return op;
  }

  Spec spec_;
  uint64_t rows_;
  Rng rng_;
  std::vector<int> rank_to_segment_;
  std::vector<std::vector<int>> decks_;
  size_t dealt_[kQueries] = {};
  uint64_t step_ = 0;
};

// --- Per-layer accumulation over the modeled prefix ---------------------------

const char* const kPhases[] = {"scan",           "scan-dram",     "scan-ssd",
                               "scan-xpline",    "probe-date",    "probe-customer",
                               "probe-supplier", "probe-part",    "aggregate",
                               "materialize",    "intermediate",  "cpu"};
constexpr size_t kNumPhases = sizeof(kPhases) / sizeof(kPhases[0]);

struct Layers {
  uint64_t queries = 0;
  uint64_t tuples = 0;
  uint64_t probes = 0;
  uint64_t agg = 0;
  double phase_s[kNumPhases] = {};
  /// [op][media]: op 0 read / 1 write; media DRAM, PMEM, SSD.
  double bytes[2][3] = {};
  uint64_t morsels = 0;
  uint64_t executed = 0;
  uint64_t stolen = 0;
  // Tiering: window tuples per tier at execution time, migration writes.
  uint64_t fast_tuples = 0;
  uint64_t ssd_tuples = 0;
  uint64_t window_tuples = 0;
  double migration_bytes = 0.0;
  uint64_t migrations = 0;
  // Governor state once the prefix is done.
  uint64_t actuations = 0;
  double staged_mib = 0.0;
  // Durability over the first timed pass.
  uint64_t epochs = 0;
  uint64_t user_bytes = 0;
  uint64_t stored_lines = 0;
  uint64_t flush_lines = 0;
  uint64_t fences = 0;
  double modeled_ingest_s = 0.0;
};

void AccumulateRun(const SsbEngine::QueryRun& run, Layers* layers) {
  ++layers->queries;
  layers->tuples += run.cpu.tuples_scanned;
  layers->probes += run.cpu.probes;
  layers->agg += run.cpu.agg_updates;
  for (const auto& [label, seconds] : run.phase_seconds) {
    const std::string phase =
        label.starts_with("materialize-") ? "materialize" : label;
    for (size_t i = 0; i < kNumPhases; ++i) {
      if (phase == kPhases[i]) layers->phase_s[i] += seconds;
    }
  }
  for (const TrafficRecord& record : run.profile.records()) {
    const int op = record.op == OpType::kWrite ? 1 : 0;
    const int media = record.media == Media::kDram   ? 0
                      : record.media == Media::kPmem ? 1
                                                     : 2;
    layers->bytes[op][media] += static_cast<double>(record.bytes);
  }
  layers->morsels += run.progress.units_total;
  layers->executed += run.progress.units_executed;
  layers->stolen += run.progress.units_stolen;
}

size_t CountLines(const std::vector<std::string>& log, const char* needle) {
  return static_cast<size_t>(std::count_if(
      log.begin(), log.end(), [needle](const std::string& line) {
        return line.find(needle) != std::string::npos;
      }));
}

// --- One session: setups, warm-up, timed window, correctness ----------------

struct Session {
  std::vector<double> setup_s;
  std::vector<double> query_s;    ///< host seconds of every timed query
  std::vector<double> modeled_s;  ///< modeled seconds of the prefix queries
  std::vector<double> ingest_s;   ///< host seconds of every timed ingest
  uint64_t ingest_rows = 0;
  double busy_s = 0.0;  ///< sum of timed operation host seconds
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double peak_rss_mib = 0.0;
  int pool_threads = 0;
  std::unique_ptr<Deployment> deployment;
};

/// The percentile with at least ten samples above it, capped at p99.
double TailPercentile(size_t samples) {
  if (samples == 0) return 99.0;
  return std::min(99.0, 100.0 * (1.0 - 10.0 / static_cast<double>(samples)));
}

using ResultKey = std::tuple<int, uint64_t, uint64_t>;  // query, begin, end

/// Compares every distinct (query, rows) output with ReferenceExecutor
/// over a copy of exactly those rows. Returns the number of mismatches.
uint64_t CheckAgainstReference(const ssb::Database& db,
                               const std::map<ResultKey, ssb::QueryOutput>& outputs,
                               Tracer* tracer) {
  ScopedSpan span(tracer, "ssb.ReferenceExecutor");
  uint64_t mismatches = 0;
  auto it = outputs.begin();
  while (it != outputs.end()) {
    const uint64_t begin = std::get<1>(it->first);
    const uint64_t end = std::get<2>(it->first);
    ssb::Database rows;
    const ssb::Database* source = &db;
    if (begin != 0 || end != db.lineorder.size()) {
      rows.date = db.date;
      rows.customer = db.customer;
      rows.supplier = db.supplier;
      rows.part = db.part;
      rows.lineorder.assign(db.lineorder.begin() + static_cast<ptrdiff_t>(begin),
                            db.lineorder.begin() + static_cast<ptrdiff_t>(end));
      source = &rows;
    }
    const ssb::ReferenceExecutor reference(source);
    for (; it != outputs.end() && std::get<1>(it->first) == begin &&
           std::get<2>(it->first) == end;
         ++it) {
      const QueryId query = static_cast<QueryId>(std::get<0>(it->first));
      if (reference.Execute(query) != it->second) {
        std::fprintf(stderr, "mismatch: %s over rows [%llu, %llu)\n",
                     ssb::QueryName(query).c_str(),
                     static_cast<unsigned long long>(begin),
                     static_cast<unsigned long long>(end));
        ++mismatches;
      }
    }
  }
  return mismatches;
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_dir;  ///< where spans are written; empty = not written
};

/// Runs one session. `tracer` records spans (null when untraced); non-null
/// `layers` also collects the per-layer counts and in-loop probes.
Result<Session> RunSession(const Spec& spec, const RunOptions& options,
                           Tracer* tracer, Layers* layers) {
  Session session;
  for (int k = 0; k < spec.setups; ++k) {
    // One deployment resident at a time; returning the freed heap keeps
    // peak RSS a property of the workload, not of the repetition count.
    session.deployment.reset();
    malloc_trim(0);
    const Clock::time_point start = Clock::now();
    PMEMOLAP_ASSIGN_OR_RETURN(session.deployment,
                              Build(spec, options.seed, tracer));
    session.setup_s.push_back(SecondsSince(start));
  }
  Deployment& d = *session.deployment;
  const uint64_t rows = d.db.lineorder.size();
  session.pool_threads = PoolThreads(d.config, d.model, rows);

  Schedule schedule(spec, rows, options.seed);
  std::map<ResultKey, ssb::QueryOutput> outputs;
  QueryTimer timer(&d.model, d.config.timer);
  governor::BandwidthGovernor scratch_governor(&d.model);
  uint64_t committed = 0;  // latest committed epoch (ingest)
  int64_t op_id = 0;
  size_t timed_queries = 0;

  auto run_op = [&](const Op& op, bool timed) -> Status {
    const bool prefix = timed && timed_queries < static_cast<size_t>(spec.modeled_queries);
    if (op.type == Op::kRebuild) return CreateDurableEngine(&d, tracer);
    if (op.type == Op::kIngest) {
      d.durable->DrainIngestTraffic();  // the previous epoch's writes ended
      const uint64_t count = op.end - op.ingest_begin;
      const Clock::time_point start = Clock::now();
      Result<uint64_t> epoch = [&] {
        ScopedSpan span(tracer, "engine.Ingest", op_id);
        return d.engine->Ingest(d.db.lineorder.data() + op.ingest_begin, count);
      }();
      const double seconds = SecondsSince(start);
      if (timed) {
        ++session.attempted;
        session.ingest_s.push_back(seconds);
        session.ingest_rows += count;
        session.busy_s += seconds;
      }
      if (!epoch.ok()) {
        if (timed) ++session.failed;
        return epoch.status();
      }
      committed = epoch.value();
      if (layers != nullptr && timed && op.end == rows && layers->epochs == 0) {
        // End of the first timed pass: the durability counters of a fresh
        // table after exactly one pass.
        layers->epochs = static_cast<uint64_t>(kEpochsPerPass);
        layers->user_bytes = d.db.FactBytes();
        const PersistentRegion& table = d.durable->table_region();
        const PersistentRegion& log = d.durable->log_region();
        layers->stored_lines = table.store_lines() + log.store_lines();
        layers->flush_lines = table.flush_lines() + log.flush_lines();
        layers->fences = table.fences() + log.fences();
        layers->modeled_ingest_s = d.durable->modeled_seconds();
      }
      return Status::OK();
    }

    qos::QueryOptions query_options;
    if (spec.kind == Kind::kTiered) {
      query_options.scan_begin = op.begin;
      query_options.scan_end = op.end;
    }
    if (spec.kind == Kind::kIngest) query_options.snapshot_epoch = committed;
    tiering::TieringSnapshot::TupleShare share;
    if (layers != nullptr && prefix && d.tiers != nullptr) {
      share = d.tiers->snapshot().SplitTuples(op.begin, op.end);
    }
    const Clock::time_point start = Clock::now();
    Result<SsbEngine::QueryRun> run = [&] {
      ScopedSpan span(tracer, "engine.Execute", op_id);
      return d.engine->Execute(op.query, query_options);
    }();
    const double seconds = SecondsSince(start);
    if (timed) {
      ++session.attempted;
      session.query_s.push_back(seconds);
      session.busy_s += seconds;
      ++timed_queries;
    }
    if (!run.ok()) {
      if (timed) ++session.failed;
      std::fprintf(stderr, "%s failed: %s\n", ssb::QueryName(op.query).c_str(),
                   run.status().ToString().c_str());
      return Status::OK();
    }
    const ResultKey key{static_cast<int>(op.query), op.begin, op.end};
    auto [found, inserted] = outputs.try_emplace(key, run->output);
    if (!inserted && found->second != run->output) {
      std::fprintf(stderr, "%s: result changed between executions\n",
                   ssb::QueryName(op.query).c_str());
      if (timed) ++session.failed;
    }
    if (!prefix) return Status::OK();
    session.modeled_s.push_back(run->seconds);
    if (layers == nullptr) return Status::OK();

    // In-loop layer probes on this run's own profile, outside the timed
    // call. Background: the standing traffic the engine costed the query
    // with (durable ingest or tier migrations; empty otherwise).
    AccumulateRun(run.value(), layers);
    std::vector<TrafficRecord> background = d.config.background;
    if (d.durable != nullptr) background = d.durable->standing_traffic();
    if (d.tiers != nullptr) background = d.tiers->standing_traffic();
    {
      ScopedSpan span(tracer, "engine.EstimateSeconds", op_id);
      timer.EstimateSecondsWithBackground(run->profile, run->cpu,
                                          d.config.threads, d.config.pinning,
                                          background);
    }
    if (d.governor != nullptr) {
      governor::TelemetrySample sample;
      {
        ScopedSpan span(tracer, "governor.BuildTelemetry", op_id);
        sample = governor::BuildTelemetry(d.model, run->profile.records(),
                                          background, d.config.pinning);
      }
      ScopedSpan span(tracer, "governor.Observe", op_id);
      scratch_governor.Observe(sample);
    }
    if (d.tiers != nullptr) {
      layers->fast_tuples += share.dram + share.pmem;
      layers->ssd_tuples += share.ssd;
      layers->window_tuples += share.total();
      for (const TrafficRecord& record : d.tiers->standing_traffic()) {
        if (record.op == OpType::kWrite) {
          layers->migration_bytes += static_cast<double>(record.bytes);
        }
      }
    }
    return Status::OK();
  };

  for (int i = 0; i < spec.warmup_ops; ++i) {
    PMEMOLAP_RETURN_NOT_OK(run_op(schedule.Next(), /*timed=*/false));
  }
  size_t migrations_before = 0;
  if (layers != nullptr && d.tiers != nullptr) {
    migrations_before = CountLines(d.tiers->actuator_log(), "migrate e");
  }

  const Clock::time_point window = Clock::now();
  bool prefix_done = false;
  while (true) {
    const Op op = schedule.Next();
    if (op.boundary && prefix_done && SecondsSince(window) >= options.seconds) break;
    PMEMOLAP_RETURN_NOT_OK(run_op(op, /*timed=*/true));
    ++op_id;
    if (!prefix_done &&
        timed_queries >= static_cast<size_t>(spec.modeled_queries)) {
      prefix_done = true;
      if (layers != nullptr && d.governor != nullptr) {
        layers->actuations = CountLines(d.governor->actuator_log(), "commit");
        layers->staged_mib =
            static_cast<double>(d.governor->decision().staged_bytes) /
            static_cast<double>(kMiB);
      }
      if (layers != nullptr && d.tiers != nullptr) {
        layers->migrations =
            CountLines(d.tiers->actuator_log(), "migrate e") - migrations_before;
      }
    }
  }
  session.peak_rss_mib = PeakRssMib();
  session.failed += CheckAgainstReference(d.db, outputs, tracer);
  return session;
}

// --- Metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool higher_is_better = false;
};

/// A session's summary: the host metrics, then the end-to-end metrics.
/// Host metrics are per-layer (unbounded): slow host episodes outlast a
/// run and recur within a campaign, so their spread across ten runs went
/// past the largest allowed bound in every episode (see README).
std::vector<Metric> Summary(const Session& s) {
  std::vector<double> ms;
  for (double seconds : s.query_s) ms.push_back(seconds * 1e3);
  const double qps = s.busy_s > 0.0 ? static_cast<double>(ms.size()) / s.busy_s : 0.0;
  const double attempted = static_cast<double>(std::max<uint64_t>(1, s.attempted));
  return {
      {"host.qps", qps, "q/s", true},
      {"host.p50_ms", Median(ms), "ms"},
      {"host.p99_ms", Percentile(ms, TailPercentile(ms.size())), "ms"},
      {"modeled_geomean_s", GeoMean(s.modeled_s), "s"},
      // Modeled seconds are a deterministic function of the schedule, so
      // the plain p99 of the prefix is exact; no sample-count rule applies.
      {"modeled_p99_s", Percentile(s.modeled_s, 99.0), "s"},
      {"setup_s", Median(s.setup_s), "s"},
      {"peak_rss_mib", s.peak_rss_mib, "MiB"},
      {"correct_frac", 1.0 - static_cast<double>(s.failed) / attempted, "ratio", true},
  };
}

// --- Standalone layer probes (traced runs) ------------------------------------

constexpr int kProbeReps = 5;

/// Median host seconds per call of `call`, run `batch` times per span.
template <typename F>
double TimePerCall(Tracer* tracer, const std::string& name, int batch, F&& call) {
  for (int rep = 0; rep < kProbeReps; ++rep) {
    ScopedSpan span(tracer, name);
    for (int i = 0; i < batch; ++i) call();
  }
  return Median(tracer->Seconds(name)) / batch;
}

struct DenseMaps {
  DenseDimMap date, customer, supplier, part;
};

DenseMaps BuildDenseMaps(const ssb::Database& db) {
  DenseMaps maps;
  maps.date.Build(db.date);
  std::vector<int32_t> keys;
  std::vector<uint64_t> payloads;
  auto build = [&](DenseDimMap* map, const auto& table, auto key, auto payload) {
    keys.clear();
    payloads.clear();
    for (const auto& row : table) {
      keys.push_back(key(row));
      payloads.push_back(payload(row));
    }
    map->Build(keys, payloads);
  };
  build(&maps.customer, db.customer, [](const ssb::CustomerRow& c) { return c.custkey; },
        [](const ssb::CustomerRow& c) { return EncodeGeo(c.nation, c.region, c.city); });
  build(&maps.supplier, db.supplier, [](const ssb::SupplierRow& s) { return s.suppkey; },
        [](const ssb::SupplierRow& s) { return EncodeGeo(s.nation, s.region, s.city); });
  build(&maps.part, db.part, [](const ssb::PartRow& p) { return p.partkey; },
        [](const ssb::PartRow& p) { return EncodePart(p); });
  return maps;
}

/// Host ns per tuple of the 13 vectorized kernels over the whole table,
/// one thread, in default-size morsels.
double KernelNsPerTuple(Tracer* tracer, const std::string& name,
                        const KernelContext& ctx, uint64_t rows) {
  KernelScratch scratch;
  const double seconds = TimePerCall(tracer, name, 1, [&] {
    for (QueryId query : ssb::AllQueries()) {
      AggTable groups;
      int64_t sum = 0;
      bool scalar = false;
      KernelCounters counters;
      for (uint64_t begin = 0; begin < rows; begin += kDefaultMorselTuples) {
        ExecuteMorselKernel(query, ctx, begin,
                            std::min(rows, begin + kDefaultMorselTuples),
                            &scratch, &groups, &sum, &scalar, &counters);
      }
    }
  });
  return seconds * 1e9 / static_cast<double>(rows * kQueries);
}

/// Tiering's host overhead per query: one block of the workload's windows
/// on the tiered engine and on an untiered twin, alternated window by
/// window (and in which runs first) so both sides see the same host state.
/// Median of the per-window differences; a window counts only when both
/// runs succeed.
double TieringOverheadUs(const Spec& spec, uint64_t seed, Deployment& d, Tracer* tracer) {
  EngineConfig twin_config = d.config;
  twin_config.tiering = nullptr;
  SsbEngine twin(&d.db, &d.model, twin_config);
  {
    ScopedSpan span(tracer, "tiering.twin.Prepare");
    if (!twin.Prepare().ok()) return 0.0;
  }
  // Host seconds of one windowed query, or -1 if it failed.
  auto run_window = [&](SsbEngine* engine, const char* name, int64_t id, const Op& op) {
    qos::QueryOptions options;
    options.scan_begin = op.begin;
    options.scan_end = op.end;
    ScopedSpan span(tracer, name, id);
    const Clock::time_point start = Clock::now();
    return engine->Execute(op.query, options).ok() ? SecondsSince(start) : -1.0;
  };
  Schedule windows(spec, d.db.lineorder.size(), seed);
  std::vector<double> deltas;
  for (size_t i = 0; i < kTwinQueries; ++i) {
    const Op op = windows.Next();
    const int64_t id = static_cast<int64_t>(i);
    double tiered = 0.0, untiered = 0.0;
    if (i % 2 == 0) {
      tiered = run_window(d.engine.get(), "tiering.Execute", id, op);
      untiered = run_window(&twin, "tiering.twin.Execute", id, op);
    } else {
      untiered = run_window(&twin, "tiering.twin.Execute", id, op);
      tiered = run_window(d.engine.get(), "tiering.Execute", id, op);
    }
    if (tiered < 0.0 || untiered < 0.0) break;
    deltas.push_back(tiered - untiered);
  }
  return deltas.empty() ? 0.0 : Median(deltas) * 1e6;
}

/// Probes the layers a deployment exercises, from outside, and appends
/// their metrics. Layers the workload bypasses report 0.
void ProbeLayers(const Spec& spec, uint64_t seed, Deployment& d, const Session& session,
                 const Layers& layers, Tracer* tracer, std::vector<Metric>* out) {
  const uint64_t rows = d.db.lineorder.size();
  const double queries = static_cast<double>(std::max<uint64_t>(1, layers.queries));
  const double tuples = static_cast<double>(std::max<uint64_t>(1, layers.tuples));
  auto add = [out](std::string name, double value, std::string unit) {
    out->push_back({std::move(name), value, std::move(unit)});
  };

  add("ssb.generate_s", Median(tracer->Seconds("ssb.Generate")), "s");
  add("engine.prepare_s", Median(tracer->Seconds("engine.Prepare")), "s");

  const ssb::ColumnStore columns(d.db.lineorder);
  const DenseMaps maps = BuildDenseMaps(d.db);
  KernelContext ctx{&columns, nullptr, &maps.date, &maps.customer,
                    &maps.supplier, &maps.part};
  // Durable mode reads through the scalar path; the kernels are bypassed.
  add("engine.kernel_ns_per_tuple",
      d.durable == nullptr
          ? KernelNsPerTuple(tracer, "engine.ExecuteMorselKernel", ctx, rows)
          : 0.0,
      "ns");
  add("engine.price_us", Median(tracer->Seconds("engine.EstimateSeconds")) * 1e6, "us");
  add("engine.tuples_per_query", static_cast<double>(layers.tuples) / queries, "count");
  add("engine.probes_per_tuple", static_cast<double>(layers.probes) / tuples, "ratio");
  add("engine.agg_per_tuple", static_cast<double>(layers.agg) / tuples, "ratio");
  for (size_t i = 0; i < kNumPhases; ++i) {
    add(std::string("engine.phase.") + kPhases[i] + "_s", layers.phase_s[i] / queries, "s");
  }
  const char* const ops[] = {"read", "write"};
  const char* const media[] = {"dram", "pmem", "ssd"};
  for (int op = 0; op < 2; ++op) {
    for (int m = 0; m < 3; ++m) {
      add(std::string("engine.bytes.") + ops[op] + "." + media[m],
          layers.bytes[op][m] / queries, "B");
    }
  }

  // exec / core / qos: only the pooled, admitted path plans morsels.
  const bool pooled = session.pool_threads > 0;
  std::vector<SocketPartition> partitions;
  if (pooled) {
    const int sockets = d.model.config().topology.sockets();
    auto parts = Partitioner(d.model.config().topology)
                     .Partition(rows, session.pool_threads / sockets);
    if (parts.ok()) partitions = std::move(parts.value());
  }
  MorselPlan plan;
  double plan_us = 0.0;
  if (pooled) {
    plan_us = 1e6 * TimePerCall(tracer, "core.ToMorsels", 1000, [&] {
      plan = Partitioner::ToMorsels(partitions, d.config.morsel_tuples);
      if (d.config.governor != nullptr) {
        AlignMorselPlan(&plan, sizeof(int32_t) * 4);
      }
    });
  }
  add("core.plan_us", plan_us, "us");
  double admit_us = 0.0;
  if (d.admission != nullptr) {
    qos::AdmissionController scratch(d.admission->limits());
    admit_us = 1e6 * TimePerCall(tracer, "qos.Admit", 1000, [&] {
      Result<qos::AdmissionTicket> ticket = scratch.Admit(qos::QueryPriority::kNormal);
      if (ticket.ok()) ticket->Release();
    });
  }
  add("qos.admit_us", admit_us, "us");
  add("qos.shed", d.admission != nullptr ? static_cast<double>(d.admission->counters().shed) : 0.0,
      "count");

  // governor
  const bool governed = d.governor != nullptr;
  add("governor.telemetry_us",
      governed ? Median(tracer->Seconds("governor.BuildTelemetry")) * 1e6 : 0.0, "us");
  add("governor.observe_us",
      governed ? Median(tracer->Seconds("governor.Observe")) * 1e6 : 0.0, "us");
  add("governor.actuations", static_cast<double>(layers.actuations), "count");
  add("governor.staged_mib", layers.staged_mib, "MiB");

  // encoding and tiering: the tiered workload only.
  double build_s = 0.0, bytes_per_value = 0.0, encoded_ns = 0.0;
  if (d.config.encoding) {
    std::unique_ptr<ssb::EncodedColumnStore> encoded;
    {
      ScopedSpan span(tracer, "encoding.EncodedColumnStore");
      encoded = std::make_unique<ssb::EncodedColumnStore>(columns);
    }
    build_s = Median(tracer->Seconds("encoding.EncodedColumnStore"));
    bytes_per_value = static_cast<double>(encoded->TotalEncodedBytes()) /
                      static_cast<double>(rows * ssb::kNumLineorderColumns);
    KernelContext encoded_ctx = ctx;
    encoded_ctx.encoded = encoded.get();
    encoded_ns = KernelNsPerTuple(tracer, "encoding.ExecuteMorselKernel", encoded_ctx, rows);
  }
  add("encoding.build_s", build_s, "s");
  add("encoding.bytes_per_value", bytes_per_value, "B");
  add("encoding.kernel_ns_per_tuple", encoded_ns, "ns");
  const double window = static_cast<double>(std::max<uint64_t>(1, layers.window_tuples));
  add("tiering.hot_coverage", static_cast<double>(layers.fast_tuples) / window, "ratio");
  add("tiering.ssd_share", static_cast<double>(layers.ssd_tuples) / window, "ratio");
  add("tiering.migrations", static_cast<double>(layers.migrations), "count");
  add("tiering.migration_mib", layers.migration_bytes / static_cast<double>(kMiB), "MiB");
  add("tiering.overhead_us",
      d.tiers != nullptr ? TieringOverheadUs(spec, seed, d, tracer) : 0.0, "us");

  // durability: the ingest workload only.
  std::vector<double> append_ms;
  for (double s : tracer->Seconds("engine.Ingest")) append_ms.push_back(s * 1e3);
  const double epochs = static_cast<double>(std::max<uint64_t>(1, layers.epochs));
  const bool durable = layers.epochs > 0;
  add("durability.append_ms_p50", durable ? Median(append_ms) : 0.0, "ms");
  add("durability.append_ms_p99",
      durable ? Percentile(append_ms, TailPercentile(append_ms.size())) : 0.0, "ms");
  add("durability.write_amp",
      durable ? static_cast<double>(layers.stored_lines * 64) /
                    static_cast<double>(layers.user_bytes)
              : 0.0,
      "ratio");
  add("durability.flush_lines_per_epoch", static_cast<double>(layers.flush_lines) / epochs,
      "count");
  add("durability.fences_per_epoch", static_cast<double>(layers.fences) / epochs, "count");
  add("durability.modeled_ms_per_epoch", layers.modeled_ingest_s * 1e3 / epochs, "ms");
  add("durability.modeled_ingest_s", layers.modeled_ingest_s, "s");
  const double ingest_busy =
      std::accumulate(session.ingest_s.begin(), session.ingest_s.end(), 0.0);
  add("durability.ingest_rows_per_s",
      ingest_busy > 0.0 ? static_cast<double>(session.ingest_rows) / ingest_busy : 0.0,
      "rows/s");

  // dash: the durable scalar read path probes Dash indexes.
  double probe_ns = 0.0;
  if (durable) {
    std::vector<uint64_t> keys;
    keys.reserve(rows);
    for (const ssb::LineorderRow& row : d.db.lineorder) {
      keys.push_back(static_cast<uint64_t>(row.custkey));
    }
    DimensionIndex index(IndexKind::kDash);
    for (const ssb::CustomerRow& c : d.db.customer) {
      (void)index.Insert(static_cast<uint64_t>(c.custkey),
                         EncodeGeo(c.nation, c.region, c.city));
    }
    std::vector<uint64_t> payloads(1024);
    probe_ns = 1e9 / static_cast<double>(rows) *
               TimePerCall(tracer, "dash.ProbeBatch", 1, [&] {
                 for (uint64_t i = 0; i < rows; i += payloads.size()) {
                   index.ProbeBatch(keys.data() + i,
                                    std::min<uint64_t>(payloads.size(), rows - i),
                                    payloads.data());
                 }
               });
  }
  add("dash.probe_ns", probe_ns, "ns");
}

/// The exec layer's dispatch cost: the workload's morsel plan through a
/// pool of the engine's size with a no-op task. Runs after the deployment
/// (and its pool) is gone, so host threads never exceed the budget.
void ProbeExec(const Spec& spec, int pool_threads, uint64_t rows,
               const Layers& layers, Tracer* tracer, std::vector<Metric>* out) {
  double run_us = 0.0, morsels = 0.0, steal = 0.0;
  if (pool_threads > 0) {
    const MemSystemModel model;
    const SystemTopology& topology = model.config().topology;
    auto partitions = Partitioner(topology).Partition(
        rows, pool_threads / topology.sockets());
    const MorselPlan plan = Partitioner::ToMorsels(
        partitions.ok() ? partitions.value() : std::vector<SocketPartition>{},
        ConfigFor(spec).morsel_tuples);
    WorkStealingPool pool(pool_threads, topology.sockets());
    WorkStealingPool::RunControl control;
    run_us = 1e6 * TimePerCall(tracer, "exec.RunWithControl", 200, [&] {
      (void)pool.RunWithControl(
          plan, [](const Morsel&, int) { return Status::OK(); }, control);
    });
    const double queries = static_cast<double>(std::max<uint64_t>(1, layers.queries));
    morsels = static_cast<double>(layers.morsels) / queries;
    steal = layers.executed == 0 ? 0.0
                                 : static_cast<double>(layers.stolen) /
                                       static_cast<double>(layers.executed);
  }
  out->push_back({"exec.run_us", run_us, "us"});
  out->push_back({"exec.morsels_per_query", morsels, "count"});
  out->push_back({"exec.steal_frac", steal, "ratio"});
}

// --- Output ------------------------------------------------------------------

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buffer[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + buffer +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void PrintHuman(const char* workload, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-8s %-36s %.6g %s\n", workload, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload scan|short|ingest|tiered "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool have_seed = false, have_seconds = false;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && options.seconds > 0.0;
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0 ? 1 : std::strcmp(value, "0") == 0 ? 0 : -1;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return Usage();
    }
  }
  const Spec* spec = nullptr;
  for (const Spec& candidate : kSpecs) {
    if (options.workload == candidate.name) spec = &candidate;
  }
  if (argc % 2 == 0 || spec == nullptr || !have_seed || !have_seconds || trace < 0) {
    return Usage();
  }
  options.trace = trace == 1;

  // Thread budget: the engine's pool plus the driver thread, which sleeps
  // while the pool runs. Refuse a workload whose pool exceeds the CPUs.
  const int nproc = HostCpus();
  {
    const MemSystemModel model;
    const uint64_t rows = ssb::CardinalitiesFor(spec->sf).lineorder;
    const int pool = PoolThreads(ConfigFor(*spec), model, rows);
    if (pool > nproc) {
      std::fprintf(stderr, "%s needs a %d-thread pool but only %d CPUs are available\n",
                   spec->name, pool, nproc);
      return 2;
    }
  }

  Result<Session> plain = RunSession(*spec, options, nullptr, nullptr);
  if (!plain.ok()) {
    std::fprintf(stderr, "%s: %s\n", spec->name, plain.status().ToString().c_str());
    return 1;
  }
  const int pool_threads = plain->pool_threads;
  const uint64_t rows = plain->deployment->db.lineorder.size();
  plain->deployment.reset();
  const std::vector<Metric> summary = Summary(plain.value());
  std::printf("%-8s nproc %d, host threads %d, timed queries %zu, timed ingests %zu, "
              "busy %.3f s\n",
              spec->name, nproc, 1 + pool_threads, plain->query_s.size(),
              plain->ingest_s.size(), plain->busy_s);
  PrintHuman(spec->name, summary);
  uint64_t attempted = plain->attempted;
  uint64_t failed = plain->failed;
  std::vector<Metric> metrics;
  for (const Metric& m : summary) {
    if (!m.name.starts_with("host.")) metrics.push_back(m);  // end to end
  }

  if (options.trace) {
    Tracer tracer;
    Layers layers;
    Result<Session> traced = RunSession(*spec, options, &tracer, &layers);
    if (!traced.ok()) {
      std::fprintf(stderr, "%s (traced): %s\n", spec->name,
                   traced.status().ToString().c_str());
      return 1;
    }
    attempted += traced->attempted;
    failed += traced->failed;
    metrics.clear();
    ProbeLayers(*spec, options.seed, *traced->deployment, traced.value(), layers, &tracer,
                &metrics);
    traced->deployment.reset();
    ProbeExec(*spec, pool_threads, rows, layers, &tracer, &metrics);
    metrics.push_back({"host.nproc", static_cast<double>(nproc), "count"});
    metrics.push_back({"host.threads", static_cast<double>(1 + pool_threads), "count"});
    // The untraced session's host numbers and the timed queries they cover.
    metrics.push_back({"host.samples", static_cast<double>(plain->query_s.size()), "count"});
    for (const Metric& m : summary) {
      if (m.name.starts_with("host.")) metrics.push_back(m);  // host.qps, ...
    }
    // Tracing overhead per summary metric: how much worse the traced
    // session read than the untraced one, as a fraction (negative = the
    // traced session happened to read better). Peak RSS is the process
    // high-water mark, so it can only show growth.
    const std::vector<Metric> with_spans = Summary(traced.value());
    for (size_t i = 0; i < summary.size(); ++i) {
      const Metric& off = summary[i];
      const double ratio = off.higher_is_better ? off.value / with_spans[i].value
                                                : with_spans[i].value / off.value;
      metrics.push_back({"trace.overhead." + off.name, ratio - 1.0, "ratio"});
    }
    metrics.push_back({"trace.spans", static_cast<double>(tracer.spans().size()), "count"});
    if (!options.trace_dir.empty()) {
      const std::string path = options.trace_dir + "/perfbench-" + spec->name +
                               "-seed" + std::to_string(options.seed) + ".spans.jsonl";
      if (!tracer.Write(path)) {
        std::fprintf(stderr, "could not write %s\n", path.c_str());
      }
    }
    PrintHuman(spec->name, metrics);
  }
  const bool correct = failed == 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
