// Compressed columnar storage scorecard: per-column encoding ratios, the
// modeled SSB scan-byte/runtime reduction of decode-on-scan, and real
// wall-clock scan throughput of the encoded kernels on a DRAM-resident
// region much larger than the last-level cache.
//
// Four demonstrations, each with explicit pass/fail claims (the binary
// exits nonzero when a claim fails, so CI catches regressions):
//
//   1. Per-column encoding: every lineorder column picks its cheapest
//      scheme (FoR bit-packing, sorted dictionary, or raw), never costs
//      bytes, and round-trips losslessly.
//   2. Modeled SSB scorecard: with EngineConfig::encoding on, all 13
//      queries stay bit-identical to the reference while the fact-scan
//      bytes shrink >= 2x in geomean and the modeled runtime improves
//      > 1x in geomean.
//   3. Wall-clock scan throughput: on a >= 128 MiB DRAM region, the
//      predicate-on-encoded scan (frame skipping) and the full block
//      decode are measured against the raw int32 scan; the geomean
//      speedup must exceed 1x. The region's Encode is timed too, in raw
//      sum-scans of the same column: it must stay linear-time (<= 40
//      scans). So is the engine's encoded store built from the 128 B row
//      image at sf 0.2 (153 MB, past any LLC), in read-only sweeps of the
//      same rows (gated by tools/bench_gate.py). Valid under --smoke
//      (neither the region nor the row image shrinks with the scale
//      factor).
//   4. Per-query wall-clock (informational): the 13 SSB queries timed
//      raw vs encoded through the vectorized morsel executor. Reported
//      and written to the JSON, but not gated — small per-query times
//      are at the mercy of host noise; the gated wall-clock claim is the
//      large-region scan above.
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "encoding/encoding.h"
#include "engine/engine.h"
#include "ssb/encoded_column_store.h"
#include "ssb/reference.h"

using namespace pmemolap;
using namespace pmemolap::bench;
using ssb::QueryId;

namespace {

std::string F2(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", v);
  return buffer;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

EngineConfig BaseConfig(bool encoded) {
  EngineConfig config;
  config.mode = EngineMode::kPmemAware;
  config.media = Media::kPmem;
  config.threads = 36;
  config.columnar = true;
  config.encoding = encoded;
  config.project_to_sf = 50.0;
  return config;
}

// ---------------------------------------------------------------------
// Part 1: per-column encoding ratios.
// ---------------------------------------------------------------------

void RunColumnTable(const ssb::ColumnStore& columns,
                    const ssb::EncodedColumnStore& encoded,
                    std::ofstream& json) {
  std::printf("\n[1] Per-column encoding (%llu lineorder tuples)\n",
              static_cast<unsigned long long>(columns.size()));
  TablePrinter table({"Column", "Scheme", "Raw [MiB]", "Enc [MiB]", "Ratio"});
  json << "  \"columns\": [";
  bool never_costs = true;
  bool lossless = true;
  uint64_t raw_total = 0;
  uint64_t enc_total = 0;
  for (int c = 0; c < ssb::kNumLineorderColumns; ++c) {
    const auto column = static_cast<ssb::LineorderColumn>(c);
    const encoding::EncodedColumn& enc = encoded.column(column);
    const uint64_t raw_bytes = enc.RawBytes();
    const uint64_t enc_bytes = enc.EncodedBytes();
    raw_total += raw_bytes;
    enc_total += enc_bytes;
    never_costs &= enc_bytes <= raw_bytes;
    // Lossless spot check: decode-free point access over a sample.
    const std::vector<int32_t>& reference = columns.column(column);
    const uint64_t stride = enc.size() > 4096 ? enc.size() / 4096 : 1;
    for (uint64_t i = 0; i < enc.size(); i += stride) {
      if (enc.Get(i) != reference[i]) {
        lossless = false;
        break;
      }
    }
    table.AddRow({ssb::LineorderColumnName(column),
                  encoding::SchemeName(enc.scheme()),
                  F2(static_cast<double>(raw_bytes) / kMiB),
                  F2(static_cast<double>(enc_bytes) / kMiB),
                  F2(enc.CompressionRatio()) + "x"});
    json << (c > 0 ? ", " : "") << "{\"column\": \""
         << ssb::LineorderColumnName(column) << "\", \"scheme\": \""
         << encoding::SchemeName(enc.scheme()) << "\", \"raw_bytes\": "
         << raw_bytes << ", \"encoded_bytes\": " << enc_bytes << "}";
  }
  table.Print();
  const double total_ratio =
      static_cast<double>(raw_total) / static_cast<double>(enc_total);
  json << "],\n  \"store_ratio\": " << total_ratio << ",\n";
  std::printf("  store total: %.2f MiB -> %.2f MiB (%.2fx)\n",
              static_cast<double>(raw_total) / kMiB,
              static_cast<double>(enc_total) / kMiB, total_ratio);
  Claim(never_costs, "no column costs bytes over raw (raw fallback caps "
                     "the encoded footprint)");
  Claim(lossless, "sampled point accesses decode to the raw values on "
                  "every column");
  Claim(total_ratio >= 2.0,
        "whole-store footprint shrinks >= 2x (measured " + F2(total_ratio) +
        "x)");
}

// ---------------------------------------------------------------------
// Part 2: modeled SSB scorecard.
// ---------------------------------------------------------------------

uint64_t ScanRecordBytes(const ExecutionProfile& profile) {
  uint64_t bytes = 0;
  for (const TrafficRecord& record : profile.records()) {
    if (record.label == "scan") bytes += record.bytes;
  }
  return bytes;
}

void RunModeledScorecard(const ssb::Database& db, const MemSystemModel& model,
                         const ssb::ReferenceExecutor& reference,
                         std::ofstream& json) {
  std::printf("\n[2] Modeled SSB: encoded vs raw columnar scans (sf %.0f)\n",
              BaseConfig(false).project_to_sf);
  SsbEngine raw_engine(&db, &model, BaseConfig(false));
  SsbEngine enc_engine(&db, &model, BaseConfig(true));
  Status raw_prepared = raw_engine.Prepare();
  Status enc_prepared = enc_engine.Prepare();
  if (!raw_prepared.ok() || !enc_prepared.ok()) {
    Claim(false, "both engines prepared");
    return;
  }

  TablePrinter table({"Query", "Raw [s]", "Enc [s]", "Speedup", "Scan bytes"});
  json << "  \"modeled\": {\n    \"queries\": [";
  std::vector<double> speedups;
  std::vector<double> byte_reductions;
  int verified = 0;
  bool first = true;
  for (QueryId query : ssb::AllQueries()) {
    auto raw_run = raw_engine.Execute(query);
    auto enc_run = enc_engine.Execute(query);
    if (!raw_run.ok() || !enc_run.ok()) {
      Claim(false, ssb::QueryName(query) + " executed in both engines");
      return;
    }
    const ssb::QueryOutput expected = reference.Execute(query);
    if (raw_run->output == expected && enc_run->output == expected) {
      ++verified;
    }
    const uint64_t raw_scan = ScanRecordBytes(raw_run->profile);
    const uint64_t enc_scan = ScanRecordBytes(enc_run->profile);
    const double speedup = raw_run->seconds / enc_run->seconds;
    const double reduction =
        static_cast<double>(raw_scan) / static_cast<double>(enc_scan);
    speedups.push_back(speedup);
    byte_reductions.push_back(reduction);
    table.AddRow({ssb::QueryName(query), F3(raw_run->seconds),
                  F3(enc_run->seconds), F2(speedup) + "x",
                  F2(reduction) + "x smaller"});
    json << (first ? "" : ", ") << "{\"query\": \"" << ssb::QueryName(query)
         << "\", \"raw_seconds\": " << raw_run->seconds
         << ", \"encoded_seconds\": " << enc_run->seconds
         << ", \"raw_scan_bytes\": " << raw_scan
         << ", \"encoded_scan_bytes\": " << enc_scan << "}";
    first = false;
  }
  const double speedup_geomean = GeoMean(speedups);
  const double byte_geomean = GeoMean(byte_reductions);
  table.Print();
  std::printf("  geomean: %.2fx faster, %.2fx fewer scan bytes\n",
              speedup_geomean, byte_geomean);
  json << "],\n    \"geomean_speedup\": " << speedup_geomean
       << ",\n    \"geomean_byte_reduction\": " << byte_geomean
       << ",\n    \"verified\": " << verified << "\n  },\n";

  Claim(verified == 13,
        "all 13 queries bit-identical to the reference, raw and encoded");
  Claim(byte_geomean >= 2.0,
        "encoded lineorder scans move >= 2x fewer modeled bytes in geomean "
        "(measured " + F2(byte_geomean) + "x)");
  Claim(speedup_geomean > 1.0,
        "modeled runtime improves in geomean (measured " +
        F2(speedup_geomean) + "x)");
}

// ---------------------------------------------------------------------
// Part 3: wall-clock scan throughput on a large DRAM region.
// ---------------------------------------------------------------------

/// Builds a clustered int32 column (ascending base + bounded noise — the
/// shape of a time-ordered fact column) of `values` entries.
std::vector<int32_t> ClusteredColumn(uint64_t values) {
  std::vector<int32_t> column(values);
  Rng rng(2024);
  int32_t base = 0;
  for (uint64_t i = 0; i < values; ++i) {
    if (i % 1024 == 0) base = static_cast<int32_t>(i / 16);
    column[i] = base + static_cast<int32_t>(rng.NextBelow(64));
  }
  return column;
}

struct KernelTiming {
  std::string name;
  double raw_gbps = 0.0;
  double encoded_gbps = 0.0;
  double speedup() const { return encoded_gbps / raw_gbps; }
};

/// Times `fn` (which must consume the whole region once per call) and
/// returns the throughput in logical raw gigabytes per second.
template <typename Fn>
double MeasureGbps(uint64_t raw_bytes, int reps, Fn&& fn) {
  fn();  // warm up: touch every page, populate caches fairly
  auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < reps; ++rep) fn();
  const double seconds = SecondsSince(start);
  return static_cast<double>(raw_bytes) * reps / seconds / kGiB;
}

void RunWallClockScan(std::ofstream& json) {
  // 48M values = 192 MiB raw — far past any LLC, so the raw scan is
  // DRAM-bound. Deliberately NOT scaled down under --smoke: a cache-
  // resident region would flatter the encoded path.
  constexpr uint64_t kValues = 48ull << 20;
  constexpr uint64_t kRawBytes = kValues * sizeof(int32_t);
  constexpr int kReps = 3;
  std::printf("\n[3] Wall-clock scan: %.0f MiB clustered int32 column\n",
              static_cast<double>(kRawBytes) / kMiB);

  const std::vector<int32_t> raw = ClusteredColumn(kValues);
  const auto encode_start = std::chrono::steady_clock::now();
  const encoding::EncodedColumn encoded = encoding::EncodedColumn::Encode(raw);
  const double encode_seconds = SecondsSince(encode_start);
  std::printf("  encoded as %s, %.2fx smaller (%.0f MiB) in %.3f s\n",
              encoding::SchemeName(encoded.scheme()),
              encoded.CompressionRatio(),
              static_cast<double>(encoded.EncodedBytes()) / kMiB,
              encode_seconds);

  // A 2%-selectivity range over the clustered key: the encoded scan
  // skips non-qualifying frames from the directory alone.
  const int32_t lo = raw[kValues / 2];
  const int32_t hi = lo + static_cast<int32_t>(kValues / 16 / 50);

  std::vector<KernelTiming> kernels;
  double raw_sum_scan_seconds = 0.0;

  {
    KernelTiming timing;
    timing.name = "selective range scan (2%)";
    volatile uint64_t sink = 0;
    timing.raw_gbps = MeasureGbps(kRawBytes, kReps, [&] {
      uint64_t matches = 0;
      for (uint64_t i = 0; i < kValues; ++i) {
        matches += raw[i] >= lo && raw[i] <= hi;
      }
      sink = matches;
    });
    std::vector<uint64_t> sel;
    sel.reserve(kValues / 32);
    timing.encoded_gbps = MeasureGbps(kRawBytes, kReps, [&] {
      sel.clear();
      encoded.AppendMatchingRange(lo, hi, 0, kValues, &sel);
      sink = sel.size();
    });
    // Same matches either way (the raw loop recomputes them each rep).
    uint64_t raw_matches = 0;
    for (uint64_t i = 0; i < kValues; ++i) {
      raw_matches += raw[i] >= lo && raw[i] <= hi;
    }
    Claim(sel.size() == raw_matches,
          "encoded range scan finds exactly the raw matches (" +
          std::to_string(raw_matches) + ")");
    kernels.push_back(timing);
  }

  {
    KernelTiming timing;
    timing.name = "full decode + sum";
    volatile int64_t sink = 0;
    timing.raw_gbps = MeasureGbps(kRawBytes, kReps, [&] {
      int64_t sum = 0;
      for (uint64_t i = 0; i < kValues; ++i) sum += raw[i];
      sink = sum;
    });
    raw_sum_scan_seconds =
        static_cast<double>(kRawBytes) / (timing.raw_gbps * kGiB);
    constexpr uint64_t kBlock = 64 * 1024;
    std::vector<int32_t> buffer(kBlock);
    timing.encoded_gbps = MeasureGbps(kRawBytes, kReps, [&] {
      int64_t sum = 0;
      for (uint64_t begin = 0; begin < kValues; begin += kBlock) {
        const uint64_t end = std::min(kValues, begin + kBlock);
        encoded.Decode(begin, end, buffer.data());
        for (uint64_t i = 0; i < end - begin; ++i) sum += buffer[i];
      }
      sink = sum;
    });
    kernels.push_back(timing);
  }

  TablePrinter table({"Kernel", "Raw [GB/s]", "Encoded [GB/s]", "Speedup"});
  std::vector<double> speedups;
  json << "  \"wallclock_scan\": {\n    \"region_bytes\": " << kRawBytes
       << ",\n    \"kernels\": [";
  for (size_t i = 0; i < kernels.size(); ++i) {
    const KernelTiming& k = kernels[i];
    speedups.push_back(k.speedup());
    table.AddRow({k.name, F2(k.raw_gbps), F2(k.encoded_gbps),
                  F2(k.speedup()) + "x"});
    json << (i > 0 ? ", " : "") << "{\"kernel\": \"" << k.name
         << "\", \"raw_gbps\": " << k.raw_gbps
         << ", \"encoded_gbps\": " << k.encoded_gbps << "}";
  }
  const double geomean = GeoMean(speedups);
  table.Print();
  std::printf("  wall-clock geomean speedup: %.2fx\n", geomean);
  // Encode time in units of one raw sum-scan of the same column, so the
  // bound holds on fast and slow hosts alike.
  const double encode_scans = encode_seconds / raw_sum_scan_seconds;
  std::printf("  Encode: %.3f s = %.1f raw sum-scans of the column\n",
              encode_seconds, encode_scans);
  json << "],\n    \"geomean_speedup\": " << geomean
       << ",\n    \"encode_seconds\": " << encode_seconds
       << ",\n    \"encode_scans\": " << encode_scans << "\n  },\n";
  Claim(geomean > 1.0,
        "encoded scans beat raw scans in wall-clock geomean on a "
        "DRAM-bound region (measured " + F2(geomean) + "x)");
  Claim(encode_scans <= 40.0,
        "Encode of the region takes <= 40 raw sum-scans of it (measured " +
        F2(encode_scans) + ")");
}

/// Times EncodedColumnStore(rows), the engine's encoded Prepare, on the
/// sf 0.2 row image, in units of one read-only sweep of the nine fields
/// it reads from every row, so the number holds on fast and slow hosts
/// alike. Both are timed as MeasureGbps times the scan kernels.
void RunStoreBuild(std::ofstream& json) {
  constexpr double kStoreSf = 0.2;
  constexpr int kReps = 3;
  auto db = ssb::Generate({.scale_factor = kStoreSf, .seed = 42});
  if (!db.ok()) {
    Claim(false, "sf 0.2 dbgen for the store build");
    return;
  }
  const std::vector<ssb::LineorderRow>& rows = db->lineorder;
  const uint64_t row_bytes = rows.size() * sizeof(ssb::LineorderRow);
  volatile int64_t sink = 0;
  auto sweep = [&] {
    int64_t sum = 0;
    for (const ssb::LineorderRow& row : rows) {
      for (int c = 0; c < ssb::kNumLineorderColumns; ++c) {
        sum += row.*ssb::kRowFields[c];
      }
    }
    sink = sum;
  };
  uint64_t encoded_bytes = 0;
  const double build_gbps = MeasureGbps(row_bytes, kReps, [&] {
    const ssb::EncodedColumnStore store(rows);
    encoded_bytes = store.TotalEncodedBytes();
  });
  const double sweeps = MeasureGbps(row_bytes, kReps, sweep) / build_gbps;
  const double build_seconds =
      static_cast<double>(row_bytes) / (build_gbps * kGiB);
  std::printf("  EncodedColumnStore(rows) at sf %.1f (%.0f MiB row image "
              "-> %.1f MiB): %.3f s = %.1f read-only sweeps of the rows\n",
              kStoreSf, static_cast<double>(row_bytes) / kMiB,
              static_cast<double>(encoded_bytes) / kMiB, build_seconds,
              sweeps);
  json << "  \"store_build\": {\"scale_factor\": " << kStoreSf
       << ", \"row_bytes\": " << row_bytes
       << ", \"seconds\": " << build_seconds << ", \"sweeps\": " << sweeps
       << "},\n";
}

// ---------------------------------------------------------------------
// Part 4: per-query wall-clock (informational).
// ---------------------------------------------------------------------

void RunPerQueryWallClock(const ssb::Database& db,
                          const MemSystemModel& model,
                          const ssb::ReferenceExecutor& reference,
                          std::ofstream& json) {
  std::printf("\n[4] Per-query wall-clock, raw vs encoded kernels "
              "(informational — host noise, not gated)\n");
  auto make_engine = [&](bool encoded) {
    EngineConfig config = BaseConfig(encoded);
    config.executor = ExecutorKind::kMorselStealing;
    return std::make_unique<SsbEngine>(&db, &model, config);
  };
  auto raw_engine = make_engine(false);
  auto enc_engine = make_engine(true);
  if (!raw_engine->Prepare().ok() || !enc_engine->Prepare().ok()) {
    Claim(false, "both wall-clock engines prepared");
    return;
  }
  auto time_query = [&](SsbEngine* engine, QueryId query) {
    const bool warmed = engine->Execute(query).ok();
    auto start = std::chrono::steady_clock::now();
    auto run = engine->Execute(query);
    const double ms = SecondsSince(start) * 1e3;
    const bool ok =
        warmed && run.ok() && run->output == reference.Execute(query);
    return std::make_pair(ms, ok);
  };
  TablePrinter table({"Query", "Raw [ms]", "Encoded [ms]", "Speedup"});
  std::vector<double> speedups;
  bool all_verified = true;
  json << "  \"wallclock_queries\": [";
  bool first = true;
  for (QueryId query : ssb::AllQueries()) {
    auto [raw_ms, raw_ok] = time_query(raw_engine.get(), query);
    auto [enc_ms, enc_ok] = time_query(enc_engine.get(), query);
    all_verified &= raw_ok && enc_ok;
    speedups.push_back(raw_ms / enc_ms);
    table.AddRow({ssb::QueryName(query), F3(raw_ms), F3(enc_ms),
                  F2(raw_ms / enc_ms) + "x"});
    json << (first ? "" : ", ") << "{\"query\": \"" << ssb::QueryName(query)
         << "\", \"raw_ms\": " << raw_ms << ", \"encoded_ms\": " << enc_ms
         << "}";
    first = false;
  }
  table.Print();
  std::printf("  per-query wall-clock geomean: %.2fx (informational)\n",
              GeoMean(speedups));
  json << "],\n  \"wallclock_query_geomean\": " << GeoMean(speedups)
       << ",\n";
  Claim(all_verified,
        "all wall-clock runs stayed bit-identical to the reference");
}

}  // namespace

int main(int argc, char** argv) {
  double sf = 0.05;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) sf = 0.02;
  }

  PrintHeader(
      "Compressed columnar storage: FoR bit-packing, dictionary, "
      "decode-on-scan",
      "perf extension; encoding semantics per DESIGN.md section 15 "
      "(paper sections 4.2/6.2: scans are bandwidth-bound, so moved "
      "bytes are the cost that matters)",
      "Encoded scans move >= 2x fewer modeled bytes on the SSB flights "
      "and beat raw scans in wall-clock geomean on a DRAM-bound region, "
      "with every query bit-identical");

  auto db = ssb::Generate({.scale_factor = sf, .seed = 42});
  if (!db.ok()) {
    std::printf("dbgen failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  MemSystemModel model;
  ssb::ReferenceExecutor reference(&db.value());
  const ssb::ColumnStore columns(db->lineorder);
  const ssb::EncodedColumnStore encoded(columns);
  std::printf("\nFunctional execution at sf %.2f (%zu lineorder tuples), "
              "modeled at sf %.0f.\n",
              sf, db->lineorder.size(), BaseConfig(false).project_to_sf);

  std::ofstream json("BENCH_compression.json");
  json << "{\n  \"bench\": \"compression\",\n  \"scale_factor\": " << sf
       << ",\n";
  RunColumnTable(columns, encoded, json);
  RunModeledScorecard(db.value(), model, reference, json);
  RunWallClockScan(json);
  RunStoreBuild(json);
  RunPerQueryWallClock(db.value(), model, reference, json);
  return FinishScorecard(json, "compression");
}
