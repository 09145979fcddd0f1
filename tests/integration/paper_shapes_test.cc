// Integration tests asserting the figure-level shapes of the paper: every
// table/figure reproduced by bench/ has its qualitative claim checked here,
// so a calibration regression fails CI rather than silently bending a
// curve.
#include <gtest/gtest.h>

#include "engine/engine.h"
#include "core/runner.h"
#include "ssb/reference.h"

namespace pmemolap {
namespace {

class PaperShapesTest : public ::testing::Test {
 protected:
  PaperShapesTest() : runner_(&model_) {}

  double Bandwidth(OpType op, Pattern pattern, Media media, uint64_t size,
                   int threads, RunOptions options = RunOptions()) {
    return runner_.Bandwidth(op, pattern, media, size, threads, options)
        .value_or(0.0);
  }

  MemSystemModel model_;
  WorkloadRunner runner_;
};

// --- Figure 3 ----------------------------------------------------------------

TEST_F(PaperShapesTest, Fig3GroupedReadPeaksAt4K) {
  // For 36 threads, 4 KB is the global maximum across access sizes.
  double best_size_bw = 0.0;
  uint64_t best_size = 0;
  for (uint64_t size = 64; size <= 64 * kKiB; size *= 2) {
    double bw = Bandwidth(OpType::kRead, Pattern::kSequentialGrouped,
                          Media::kPmem, size, 36);
    if (bw > best_size_bw) {
      best_size_bw = bw;
      best_size = size;
    }
  }
  EXPECT_EQ(best_size, 4 * kKiB);
  EXPECT_NEAR(best_size_bw, 40.0, 4.0);
}

TEST_F(PaperShapesTest, Fig3IndividualSpansOnlyAFewGB) {
  // "the maximum individual spans only 3 GB" across access sizes at a
  // fixed high thread count.
  double lo = 1e9;
  double hi = 0.0;
  for (uint64_t size = 64; size <= 64 * kKiB; size *= 2) {
    double bw = Bandwidth(OpType::kRead, Pattern::kSequentialIndividual,
                          Media::kPmem, size, 18);
    lo = std::min(lo, bw);
    hi = std::max(hi, bw);
  }
  EXPECT_LT(hi - lo, 5.0);
}

// --- Figure 4 ----------------------------------------------------------------

TEST_F(PaperShapesTest, Fig4PinningOrdering) {
  RunOptions cores{.pinning = PinningPolicy::kCores};
  RunOptions numa{.pinning = PinningPolicy::kNumaRegion};
  RunOptions none{.pinning = PinningPolicy::kNone};
  double cores_peak = 0.0;
  double numa_peak = 0.0;
  double none_peak = 0.0;
  for (int threads : {1, 4, 8, 18, 24, 36}) {
    cores_peak = std::max(
        cores_peak, Bandwidth(OpType::kRead, Pattern::kSequentialIndividual,
                              Media::kPmem, 4096, threads, cores));
    numa_peak = std::max(
        numa_peak, Bandwidth(OpType::kRead, Pattern::kSequentialIndividual,
                             Media::kPmem, 4096, threads, numa));
    none_peak = std::max(
        none_peak, Bandwidth(OpType::kRead, Pattern::kSequentialIndividual,
                             Media::kPmem, 4096, threads, none));
  }
  EXPECT_GE(cores_peak, numa_peak);
  // None is drastically worse: ~9 vs ~41 GB/s.
  EXPECT_LT(none_peak, cores_peak / 3.5);
}

// --- Figure 5 ----------------------------------------------------------------

TEST_F(PaperShapesTest, Fig5NearFar2ndFarOrdering) {
  RunOptions near;
  RunOptions far{.data_socket = 1, .thread_socket = 0, .run_index = 1};
  RunOptions far2{.data_socket = 1, .thread_socket = 0, .run_index = 2};
  double near_bw = Bandwidth(OpType::kRead, Pattern::kSequentialIndividual,
                             Media::kPmem, 4096, 18, near);
  double far_bw = Bandwidth(OpType::kRead, Pattern::kSequentialIndividual,
                            Media::kPmem, 4096, 18, far);
  double far2_bw = Bandwidth(OpType::kRead, Pattern::kSequentialIndividual,
                             Media::kPmem, 4096, 18, far2);
  // Paper: ~40 near, ~8 cold far (5x gap), ~33 warmed far.
  EXPECT_NEAR(near_bw / far_bw, 5.0, 1.5);
  EXPECT_GT(far2_bw, far_bw * 3.5);
  EXPECT_LT(far2_bw, near_bw);
}

// --- Figure 6 ----------------------------------------------------------------

TEST_F(PaperShapesTest, Fig6MultiSocketReadOrdering) {
  auto total = [&](Media media, MultiSocketConfig config) {
    return runner_.MultiSocket(OpType::kRead, media, config, 18, 4096)
        ->total_gbps;
  };
  // PMEM: 2 Near (80) > 2 Far (50) > 1 Near (40) > 1 Far (33) > shared.
  double two_near = total(Media::kPmem, MultiSocketConfig::kTwoNear);
  double two_far = total(Media::kPmem, MultiSocketConfig::kTwoFar);
  double one_near = total(Media::kPmem, MultiSocketConfig::kOneNear);
  double one_far = total(Media::kPmem, MultiSocketConfig::kOneFar);
  double shared = total(Media::kPmem, MultiSocketConfig::kNearFarShared);
  EXPECT_GT(two_near, two_far);
  EXPECT_GT(two_far, one_near);
  EXPECT_GT(one_near, one_far);
  EXPECT_GT(one_far, shared);
  // DRAM reaches ~185 GB/s for 2 Near and its far access is much worse
  // relative to near than PMEM's (UPI-bound either way).
  double dram_two_near = total(Media::kDram, MultiSocketConfig::kTwoNear);
  EXPECT_GT(dram_two_near, 180.0);
  double dram_one_far = total(Media::kDram, MultiSocketConfig::kOneFar);
  double dram_one_near = total(Media::kDram, MultiSocketConfig::kOneNear);
  EXPECT_LT(dram_one_far / dram_one_near, 0.4);
}

// --- Figures 7/8 --------------------------------------------------------------

TEST_F(PaperShapesTest, Fig7WriteGlobalMaxAt4KFewThreads) {
  double best = 0.0;
  uint64_t best_size = 0;
  int best_threads = 0;
  for (int threads : {1, 2, 4, 6, 8, 18, 24, 36}) {
    for (uint64_t size = 64; size <= 64 * kKiB; size *= 2) {
      double bw = Bandwidth(OpType::kWrite, Pattern::kSequentialGrouped,
                            Media::kPmem, size, threads);
      if (bw > best) {
        best = bw;
        best_size = size;
        best_threads = threads;
      }
    }
  }
  // Paper: global max 12.6 GB/s for grouped 4 KB with 4-8 threads.
  EXPECT_NEAR(best, 12.6, 0.7);
  EXPECT_EQ(best_size, 4 * kKiB);
  EXPECT_GE(best_threads, 4);
  EXPECT_LE(best_threads, 8);
}

TEST_F(PaperShapesTest, Fig8BoomerangCorners) {
  // High-bandwidth zone: (36 threads, 256 B), (4 threads, 64 KB); the
  // (36 threads, 64 KB) corner collapses.
  double top_left = Bandwidth(OpType::kWrite, Pattern::kSequentialGrouped,
                              Media::kPmem, 256, 36);
  double bottom_right = Bandwidth(OpType::kWrite, Pattern::kSequentialGrouped,
                                  Media::kPmem, 64 * kKiB, 4);
  double top_right = Bandwidth(OpType::kWrite, Pattern::kSequentialGrouped,
                               Media::kPmem, 64 * kKiB, 36);
  EXPECT_GT(top_left, 10.0);
  EXPECT_GT(bottom_right, 10.0);
  EXPECT_LT(top_right, 6.5);
}

// --- Figure 9 ----------------------------------------------------------------

TEST_F(PaperShapesTest, Fig9WritePinning2xNot4x) {
  RunOptions cores{.pinning = PinningPolicy::kCores};
  RunOptions none{.pinning = PinningPolicy::kNone};
  double pinned_peak = 0.0;
  double none_peak = 0.0;
  for (int threads : {1, 4, 8, 18, 36}) {
    pinned_peak = std::max(
        pinned_peak, Bandwidth(OpType::kWrite, Pattern::kSequentialIndividual,
                               Media::kPmem, 4096, threads, cores));
    none_peak = std::max(
        none_peak, Bandwidth(OpType::kWrite, Pattern::kSequentialIndividual,
                             Media::kPmem, 4096, threads, none));
  }
  // Paper: no pinning is ~2x worse for writing (vs ~4x for reading).
  double ratio = pinned_peak / none_peak;
  EXPECT_NEAR(ratio, 2.0, 0.5);
}

// --- Figure 10 ----------------------------------------------------------------

TEST_F(PaperShapesTest, Fig10MultiSocketWrites) {
  auto peak = [&](MultiSocketConfig config) {
    double best = 0.0;
    for (int threads : {4, 6, 8, 18}) {
      best = std::max(best, runner_
                                .MultiSocket(OpType::kWrite, Media::kPmem,
                                             config, threads, 4096)
                                ->total_gbps);
    }
    return best;
  };
  double one_near = peak(MultiSocketConfig::kOneNear);
  double two_near = peak(MultiSocketConfig::kTwoNear);
  double two_far = peak(MultiSocketConfig::kTwoFar);
  double shared = peak(MultiSocketConfig::kNearFarShared);
  // Near writes double across sockets; far writes reach at most ~50% of
  // near; the shared config is worse than 2 Near.
  EXPECT_NEAR(two_near / one_near, 2.0, 0.1);
  EXPECT_LT(two_far, two_near * 0.6);
  EXPECT_LT(shared, two_near * 0.45);
}

// --- Figure 11 ----------------------------------------------------------------

TEST_F(PaperShapesTest, Fig11MixedNeverBeatsReadPeak) {
  double read_peak = Bandwidth(OpType::kRead, Pattern::kSequentialIndividual,
                               Media::kPmem, 4096, 30);
  for (int writers : {1, 4, 6}) {
    for (int readers : {1, 8, 18, 30}) {
      auto result = runner_.Mixed(writers, readers);
      EXPECT_LE(result->total_gbps, read_peak * 1.02)
          << writers << "/" << readers;
    }
  }
}

TEST_F(PaperShapesTest, Fig11BalancedMixThirds) {
  auto result = runner_.Mixed(6, 30);
  double write_bw = result->per_class[0].gbps;
  double read_bw = result->per_class[1].gbps;
  EXPECT_NEAR(write_bw / 12.6, 0.33, 0.12);
  EXPECT_NEAR(read_bw / 37.0, 0.33, 0.12);
}

// --- Figures 12/13 --------------------------------------------------------------

TEST_F(PaperShapesTest, Fig12RandomReadFractionsOfSequential) {
  RunOptions region{.region_bytes = 2 * kGiB};
  double pmem_rand = Bandwidth(OpType::kRead, Pattern::kRandom, Media::kPmem,
                               4096, 36, region);
  double pmem_seq = 40.0;
  double dram_rand = Bandwidth(OpType::kRead, Pattern::kRandom, Media::kDram,
                               4096, 36, region);
  double dram_seq = 100.0;
  // Paper: PMEM random reaches ~2/3 of sequential, DRAM only ~50% (on the
  // 2 GB region).
  EXPECT_NEAR(pmem_rand / pmem_seq, 0.66, 0.1);
  EXPECT_NEAR(dram_rand / dram_seq, 0.5, 0.1);
  EXPECT_GT(dram_rand, pmem_rand);
}

TEST_F(PaperShapesTest, Fig13RandomWriteShapes) {
  RunOptions region{.region_bytes = 2 * kGiB};
  double pmem = Bandwidth(OpType::kWrite, Pattern::kRandom, Media::kPmem,
                          4096, 6, region);
  double dram = Bandwidth(OpType::kWrite, Pattern::kRandom, Media::kDram,
                          4096, 36, region);
  EXPECT_NEAR(pmem / 12.6, 0.66, 0.1);
  EXPECT_NEAR(dram, 40.0, 6.0);
  // PMEM random writes: more threads hurt; DRAM: more threads help.
  double pmem_36 = Bandwidth(OpType::kWrite, Pattern::kRandom, Media::kPmem,
                             4096, 36, region);
  EXPECT_LT(pmem_36, pmem);
  double dram_4 = Bandwidth(OpType::kWrite, Pattern::kRandom, Media::kDram,
                            4096, 4, region);
  EXPECT_GT(dram, dram_4);
}

// --- Figure 14 + Table 1 (SSB) -------------------------------------------------

class SsbShapesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new ssb::Database(*ssb::Generate({.scale_factor = 0.02,
                                            .seed = 5}));
    model_ = new MemSystemModel();
  }
  static void TearDownTestSuite() {
    delete db_;
    delete model_;
    db_ = nullptr;
    model_ = nullptr;
  }

  static double AvgRatio(EngineMode mode, double sf) {
    EngineConfig pmem_config;
    pmem_config.mode = mode;
    pmem_config.media = Media::kPmem;
    pmem_config.threads = 36;
    pmem_config.project_to_sf = sf;
    if (mode == EngineMode::kUnaware) {
      pmem_config.use_both_sockets = false;
      pmem_config.pinning = PinningPolicy::kNumaRegion;
    }
    EngineConfig dram_config = pmem_config;
    dram_config.media = Media::kDram;
    SsbEngine pmem(db_, model_, pmem_config);
    SsbEngine dram(db_, model_, dram_config);
    EXPECT_TRUE(pmem.Prepare().ok());
    EXPECT_TRUE(dram.Prepare().ok());
    double pmem_total = 0.0;
    double dram_total = 0.0;
    for (ssb::QueryId query : ssb::AllQueries()) {
      pmem_total += pmem.Execute(query)->seconds;
      dram_total += dram.Execute(query)->seconds;
    }
    return pmem_total / dram_total;
  }

  static ssb::Database* db_;
  static MemSystemModel* model_;
};

ssb::Database* SsbShapesTest::db_ = nullptr;
MemSystemModel* SsbShapesTest::model_ = nullptr;

TEST_F(SsbShapesTest, Fig14bHandcraftedSlowdownNear166) {
  // Paper: PMEM is 1.66x slower than DRAM on average in the handcrafted
  // (PMEM-aware) SSB at sf 100.
  double ratio = AvgRatio(EngineMode::kPmemAware, 100.0);
  EXPECT_GT(ratio, 1.3);
  EXPECT_LT(ratio, 2.2);
}

TEST_F(SsbShapesTest, Fig14aUnawareSlowdownNear53) {
  // Paper: Hyrise (PMEM-unaware) is 5.3x slower on PMEM at sf 50.
  double ratio = AvgRatio(EngineMode::kUnaware, 50.0);
  EXPECT_GT(ratio, 3.5);
  EXPECT_LT(ratio, 7.0);
}

TEST_F(SsbShapesTest, AwarenessClosesTheGap) {
  EXPECT_LT(AvgRatio(EngineMode::kPmemAware, 100.0),
            AvgRatio(EngineMode::kUnaware, 50.0) * 0.6);
}

TEST_F(SsbShapesTest, Table1LadderMonotoneAndCalibrated) {
  struct Step {
    const char* name;
    EngineConfig config;
    double paper_pmem;
  };
  EngineConfig base;
  base.mode = EngineMode::kPmemAware;
  base.media = Media::kPmem;
  base.project_to_sf = 100.0;

  std::vector<Step> steps;
  {
    EngineConfig c = base;
    c.threads = 1;
    c.use_both_sockets = false;
    steps.push_back({"1 Thr", c, 306.7});
  }
  {
    EngineConfig c = base;
    c.threads = 18;
    c.use_both_sockets = false;
    steps.push_back({"18 Thr", c, 25.1});
  }
  {
    EngineConfig c = base;
    c.threads = 36;
    c.numa_aware_placement = false;
    c.pinning = PinningPolicy::kNumaRegion;
    steps.push_back({"2-Socket", c, 12.3});
  }
  {
    EngineConfig c = base;
    c.threads = 36;
    c.pinning = PinningPolicy::kNumaRegion;
    steps.push_back({"NUMA", c, 9.4});
  }
  {
    EngineConfig c = base;
    c.threads = 36;
    c.pinning = PinningPolicy::kCores;
    steps.push_back({"Pinning", c, 8.6});
  }

  double prev = 1e18;
  for (const Step& step : steps) {
    SsbEngine engine(db_, model_, step.config);
    ASSERT_TRUE(engine.Prepare().ok());
    double seconds = engine.Execute(ssb::QueryId::kQ2_1)->seconds;
    // Every optimization step helps (monotone ladder) ...
    EXPECT_LT(seconds, prev) << step.name;
    // ... and lands within 2x of the paper's measurement.
    EXPECT_GT(seconds, step.paper_pmem / 2.0) << step.name;
    EXPECT_LT(seconds, step.paper_pmem * 2.0) << step.name;
    prev = seconds;
  }
}

TEST_F(SsbShapesTest, SsdBaselineSlowerThanPmem) {
  // §6.2: Q2.1 from NVMe SSD takes 22.8 s vs 8.6 s on PMEM (2.6x).
  EngineConfig pmem_config;
  pmem_config.mode = EngineMode::kPmemAware;
  pmem_config.media = Media::kPmem;
  pmem_config.threads = 36;
  pmem_config.project_to_sf = 100.0;
  SsbEngine pmem(db_, model_, pmem_config);
  ASSERT_TRUE(pmem.Prepare().ok());
  double pmem_s = pmem.Execute(ssb::QueryId::kQ2_1)->seconds;

  // SSD setup: table scan from SSD, indexes/intermediates in DRAM.
  EngineConfig ssd_config = pmem_config;
  ssd_config.media = Media::kDram;
  SsbEngine ssd(db_, model_, ssd_config);
  ASSERT_TRUE(ssd.Prepare().ok());
  auto run = ssd.Execute(ssb::QueryId::kQ2_1);
  ASSERT_TRUE(run.ok());
  // Re-time with the scan redirected to the SSD.
  ExecutionProfile ssd_profile;
  for (TrafficRecord record : run->profile.records()) {
    if (record.label == "scan") record.media = Media::kSsd;
    ssd_profile.Record(record);
  }
  double factor = 100.0 / 0.02;
  QueryTimer timer(model_);
  double ssd_s = timer.EstimateSecondsWithBackground(
      ssd_profile.Scaled(factor), run->cpu.Scaled(factor), 36,
      PinningPolicy::kCores, {});
  EXPECT_GT(ssd_s / pmem_s, 1.8);
  EXPECT_NEAR(ssd_s, 22.8, 12.0);
}

}  // namespace
}  // namespace pmemolap
