// Randomized robustness tests: arbitrary (but well-formed) workload specs
// must never produce NaNs, negative bandwidths, or values above the
// physical device envelopes, and evaluation must be deterministic.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/runner.h"
#include "memsys/mem_system.h"

namespace pmemolap {
namespace {

/// Builds a random but valid AccessClass.
AccessClass RandomClass(Rng& rng, const MemSystemModel& model) {
  static const OpType kOps[] = {OpType::kRead, OpType::kWrite};
  static const Pattern kPatterns[] = {Pattern::kSequentialGrouped,
                                      Pattern::kSequentialIndividual,
                                      Pattern::kRandom};
  static const Media kMedia[] = {Media::kPmem, Media::kDram, Media::kSsd};
  static const PinningPolicy kPinnings[] = {PinningPolicy::kNone,
                                            PinningPolicy::kNumaRegion,
                                            PinningPolicy::kCores};
  static const WriteInstruction kInstructions[] = {
      WriteInstruction::kNtStore, WriteInstruction::kClwb,
      WriteInstruction::kClflushOpt};

  AccessClass klass;
  klass.op = kOps[rng.NextBelow(2)];
  klass.pattern = kPatterns[rng.NextBelow(3)];
  klass.media = kMedia[rng.NextBelow(3)];
  klass.access_size = uint64_t{1} << (6 + rng.NextBelow(20));  // 64 B..32 MB
  klass.data_socket = static_cast<int>(rng.NextBelow(2));
  klass.region_bytes = uint64_t{1} << (20 + rng.NextBelow(20));  // 1MB..512GB
  klass.region_id = static_cast<int>(rng.NextBelow(4));
  klass.run_index = static_cast<int>(1 + rng.NextBelow(2));
  klass.instruction = kInstructions[rng.NextBelow(3)];

  ThreadPlacer placer(model.config().topology);
  int threads = static_cast<int>(1 + rng.NextBelow(72));
  int thread_socket = static_cast<int>(rng.NextBelow(2));
  klass.placement =
      *placer.Place(threads, kPinnings[rng.NextBelow(3)], thread_socket);
  if (rng.NextBool(0.3)) {
    // Far placement relative to the data.
    for (ThreadSlot& slot : klass.placement.slots) {
      slot.near_data = SystemTopology::IsNear(slot.socket,
                                              klass.data_socket);
    }
  }
  return klass;
}

class ModelFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ModelFuzzTest, InvariantsHoldForRandomSpecs) {
  MemSystemModel model;
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    WorkloadSpec spec;
    spec.l2_prefetcher_enabled = rng.NextBool(0.8);
    spec.devdax = rng.NextBool(0.8);
    size_t classes = 1 + rng.NextBelow(4);
    for (size_t i = 0; i < classes; ++i) {
      spec.classes.push_back(RandomClass(rng, model));
    }
    BandwidthResult result = model.EvaluateOnce(spec);

    // Global invariants.
    ASSERT_TRUE(std::isfinite(result.total_gbps)) << round;
    ASSERT_GE(result.total_gbps, 0.0) << round;
    ASSERT_GE(result.upi_utilization, 0.0);
    ASSERT_LE(result.upi_utilization, 1.0);
    ASSERT_EQ(result.per_class.size(), spec.classes.size());

    double sum = 0.0;
    for (size_t i = 0; i < result.per_class.size(); ++i) {
      const ClassBandwidth& diag = result.per_class[i];
      ASSERT_TRUE(std::isfinite(diag.gbps)) << round << "/" << i;
      ASSERT_GE(diag.gbps, 0.0);
      sum += diag.gbps;
      // Physical envelopes (per class, generous bounds).
      switch (spec.classes[i].media) {
        case Media::kPmem:
          ASSERT_LE(diag.gbps, 42.0) << round << "/" << i;
          break;
        case Media::kDram:
          ASSERT_LE(diag.gbps, 110.0) << round << "/" << i;
          break;
        case Media::kSsd:
          ASSERT_LE(diag.gbps, 3.3) << round << "/" << i;
          break;
      }
      ASSERT_GE(diag.write_amplification, 1.0);
      ASSERT_GE(diag.combine_fraction, 0.0);
      ASSERT_LE(diag.combine_fraction, 1.0);
      ASSERT_LE(diag.concurrent_dimms, 6.0);
      ASSERT_GE(diag.media_write_gbps, 0.0);
    }
    ASSERT_NEAR(sum, result.total_gbps, 1e-6);

    // Determinism: the same spec evaluates identically.
    BandwidthResult again = model.EvaluateOnce(spec);
    ASSERT_DOUBLE_EQ(again.total_gbps, result.total_gbps) << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelFuzzTest,
                         ::testing::Values(101, 202, 303, 404));

TEST(ModelFuzzTest, StatefulEvaluationIsMonotonicWarming) {
  // Warming never reduces bandwidth for a fixed read spec.
  MemSystemModel model;
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    WorkloadSpec spec;
    AccessClass klass = RandomClass(rng, model);
    klass.op = OpType::kRead;
    klass.run_index = 1;
    spec.classes.push_back(klass);
    double first = model.Evaluate(spec).total_gbps;
    double second = model.Evaluate(spec).total_gbps;
    EXPECT_GE(second, first - 1e-9) << round;
    model.directory().Reset();
  }
}

}  // namespace
}  // namespace pmemolap
