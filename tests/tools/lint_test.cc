// pmemolap_lint rule tests: each rule has a violating and a clean
// fixture; the allowlist fixtures prove audited exceptions are honored;
// the tree fixtures pin the CLI's exit codes.
//
// PMEMOLAP_LINT_FIXTURES and PMEMOLAP_LINT_BIN are injected by CMake.
#include "lint.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

namespace pmemolap::lint {
namespace {

std::string ReadFixture(const std::string& name) {
  std::string path = std::string(PMEMOLAP_LINT_FIXTURES) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Lints fixture `name` as if it lived at repo path `as_path`.
Report LintFixtureAs(const std::string& name, const std::string& as_path) {
  Report report;
  LintFileContent(as_path, ReadFixture(name), &report);
  return report;
}

std::set<std::string> RulesHit(const Report& report) {
  std::set<std::string> rules;
  for (const auto& diagnostic : report.diagnostics) {
    rules.insert(diagnostic.rule);
  }
  return rules;
}

int RunBinary(const std::string& args) {
  std::string command = std::string(PMEMOLAP_LINT_BIN) + " " + args +
                        " > /dev/null 2>&1";
  int raw = std::system(command.c_str());
  return WEXITSTATUS(raw);
}

// --- layering --------------------------------------------------------------

TEST(LintLayering, FlagsUpwardInclude) {
  Report report =
      LintFixtureAs("layering_violation.cc", "src/memsys/fixture.cc");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule, "layering");
  EXPECT_EQ(report.diagnostics[0].line, 4);  // the engine/ include
  EXPECT_EQ(report.diagnostics[0].file, "src/memsys/fixture.cc");
}

TEST(LintLayering, AcceptsDownwardIncludes) {
  Report report =
      LintFixtureAs("layering_clean.cc", "src/memsys/fixture.cc");
  EXPECT_TRUE(report.clean()) << report.diagnostics[0].ToString();
}

TEST(LintLayering, SameFileIsExemptOutsideSrc) {
  // tests/ files may include anything; layering is a src/ property.
  Report report =
      LintFixtureAs("layering_violation.cc", "tests/memsys/fixture.cc");
  EXPECT_FALSE(RulesHit(report).count("layering"));
}

TEST(LintLayering, IntraTierEdgeRequiresDeclaration) {
  Report report;
  LintFileContent("src/ssb/fixture.cc", "#include \"dash/dash_table.h\"\n",
                  &report);
  ASSERT_EQ(report.diagnostics.size(), 1u);  // ssb -> dash is not declared
  EXPECT_EQ(report.diagnostics[0].rule, "layering");

  Report declared;
  LintFileContent("src/engine/fixture.cc",
                  "#include \"dash/dash_table.h\"\n", &declared);
  EXPECT_TRUE(declared.clean());  // engine -> dash is declared
}

// --- determinism -----------------------------------------------------------

TEST(LintDeterminism, FlagsEntropyAndClocksInModelLayer) {
  Report report =
      LintFixtureAs("determinism_violation.cc", "src/device/fixture.cc");
  EXPECT_EQ(RulesHit(report), std::set<std::string>{"determinism"});
  EXPECT_EQ(report.diagnostics.size(), 3u);  // random_device, time, clock
}

TEST(LintDeterminism, CleanFixtureHasNoFalsePositives) {
  // Substrings (runtime, timeline), comments and string literals must
  // not trip the token matcher.
  Report report =
      LintFixtureAs("determinism_clean.cc", "src/device/fixture.cc");
  EXPECT_TRUE(report.clean()) << report.diagnostics[0].ToString();
}

TEST(LintDeterminism, EngineLayerMayReadClocks) {
  // engine/timer measures host wall-clock by design.
  Report report =
      LintFixtureAs("determinism_violation.cc", "src/engine/fixture.cc");
  EXPECT_FALSE(RulesHit(report).count("determinism"));
}

// --- raw-thread ------------------------------------------------------------

TEST(LintRawThread, FlagsThreadConstructionOutsideExec) {
  Report report =
      LintFixtureAs("raw_thread_violation.cc", "src/core/fixture.cc");
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(RulesHit(report), std::set<std::string>{"raw-thread"});
}

TEST(LintRawThread, AllowsHardwareConcurrencyAndExecLayer) {
  Report clean =
      LintFixtureAs("raw_thread_clean.cc", "src/core/fixture.cc");
  EXPECT_TRUE(clean.clean()) << clean.diagnostics[0].ToString();
  Report exec =
      LintFixtureAs("raw_thread_violation.cc", "src/exec/fixture.cc");
  EXPECT_TRUE(exec.clean());
  Report tests =
      LintFixtureAs("raw_thread_violation.cc", "tests/core/fixture.cc");
  EXPECT_TRUE(tests.clean());
}

// --- volatile-sync ---------------------------------------------------------

TEST(LintVolatile, FlagsVolatileEverywhere) {
  Report in_src =
      LintFixtureAs("volatile_violation.cc", "src/ssb/fixture.cc");
  EXPECT_EQ(RulesHit(in_src), std::set<std::string>{"volatile-sync"});
  Report in_tests =
      LintFixtureAs("volatile_violation.cc", "tests/ssb/fixture.cc");
  EXPECT_EQ(RulesHit(in_tests), std::set<std::string>{"volatile-sync"});
}

TEST(LintVolatile, AtomicIsClean) {
  Report report =
      LintFixtureAs("volatile_clean.cc", "src/ssb/fixture.cc");
  EXPECT_TRUE(report.clean()) << report.diagnostics[0].ToString();
}

// --- header-static ---------------------------------------------------------

TEST(LintHeaderStatic, FlagsMutableStaticsInHeaders) {
  Report report =
      LintFixtureAs("header_static_violation.h", "src/common/fixture.h");
  EXPECT_EQ(RulesHit(report), std::set<std::string>{"header-static"});
  EXPECT_EQ(report.diagnostics.size(), 2u);
}

TEST(LintHeaderStatic, ConstantsAndFunctionsAreClean) {
  Report report =
      LintFixtureAs("header_static_clean.h", "src/common/fixture.h");
  EXPECT_TRUE(report.clean()) << report.diagnostics[0].ToString();
}

TEST(LintHeaderStatic, SameContentInSourceFileIsClean) {
  // .cc-internal statics are fine; the rule is about headers.
  Report report =
      LintFixtureAs("header_static_violation.h", "src/common/fixture.cc");
  EXPECT_TRUE(report.clean());
}

// --- discarded-status ------------------------------------------------------

TEST(LintDiscardedStatus, FlagsVoidCastOfCallAndStdIgnore) {
  Report report = LintFixtureAs("discarded_status_violation.cc",
                                "src/core/fixture.cc");
  EXPECT_EQ(RulesHit(report), std::set<std::string>{"discarded-status"});
  EXPECT_EQ(report.diagnostics.size(), 2u);
}

TEST(LintDiscardedStatus, UnusedVariableIdiomIsClean) {
  Report report =
      LintFixtureAs("discarded_status_clean.cc", "src/core/fixture.cc");
  EXPECT_TRUE(report.clean()) << report.diagnostics[0].ToString();
}

// --- unseeded-rng ----------------------------------------------------------

TEST(LintUnseededRng, FlagsDefaultConstructedEngines) {
  Report report =
      LintFixtureAs("unseeded_rng_violation.cc", "src/ssb/fixture.cc");
  EXPECT_EQ(RulesHit(report), std::set<std::string>{"unseeded-rng"});
  EXPECT_EQ(report.diagnostics.size(), 3u);
}

TEST(LintUnseededRng, SeededEnginesAreClean) {
  Report report =
      LintFixtureAs("unseeded_rng_clean.cc", "src/ssb/fixture.cc");
  EXPECT_TRUE(report.clean()) << report.diagnostics[0].ToString();
}

// --- qos layering ----------------------------------------------------------

TEST(LintLayering, QosSitsAboveFaultAndBelowEngine) {
  // qos -> fault crosses ranks downward: fine.
  Report qos;
  LintFileContent("src/qos/fixture.cc",
                  "#include \"fault/fault_injector.h\"\n", &qos);
  EXPECT_TRUE(qos.clean());
  // engine -> qos is a declared intra-tier edge.
  Report engine;
  LintFileContent("src/engine/fixture.cc",
                  "#include \"qos/admission.h\"\n", &engine);
  EXPECT_TRUE(engine.clean());
  // qos -> engine is not declared: same tier, wrong direction.
  Report upward;
  LintFileContent("src/qos/fixture.cc", "#include \"engine/engine.h\"\n",
                  &upward);
  ASSERT_EQ(upward.diagnostics.size(), 1u);
  EXPECT_EQ(upward.diagnostics[0].rule, "layering");
  // exec -> qos is not declared either: the pool stays qos-agnostic
  // (cancellation reaches it as a plain std::function).
  Report exec;
  LintFileContent("src/exec/fixture.cc", "#include \"qos/cancel_token.h\"\n",
                  &exec);
  ASSERT_EQ(exec.diagnostics.size(), 1u);
  EXPECT_EQ(exec.diagnostics[0].rule, "layering");
}

TEST(LintDeterminism, QosLayerMayReadClocks) {
  // Wall deadlines are host-time by definition; qos is exempt.
  Report report =
      LintFixtureAs("determinism_violation.cc", "src/qos/fixture.cc");
  EXPECT_FALSE(RulesHit(report).count("determinism"));
}

// --- governor layering -----------------------------------------------------

TEST(LintLayering, GovernorSitsBetweenModelAndExecutors) {
  // governor -> engine/exec reaches up across the tier boundary.
  Report upward =
      LintFixtureAs("governor_tier_violation.cc", "src/governor/fixture.cc");
  ASSERT_EQ(upward.diagnostics.size(), 2u);  // engine/ and exec/ includes
  EXPECT_EQ(upward.diagnostics[0].rule, "layering");
  EXPECT_EQ(upward.diagnostics[1].rule, "layering");
  // governor -> {memsys, core, fault} is the sampling direction: clean.
  Report clean =
      LintFixtureAs("governor_tier_clean.cc", "src/governor/fixture.cc");
  EXPECT_TRUE(clean.clean()) << clean.diagnostics[0].ToString();
  // engine and exec pull decisions from the governor below them: clean.
  Report engine;
  LintFileContent("src/engine/fixture.cc",
                  "#include \"governor/governor.h\"\n", &engine);
  EXPECT_TRUE(engine.clean());
  Report exec;
  LintFileContent("src/exec/fixture.cc",
                  "#include \"governor/governor.h\"\n", &exec);
  EXPECT_TRUE(exec.clean());
  // memsys -> governor inverts the DAG: the model must not know who
  // samples it.
  Report memsys;
  LintFileContent("src/memsys/fixture.cc",
                  "#include \"governor/governor.h\"\n", &memsys);
  ASSERT_EQ(memsys.diagnostics.size(), 1u);
  EXPECT_EQ(memsys.diagnostics[0].rule, "layering");
}

TEST(LintDeterminism, GovernorIsADeterministicLayer) {
  // Identical telemetry must produce identical actuator decisions, so
  // the governor may not read host clocks or entropy.
  Report report =
      LintFixtureAs("determinism_violation.cc", "src/governor/fixture.cc");
  EXPECT_EQ(RulesHit(report), std::set<std::string>{"determinism"});
}

// --- service layering ------------------------------------------------------

TEST(LintLayering, ServiceSitsAboveEverything) {
  // The service composes engine/governor/qos/fault/durability: clean.
  Report clean =
      LintFixtureAs("service_tier_clean.cc", "src/service/fixture.cc");
  EXPECT_TRUE(clean.clean()) << clean.diagnostics[0].ToString();
  // Nothing may include the service: it is a consumer of the stack,
  // never a dependency of it.
  Report engine =
      LintFixtureAs("service_tier_violation.cc", "src/engine/fixture.cc");
  ASSERT_EQ(engine.diagnostics.size(), 1u);
  EXPECT_EQ(engine.diagnostics[0].rule, "layering");
  Report qos;
  LintFileContent("src/qos/fixture.cc", "#include \"service/chaos.h\"\n",
                  &qos);
  ASSERT_EQ(qos.diagnostics.size(), 1u);
  EXPECT_EQ(qos.diagnostics[0].rule, "layering");
}

TEST(LintDeterminism, ServiceIsADeterministicLayer) {
  // Campaigns replay on modeled time: same seed, byte-identical chaos
  // schedules and scorecards. Host clocks and entropy are banned even
  // though the service sits above the (host-timing-exempt) executors.
  Report report =
      LintFixtureAs("determinism_violation.cc", "src/service/fixture.cc");
  EXPECT_EQ(RulesHit(report), std::set<std::string>{"determinism"});
}

TEST(LintRawThread, ServiceMayNotSpawnThreads) {
  // The discrete-event loop is single-threaded by design; parallelism
  // belongs to the engine's executor underneath.
  Report report =
      LintFixtureAs("raw_thread_violation.cc", "src/service/fixture.cc");
  EXPECT_TRUE(RulesHit(report).count("raw-thread"));
}

// --- persist-order (flow-sensitive) ----------------------------------------

TEST(LintPersistOrder, FlagsPublishWithPendingStores) {
  Report report = LintFixtureAs("persist_order_publish_violation.cc",
                                "src/durability/fixture.cc");
  EXPECT_EQ(RulesHit(report), std::set<std::string>{"persist-order"});
  // Both flavors of unpersisted publish are caught at the publish: a
  // store still dirty in the modeled cache, and a flush with no Fence.
  std::map<int, std::string> publishes;
  for (const auto& diagnostic : report.diagnostics) {
    if (diagnostic.message.rfind("AdvanceCommitted()", 0) == 0) {
      publishes[diagnostic.line] = diagnostic.message;
    }
  }
  ASSERT_EQ(publishes.size(), 2u);
  EXPECT_NE(publishes[11].find("dirty in the modeled cache"),
            std::string::npos);
  EXPECT_NE(publishes[19].find("has not reached a Fence()"),
            std::string::npos);
}

TEST(LintPersistOrder, CompleteLaddersAndFunctionResetsAreClean) {
  Report report = LintFixtureAs("persist_order_publish_clean.cc",
                                "src/durability/fixture.cc");
  EXPECT_TRUE(report.clean()) << report.diagnostics[0].ToString();
}

TEST(LintPersistOrder, FlagsFlushMissingOnOneBranchArm) {
  Report report = LintFixtureAs("persist_order_branchy_violation.cc",
                                "src/durability/fixture.cc");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule, "persist-order");
  EXPECT_EQ(report.diagnostics[0].line, 15);  // the publish, not the store
}

TEST(LintPersistOrder, BothArmsFlushedIsClean) {
  Report report = LintFixtureAs("persist_order_branchy_clean.cc",
                                "src/durability/fixture.cc");
  EXPECT_TRUE(report.clean()) << report.diagnostics[0].ToString();
}

TEST(LintPersistOrder, FlagsLoopCarriedUnflushedStore) {
  Report report = LintFixtureAs("persist_order_loop_violation.cc",
                                "src/durability/fixture.cc");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule, "persist-order");
  EXPECT_EQ(report.diagnostics[0].line, 19);
  // The diagnostic names the loop-varying range, proving the fixpoint
  // carried the store's key across iterations.
  EXPECT_NE(report.diagnostics[0].message.find("RecordOffset(i)"),
            std::string::npos);
}

TEST(LintPersistOrder, FlushEveryIterationIsClean) {
  Report report = LintFixtureAs("persist_order_loop_clean.cc",
                                "src/durability/fixture.cc");
  EXPECT_TRUE(report.clean()) << report.diagnostics[0].ToString();
}

TEST(LintPersistOrder, FlagsEarlyReturnEscapingTheFence) {
  Report report = LintFixtureAs("persist_order_early_return_violation.cc",
                                "src/durability/fixture.cc");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule, "persist-order");
  EXPECT_EQ(report.diagnostics[0].line, 13);  // the return, not the flush
}

TEST(LintPersistOrder, EarlyReturnBeforeAnyStoreIsClean) {
  Report report = LintFixtureAs("persist_order_early_return_clean.cc",
                                "src/durability/fixture.cc");
  EXPECT_TRUE(report.clean()) << report.diagnostics[0].ToString();
}

TEST(LintPersistOrder, FlagsCommitMarkerBeforeDominatingFence) {
  Report report = LintFixtureAs("persist_order_commit_violation.cc",
                                "src/durability/fixture.cc");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule, "persist-order");
  EXPECT_EQ(report.diagnostics[0].line, 12);  // the commit-hinted write
}

TEST(LintPersistOrder, FencedPayloadBeforeCommitIsClean) {
  Report report = LintFixtureAs("persist_order_commit_clean.cc",
                                "src/durability/fixture.cc");
  EXPECT_TRUE(report.clean()) << report.diagnostics[0].ToString();
}

TEST(LintPersistOrder, FlagsCommitMarkerBeforeAnotherRegionsFence) {
  // Write-once ingest puts the payload in the table and the marker in
  // the log: the marker must wait for every receiver's fence.
  Report report =
      LintFixtureAs("persist_order_commit_cross_region_violation.cc",
                    "src/durability/fixture.cc");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule, "persist-order");
  EXPECT_EQ(report.diagnostics[0].line, 13);  // the commit-hinted write
}

TEST(LintPersistOrder, FencedTablePayloadBeforeLogCommitIsClean) {
  Report report =
      LintFixtureAs("persist_order_commit_cross_region_clean.cc",
                    "src/durability/fixture.cc");
  EXPECT_TRUE(report.clean()) << report.diagnostics[0].ToString();
}

TEST(LintPersistOrder, AllowAnnotationSilencesTheFlowPass) {
  Report report = LintFixtureAs("persist_order_allow.cc",
                                "src/durability/fixture.cc");
  EXPECT_TRUE(report.clean()) << report.diagnostics[0].ToString();
  EXPECT_EQ(report.allowed, 1);
}

TEST(LintPersistOrder, BrokenWritePathIsCaughtStatically) {
  // The static half of the tests/durability/broken_write_path.h pact:
  // the SAME file the runtime oracle catches in
  // persist_order_checker_test.cc must be flagged by the flow pass when
  // it reads as durability-layer source. Lint the real header, not a
  // copy, so the two layers can never drift apart.
  Report report = LintFixtureAs("../../durability/broken_write_path.h",
                                "src/durability/broken_write_path.h");
  ASSERT_FALSE(report.clean());
  std::set<std::string> rules = RulesHit(report);
  EXPECT_TRUE(rules.count("persist-order")) << "publish-while-dirty";
  for (const auto& diagnostic : report.diagnostics) {
    if (diagnostic.rule == "persist-order") {
      EXPECT_EQ(diagnostic.line, 28);  // the OnPublish call
    }
  }
}

TEST(LintPersistOrder, TestsTreeIsExemptFromTheFlowPass) {
  // Durability tests violate the protocol on purpose (crash fixtures);
  // the runtime oracle covers them instead.
  Report report = LintFixtureAs("persist_order_branchy_violation.cc",
                                "tests/durability/fixture.cc");
  EXPECT_TRUE(report.clean());
}

// --- persist-double-flush ---------------------------------------------------

TEST(LintPersistDoubleFlush, FlagsBackToBackFlushOfTheSameRange) {
  Report report = LintFixtureAs("persist_double_flush_violation.cc",
                                "src/durability/fixture.cc");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule, "persist-double-flush");
  EXPECT_EQ(report.diagnostics[0].line, 11);  // the second flush
}

TEST(LintPersistDoubleFlush, RedirtyBetweenFlushesIsClean) {
  Report report = LintFixtureAs("persist_double_flush_clean.cc",
                                "src/durability/fixture.cc");
  EXPECT_TRUE(report.clean()) << report.diagnostics[0].ToString();
}

// --- persist-mixed-store ----------------------------------------------------

TEST(LintPersistMixedStore, FlagsBothInterleavingsWithoutAFence) {
  Report report = LintFixtureAs("persist_mixed_store_violation.cc",
                                "src/durability/fixture.cc");
  ASSERT_EQ(report.diagnostics.size(), 2u);
  EXPECT_EQ(report.diagnostics[0].rule, "persist-mixed-store");
  EXPECT_EQ(report.diagnostics[0].line, 10);  // NtStore after cached Store
  EXPECT_EQ(report.diagnostics[1].rule, "persist-mixed-store");
  EXPECT_EQ(report.diagnostics[1].line, 18);  // cached Store after NtStore
}

TEST(LintPersistMixedStore, FenceBetweenStoreKindsIsClean) {
  Report report = LintFixtureAs("persist_mixed_store_clean.cc",
                                "src/durability/fixture.cc");
  EXPECT_TRUE(report.clean()) << report.diagnostics[0].ToString();
}

// --- persist-raw-write ------------------------------------------------------

TEST(LintPersistRawWrite, FlagsMemcpyAndMemsetIntoRegionBacking) {
  Report report = LintFixtureAs("persist_raw_write_violation.cc",
                                "src/engine/fixture.cc");
  ASSERT_EQ(report.diagnostics.size(), 2u);
  EXPECT_EQ(report.diagnostics[0].rule, "persist-raw-write");
  EXPECT_EQ(report.diagnostics[0].line, 11);  // memcpy into region.data()
  EXPECT_EQ(report.diagnostics[1].rule, "persist-raw-write");
  EXPECT_EQ(report.diagnostics[1].line, 15);  // memset into persisted()
}

TEST(LintPersistRawWrite, StagingThroughThePrimitiveLadderIsClean) {
  Report report = LintFixtureAs("persist_raw_write_clean.cc",
                                "src/engine/fixture.cc");
  EXPECT_TRUE(report.clean()) << report.diagnostics[0].ToString();
}

TEST(LintPersistRawWrite, DurabilityLayerAndTestsAreExempt) {
  // src/durability/ owns the backing memory (the primitives themselves
  // memcpy into it); tests assemble crash images by hand.
  Report durability = LintFixtureAs("persist_raw_write_violation.cc",
                                    "src/durability/fixture.cc");
  EXPECT_FALSE(RulesHit(durability).count("persist-raw-write"));
  Report tests = LintFixtureAs("persist_raw_write_violation.cc",
                               "tests/engine/fixture.cc");
  EXPECT_FALSE(RulesHit(tests).count("persist-raw-write"));
}

// --- durability layering ---------------------------------------------------

TEST(LintLayering, DurabilitySharesTheGovernorTier) {
  // durability -> fault/memsys reads downward: clean.
  Report down;
  LintFileContent("src/durability/fixture.cc",
                  "#include \"fault/fault_injector.h\"\n"
                  "#include \"memsys/persist.h\"\n",
                  &down);
  EXPECT_TRUE(down.clean());
  // engine -> durability pulls from above: clean.
  Report engine;
  LintFileContent("src/engine/fixture.cc",
                  "#include \"durability/durable_table.h\"\n", &engine);
  EXPECT_TRUE(engine.clean());
  // durability -> engine inverts the DAG.
  Report upward;
  LintFileContent("src/durability/fixture.cc",
                  "#include \"engine/engine.h\"\n", &upward);
  ASSERT_EQ(upward.diagnostics.size(), 1u);
  EXPECT_EQ(upward.diagnostics[0].rule, "layering");
  // durability and governor are same-rank strangers, both directions.
  Report to_governor;
  LintFileContent("src/durability/fixture.cc",
                  "#include \"governor/governor.h\"\n", &to_governor);
  ASSERT_EQ(to_governor.diagnostics.size(), 1u);
  EXPECT_EQ(to_governor.diagnostics[0].rule, "layering");
  Report from_governor;
  LintFileContent("src/governor/fixture.cc",
                  "#include \"durability/durable_table.h\"\n",
                  &from_governor);
  ASSERT_EQ(from_governor.diagnostics.size(), 1u);
  EXPECT_EQ(from_governor.diagnostics[0].rule, "layering");
}

TEST(LintDeterminism, DurabilityIsADeterministicLayer) {
  // Crash schedules and recovery replay must be reproducible from
  // (seed, boundary_index) alone; no host clocks or entropy.
  Report report = LintFixtureAs("determinism_violation.cc",
                                "src/durability/fixture.cc");
  EXPECT_EQ(RulesHit(report), std::set<std::string>{"determinism"});
}

// --- encoding layering ------------------------------------------------------

TEST(LintLayering, EncodingSitsBelowTheExecutorsBesideSim) {
  // encoding -> engine/sim reaches up / sideways across tier boundaries.
  Report upward =
      LintFixtureAs("encoding_tier_violation.cc", "src/encoding/fixture.cc");
  ASSERT_EQ(upward.diagnostics.size(), 2u);  // engine/ and sim/ includes
  EXPECT_EQ(upward.diagnostics[0].rule, "layering");
  EXPECT_EQ(upward.diagnostics[1].rule, "layering");
  // encoding -> {common, memsys} reads downward: clean.
  Report clean =
      LintFixtureAs("encoding_tier_clean.cc", "src/encoding/fixture.cc");
  EXPECT_TRUE(clean.clean()) << clean.diagnostics[0].ToString();
  // ssb and engine pull the encoded formats from above: clean.
  Report ssb;
  LintFileContent("src/ssb/fixture.cc",
                  "#include \"encoding/encoding.h\"\n", &ssb);
  EXPECT_TRUE(ssb.clean());
  Report engine;
  LintFileContent("src/engine/fixture.cc",
                  "#include \"encoding/encoding.h\"\n", &engine);
  EXPECT_TRUE(engine.clean());
  // memsys -> encoding inverts the DAG: the model must not know what
  // data formats ride on it. sim -> encoding crosses same-rank strangers.
  Report memsys;
  LintFileContent("src/memsys/fixture.cc",
                  "#include \"encoding/encoding.h\"\n", &memsys);
  ASSERT_EQ(memsys.diagnostics.size(), 1u);
  EXPECT_EQ(memsys.diagnostics[0].rule, "layering");
  Report sim;
  LintFileContent("src/sim/fixture.cc",
                  "#include \"encoding/encoding.h\"\n", &sim);
  ASSERT_EQ(sim.diagnostics.size(), 1u);
  EXPECT_EQ(sim.diagnostics[0].rule, "layering");
}

TEST(LintDeterminism, EncodingIsADeterministicLayer) {
  // The same column must encode to the same bytes on every run — scheme
  // choice and frame layout feed modeled scan pricing.
  Report report = LintFixtureAs("determinism_violation.cc",
                                "src/encoding/fixture.cc");
  EXPECT_EQ(RulesHit(report), std::set<std::string>{"determinism"});
}

// --- tiering layering ------------------------------------------------------

TEST(LintLayering, TieringSharesTheGovernorTier) {
  // tiering -> engine/service reaches up across tier boundaries.
  Report upward =
      LintFixtureAs("tiering_tier_violation.cc", "src/tiering/fixture.cc");
  ASSERT_EQ(upward.diagnostics.size(), 2u);  // engine/ and service/
  EXPECT_EQ(upward.diagnostics[0].rule, "layering");
  EXPECT_EQ(upward.diagnostics[1].rule, "layering");
  // tiering -> {device, memsys, core, encoding} reads downward: clean.
  Report clean =
      LintFixtureAs("tiering_tier_clean.cc", "src/tiering/fixture.cc");
  EXPECT_TRUE(clean.clean()) << clean.diagnostics[0].ToString();
  // The engine pushes touches / pulls snapshots from above: clean.
  Report engine;
  LintFileContent("src/engine/fixture.cc",
                  "#include \"tiering/tier_manager.h\"\n", &engine);
  EXPECT_TRUE(engine.clean());
  // governor -> tiering is NOT audited: the governor sees migrations only
  // as the background records the engine forwards.
  Report governor;
  LintFileContent("src/governor/fixture.cc",
                  "#include \"tiering/tier_manager.h\"\n", &governor);
  ASSERT_EQ(governor.diagnostics.size(), 1u);
  EXPECT_EQ(governor.diagnostics[0].rule, "layering");
  // tiering -> governor is NOT audited: the loop exports traffic, it
  // never reads the governor's decisions.
  Report to_governor;
  LintFileContent("src/tiering/fixture.cc",
                  "#include \"governor/governor.h\"\n", &to_governor);
  ASSERT_EQ(to_governor.diagnostics.size(), 1u);
  EXPECT_EQ(to_governor.diagnostics[0].rule, "layering");
  // device -> tiering inverts the DAG: the SSD model must not know who
  // places extents on it.
  Report device;
  LintFileContent("src/device/fixture.cc",
                  "#include \"tiering/tier_manager.h\"\n", &device);
  ASSERT_EQ(device.diagnostics.size(), 1u);
  EXPECT_EQ(device.diagnostics[0].rule, "layering");
}

TEST(LintDeterminism, TieringIsADeterministicLayer) {
  // Same touch sequence, byte-identical actuator log — the placement
  // loop feeds modeled scan pricing, so host clocks and entropy are
  // banned.
  Report report = LintFixtureAs("determinism_violation.cc",
                                "src/tiering/fixture.cc");
  EXPECT_EQ(RulesHit(report), std::set<std::string>{"determinism"});
}

// --- allowlist -------------------------------------------------------------

TEST(LintAllowlist, SameLineAndCommentBlockFormsAreHonored) {
  Report report = LintFixtureAs("allowlist.cc", "src/core/fixture.cc");
  EXPECT_TRUE(report.clean())
      << report.diagnostics[0].ToString();
  EXPECT_EQ(report.allowed, 2);
}

TEST(LintAllowlist, AllowOnlySilencesItsOwnRule) {
  Report report;
  LintFileContent(
      "src/core/fixture.cc",
      "volatile int v = 0;  // lint:allow(raw-thread): wrong rule\n",
      &report);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule, "volatile-sync");
  EXPECT_EQ(report.allowed, 0);
}

// --- test-only-api (tree pass) ---------------------------------------------

/// Lints the fixture tree whose src/core/api.h declares one function per
/// kind of use (bench/, perfbench/, examples/*.cpp, its own .cc, a
/// qualified call) plus one that only tests/ call.
Report LintTestOnlyApiTree() {
  Report report;
  EXPECT_GT(LintTree(std::string(PMEMOLAP_LINT_FIXTURES) + "/test_only_api",
                     &report),
            0);
  return report;
}

bool Flags(const Report& report, const std::string& name) {
  for (const auto& diagnostic : report.diagnostics) {
    if (diagnostic.rule == "test-only-api" &&
        diagnostic.message.find("'" + name + "'") != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(LintTestOnlyApi, FlagsAFunctionOnlyTestsCallAtItsHeaderLine) {
  Report report = LintTestOnlyApiTree();
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule, "test-only-api");
  EXPECT_EQ(report.diagnostics[0].file, "src/core/api.h");
  EXPECT_EQ(report.diagnostics[0].line, 7);
  EXPECT_TRUE(Flags(report, "OnlyTestsCallThis"));
}

TEST(LintTestOnlyApi, BenchPerfbenchAndExampleUsesCount) {
  Report report = LintTestOnlyApiTree();
  EXPECT_FALSE(Flags(report, "UsedByBench"));
  EXPECT_FALSE(Flags(report, "UsedByPerfbench"));
  EXPECT_FALSE(Flags(report, "UsedByExample"));
}

TEST(LintTestOnlyApi, PrivateHelperCalledFromItsOwnSourceIsClean) {
  // Called as `return PrivateHelper(x);`: an expression keyword is no type.
  EXPECT_FALSE(Flags(LintTestOnlyApiTree(), "PrivateHelper"));
}

TEST(LintTestOnlyApi, QualifiedCallIsAUseNotADeclaration) {
  // `ns::Foo(` reads as a declaration to a check that does not drop the
  // trailing qualifier chain first: once as a statement, once as a call
  // argument on a continuation line.
  Report report = LintTestOnlyApiTree();
  EXPECT_FALSE(Flags(report, "QualifiedAtLineStart"));
  EXPECT_FALSE(Flags(report, "QualifiedAsArgument"));
}

TEST(LintTestOnlyApi, CallContinuingAnArgumentListIsAUse) {
  // `    total, Foo(` on a continuation line: the comma outside `<>`
  // separates arguments, so the text before the name is no type.
  EXPECT_FALSE(Flags(LintTestOnlyApiTree(), "UsedAfterAComma"));
}

TEST(LintTestOnlyApi, AllowSilencesTheHitAndIsInventoried) {
  Report report = LintTestOnlyApiTree();
  EXPECT_FALSE(Flags(report, "AllowedName"));
  EXPECT_EQ(report.allowed, 1);
  ASSERT_EQ(report.allow_audits.size(), 1u);
  EXPECT_EQ(report.allow_audits[0].rule, "test-only-api");
  EXPECT_EQ(report.allow_audits[0].file, "src/core/api.h");
  EXPECT_FALSE(report.allow_audits[0].reason.empty());
  std::string fixtures(PMEMOLAP_LINT_FIXTURES);
  EXPECT_EQ(RunBinary("--list-allows --root " + fixtures + "/test_only_api"),
            0);
}

TEST(LintTestOnlyApi, SingleFileLintDoesNotRunTheTreePass) {
  // Without the workload tree there is no use set to judge against.
  Report report =
      LintFixtureAs("test_only_api/src/core/api.h", "src/core/api.h");
  EXPECT_TRUE(report.clean()) << report.diagnostics[0].ToString();
}

// --- CLI exit codes --------------------------------------------------------

TEST(LintCli, ExitCodesMatchContract) {
  std::string fixtures(PMEMOLAP_LINT_FIXTURES);
  EXPECT_EQ(RunBinary("--root " + fixtures + "/tree_clean"), 0);
  EXPECT_EQ(RunBinary("--root " + fixtures + "/tree_bad"), 1);
  EXPECT_EQ(RunBinary("--root /nonexistent-root"), 2);
  EXPECT_EQ(RunBinary("--bogus-flag"), 2);
  EXPECT_EQ(RunBinary("--list-rules"), 0);
}

TEST(LintCli, JsonAndGithubModesPreserveExitCodes) {
  std::string fixtures(PMEMOLAP_LINT_FIXTURES);
  EXPECT_EQ(RunBinary("--json --root " + fixtures + "/tree_clean"), 0);
  EXPECT_EQ(RunBinary("--json --root " + fixtures + "/tree_bad"), 1);
  EXPECT_EQ(RunBinary("--github --root " + fixtures + "/tree_bad"), 1);
}

TEST(LintCli, ListAllowsAuditsReasons) {
  // Every in-tree allow carries a reason, so the audit passes on the
  // real tree (the blocking CI step depends on this staying true).
  std::string repo_root = std::string(PMEMOLAP_LINT_FIXTURES) + "/../../..";
  EXPECT_EQ(RunBinary("--list-allows --root " + repo_root), 0);
}

TEST(LintAllowlist, AllowNotesAreInventoriedForTheAudit) {
  Report report = LintFixtureAs("persist_order_allow.cc",
                                "src/durability/fixture.cc");
  ASSERT_EQ(report.allow_audits.size(), 1u);
  EXPECT_EQ(report.allow_audits[0].rule, "persist-order");
  EXPECT_FALSE(report.allow_audits[0].reason.empty());
  EXPECT_EQ(report.allow_audits[0].file, "src/durability/fixture.cc");
}

TEST(LintAllowlist, DocProseMentioningTheSyntaxIsNotAnAllow) {
  Report report;
  LintFileContent("src/core/fixture.cc",
                  "// Use `// lint:allow(raw-thread): <reason>` to opt "
                  "out.\n",
                  &report);
  EXPECT_TRUE(report.allow_audits.empty());
}

TEST(LintCli, FixtureDirectoriesAreExcludedFromTreeWalks) {
  // tree_clean seeds a violation under tests/tools/fixtures/; a clean
  // exit proves the walker skipped it.
  std::string fixtures(PMEMOLAP_LINT_FIXTURES);
  EXPECT_EQ(RunBinary("--root " + fixtures + "/tree_clean"), 0);
  // Naming the excluded file explicitly must still lint it.
  EXPECT_EQ(
      RunBinary("--root " + fixtures + "/tree_clean " +
                "tests/tools/fixtures/excluded_violation.cc"),
      1);
}

TEST(LintReport, DiagnosticFormatIsFileLineRule) {
  Diagnostic diagnostic{"src/core/x.cc", 12, "layering", "boom"};
  EXPECT_EQ(diagnostic.ToString(),
            "src/core/x.cc:12: error: [layering] boom");
}

TEST(LintReport, RuleNamesAreStable) {
  EXPECT_EQ(RuleNames().size(), 12u);
  EXPECT_EQ(RuleNames().back(), "test-only-api");
}

}  // namespace
}  // namespace pmemolap::lint
