// Crash-during-traffic end-to-end: the chaos schedule arms the crash
// injector mid-campaign, the next ingest burst dies at a real
// persistence boundary, Recover() verifies the commit log while admission
// parks the waiting clients, and service resumes — with zero committed-
// epoch loss and reads bit-identical to the reference over the committed
// prefix throughout.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "service/service.h"
#include "ssb/dbgen.h"

namespace pmemolap::service {
namespace {

class ServiceCrashTrafficTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto db = ssb::Generate({.scale_factor = 0.01, .seed = 11});
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = new ssb::Database(std::move(db).value());
    model_ = new MemSystemModel();
  }
  static void TearDownTestSuite() {
    delete db_;
    delete model_;
    db_ = nullptr;
    model_ = nullptr;
  }

  static ServiceConfig CrashConfig(int crashes, int bursts) {
    ServiceConfig config;
    config.workload.num_clients = 100;
    config.workload.mean_think_seconds = 2.0;
    config.workload.high_deadline_seconds = 4.0;
    config.workload.normal_deadline_seconds = 8.0;
    config.chaos.horizon_seconds = 20.0;
    config.chaos.crashes = crashes;
    config.chaos.ingest_bursts = bursts;
    config.chaos.burst_rows = db_->lineorder.size() / 12;
    config.admission.max_concurrent = 8;
    config.service_time_scale = 0.02;
    config.initial_ingest_fraction = 0.5;
    config.initial_ingest_epochs = 3;
    return config;
  }

  static ssb::Database* db_;
  static MemSystemModel* model_;
};

ssb::Database* ServiceCrashTrafficTest::db_ = nullptr;
MemSystemModel* ServiceCrashTrafficTest::model_ = nullptr;

TEST_F(ServiceCrashTrafficTest, CrashRecoverResumeUnderTraffic) {
  QueryService service(db_, model_, CrashConfig(/*crashes=*/2,
                                                /*bursts=*/4));
  Result<ServiceReport> report = service.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ServiceCounters& c = report->counters;

  EXPECT_EQ(c.crashes, 2u);
  EXPECT_EQ(c.recoveries, 2u);
  EXPECT_EQ(c.epoch_regressions, 0u);
  EXPECT_EQ(c.incorrect_results, 0u);
  EXPECT_EQ(c.failed_executions, 0u);
  EXPECT_GT(c.completed, 0u);
  // The lost bursts were re-ingested after recovery: every burst's rows
  // commit eventually (bursts deferred into a crash window may merge
  // into one recovery epoch, so the epoch count has a merge allowance,
  // but the rows do not).
  EXPECT_GE(c.ingest_epochs, 6u);  // 3 initial + >= 3 burst epochs
  EXPECT_GE(c.ingest_rows,
            db_->lineorder.size() / 2 + 4 * (db_->lineorder.size() / 12) -
                16);
  // Each recovery completion is a fault-clear edge for the SLO scorecard.
  EXPECT_GE(report->fault_clear_edges.size(), 2u);
}

TEST_F(ServiceCrashTrafficTest, AdmissionParksDuringRecoveryWindow) {
  QueryService service(db_, model_, CrashConfig(/*crashes=*/1,
                                                /*bursts=*/3));
  Result<ServiceReport> report = service.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->counters.crashes, 1u);
  ASSERT_EQ(report->counters.recoveries, 1u);

  // The crash forces an immediate pause-and-drain transition (no
  // hysteresis wait) and the ladder steps back down once recovery's
  // modeled window elapses — both land in the transition log.
  double pause_at = -1.0;
  bool resumed_after = false;
  for (const std::string& line : report->degradation_log) {
    double t = 0.0;
    ASSERT_EQ(std::sscanf(line.c_str(), "t=%lf", &t), 1) << line;
    if (line.find("-> pause-and-drain") != std::string::npos) {
      pause_at = t;
    } else if (pause_at >= 0.0 && t >= pause_at) {
      resumed_after = true;
    }
  }
  ASSERT_GE(pause_at, 0.0) << "crash never paused the service";
  EXPECT_TRUE(resumed_after) << "service never left pause-and-drain";

  // The recovery completion is the (single) fault-clear edge, and it
  // closes the pause window: no grant lands strictly inside it.
  ASSERT_EQ(report->fault_clear_edges.size(), 1u);
  const double recovered_at = report->fault_clear_edges[0];
  EXPECT_GE(recovered_at, pause_at);
  for (const RequestRecord& r : report->requests) {
    if (r.grant_seconds < 0.0) continue;
    EXPECT_FALSE(r.grant_seconds > pause_at &&
                 r.grant_seconds < recovered_at)
        << "grant at t=" << r.grant_seconds << " inside the crash window ["
        << pause_at << ", " << recovered_at << ")";
  }
}

TEST_F(ServiceCrashTrafficTest, SnapshotEpochsNeverExceedCommitted) {
  ServiceConfig config = CrashConfig(/*crashes=*/1, /*bursts=*/3);
  QueryService service(db_, model_, config);
  Result<ServiceReport> report = service.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // ingest_epochs counts every committed epoch including the initial
  // load; no completed read may pin an epoch beyond what committed.
  for (const RequestRecord& r : report->requests) {
    if (r.outcome != RequestOutcome::kCompleted) continue;
    EXPECT_LE(r.snapshot_epoch, report->counters.ingest_epochs);
  }
}

TEST_F(ServiceCrashTrafficTest, CrashCampaignIsDeterministic) {
  QueryService a(db_, model_, CrashConfig(/*crashes=*/2, /*bursts=*/4));
  QueryService b(db_, model_, CrashConfig(/*crashes=*/2, /*bursts=*/4));
  Result<ServiceReport> ra = a.Run();
  Result<ServiceReport> rb = b.Run();
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->Digest(), rb->Digest());
  EXPECT_EQ(ra->profile_csv, rb->profile_csv);
  EXPECT_EQ(ra->fault_clear_edges, rb->fault_clear_edges);
  EXPECT_EQ(ra->counters.ingest_rows, rb->counters.ingest_rows);
}

TEST_F(ServiceCrashTrafficTest, NoCrashNoRecoveryBookkeeping) {
  QueryService service(db_, model_, CrashConfig(/*crashes=*/0,
                                                /*bursts=*/3));
  Result<ServiceReport> report = service.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->counters.crashes, 0u);
  EXPECT_EQ(report->counters.recoveries, 0u);
  EXPECT_EQ(report->counters.epoch_regressions, 0u);
  // 3 initial-load epochs + 3 clean bursts.
  EXPECT_EQ(report->counters.ingest_epochs, 6u);
  EXPECT_TRUE(report->fault_clear_edges.empty());
}

}  // namespace
}  // namespace pmemolap::service
