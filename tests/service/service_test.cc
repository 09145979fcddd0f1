// QueryService end-to-end campaigns on small modeled populations:
// determinism, correctness accounting, priority/deadline behavior, the
// degradation ladder under throttle storms, and open-loop overload.
#include "service/service.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "ssb/dbgen.h"

namespace pmemolap::service {
namespace {

class ServiceTest : public ::testing::Test {
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

  static ServiceConfig SmallConfig() {
    ServiceConfig config;
    config.workload.num_clients = 120;
    config.workload.mean_think_seconds = 2.0;
    config.workload.high_deadline_seconds = 4.0;
    config.workload.normal_deadline_seconds = 8.0;
    config.chaos.horizon_seconds = 15.0;
    config.admission.max_concurrent = 8;
    config.admission.high_queue = 16;
    config.admission.normal_queue = 8;
    config.admission.batch_queue = 4;
    config.service_time_scale = 0.02;
    return config;
  }

  static ssb::Database* db_;
  static MemSystemModel* model_;
};

ssb::Database* ServiceTest::db_ = nullptr;
MemSystemModel* ServiceTest::model_ = nullptr;

TEST_F(ServiceTest, BaselineCampaignCompletesCorrectly) {
  QueryService service(db_, model_, SmallConfig());
  Result<ServiceReport> report = service.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ServiceCounters& c = report->counters;

  EXPECT_GT(c.completed, 0u);
  EXPECT_EQ(c.incorrect_results, 0u);
  EXPECT_EQ(c.failed_executions, 0u);
  EXPECT_EQ(c.crashes, 0u);
  // Memoization: far fewer host executions than completions.
  EXPECT_GT(c.cache_hits, 0u);
  EXPECT_LT(c.real_executions, c.completed);
  // Accounting closes: every grant ends completed, expired mid-run, or
  // still pending at the horizon; every terminal outcome traces back to
  // a submission.
  EXPECT_GE(c.granted, c.completed + c.expired_running);
  EXPECT_GE(c.submitted,
            c.completed + c.gave_up + c.expired_queued + c.expired_running);
  // Every completed request has a coherent record.
  for (const RequestRecord& r : report->requests) {
    if (r.outcome != RequestOutcome::kCompleted) continue;
    EXPECT_GE(r.grant_seconds, r.submit_seconds);
    EXPECT_GE(r.complete_seconds, r.grant_seconds);
    if (r.deadline_seconds >= 0.0) {
      EXPECT_LE(r.complete_seconds, r.deadline_seconds + 1e-9);
    }
  }
}

TEST_F(ServiceTest, SameSeedByteIdenticalReports) {
  QueryService a(db_, model_, SmallConfig());
  QueryService b(db_, model_, SmallConfig());
  Result<ServiceReport> ra = a.Run();
  Result<ServiceReport> rb = b.Run();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_EQ(ra->Digest(), rb->Digest());
  EXPECT_EQ(ra->profile_csv, rb->profile_csv);
  EXPECT_EQ(ra->chaos_log, rb->chaos_log);
  EXPECT_EQ(ra->degradation_log, rb->degradation_log);
  EXPECT_EQ(ra->counters.completed, rb->counters.completed);
  EXPECT_EQ(ra->requests.size(), rb->requests.size());
}

TEST_F(ServiceTest, DifferentSeedDifferentCampaign) {
  ServiceConfig other = SmallConfig();
  other.workload.seed += 1;
  QueryService a(db_, model_, SmallConfig());
  QueryService b(db_, model_, other);
  Result<ServiceReport> ra = a.Run();
  Result<ServiceReport> rb = b.Run();
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_NE(ra->Digest(), rb->Digest());
}

TEST_F(ServiceTest, ProfilerCoversTheHorizon) {
  ServiceConfig config = SmallConfig();
  QueryService service(db_, model_, config);
  Result<ServiceReport> report = service.Run();
  ASSERT_TRUE(report.ok());
  // One CSV row per modeled second on the 1 s tick (plus header), tick 0
  // included.
  int rows = 0;
  for (char ch : report->profile_csv) rows += ch == '\n' ? 1 : 0;
  EXPECT_EQ(rows, 1 + static_cast<int>(config.chaos.horizon_seconds) + 1);
}

TEST_F(ServiceTest, ThrottleStormEngagesTheLadder) {
  ServiceConfig config = SmallConfig();
  config.chaos.horizon_seconds = 24.0;
  config.chaos.throttle_storms = 2;
  config.chaos.storm_min_seconds = 6.0;
  config.chaos.storm_max_seconds = 8.0;
  config.chaos.storm_factor_lo = 0.15;
  config.chaos.storm_factor_hi = 0.30;
  config.chaos.poison_lines_per_mib = 8.0;

  QueryService service(db_, model_, config);
  Result<ServiceReport> report = service.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->counters.incorrect_results, 0u);
  EXPECT_EQ(report->counters.failed_executions, 0u);
  EXPECT_GT(report->counters.completed, 0u);
  // Storms at 0.15..0.30 service factor push the estimate below the
  // brown-out threshold for whole-tick stretches: the ladder must move.
  EXPECT_FALSE(report->degradation_log.empty());
  EXPECT_GT(report->counters.degraded_grants, 0u);
  // The schedule's throttle-end edges survive into the report.
  EXPECT_GE(report->fault_clear_edges.size(), 2u);
}

TEST_F(ServiceTest, OpenLoopOverloadShedsBoundedly) {
  ServiceConfig config = SmallConfig();
  config.workload.arrival = ArrivalModel::kOpenLoop;
  config.workload.arrival_rate_qps = 400.0;  // far beyond pool capacity
  config.workload.shed_retry_budget = 1;

  QueryService service(db_, model_, config);
  Result<ServiceReport> report = service.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ServiceCounters& c = report->counters;
  EXPECT_GT(c.completed, 0u);
  EXPECT_GT(c.queue_shed + c.edge_shed, 0u);
  EXPECT_EQ(c.incorrect_results, 0u);
  // Bounded queues: the per-tick `waiting` column (field 6 of the CSV)
  // never exceeds the summed class queue limits — open-loop arrivals shed,
  // they do not queue without bound.
  const int bound = config.admission.high_queue +
                    config.admission.normal_queue +
                    config.admission.batch_queue;
  std::istringstream csv(report->profile_csv);
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));  // header
  while (std::getline(csv, line)) {
    std::istringstream fields(line);
    std::string field;
    for (int i = 0; i < 6; ++i) ASSERT_TRUE(std::getline(fields, field, ','));
    EXPECT_LE(std::stoi(field), bound) << line;
  }
}

TEST_F(ServiceTest, AdmissionCountersAreTheServiceCounters) {
  // Slots held 10x longer than the baseline: queues fill, queued
  // deadlines fire and batch waiters age past high traffic.
  ServiceConfig config = SmallConfig();
  config.service_time_scale = 0.2;
  QueryService service(db_, model_, config);
  Result<ServiceReport> report = service.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ServiceCounters& c = report->counters;
  const qos::AdmissionCounters& a = report->admission;
  EXPECT_GT(c.queue_shed, 0u);
  EXPECT_GT(c.expired_queued, 0u);
  EXPECT_GT(c.aged_grants, 0u);
  // The service queues in the controller itself, so the gate's evidence
  // and the service's outcomes count the same events.
  EXPECT_EQ(a.shed, c.queue_shed);
  EXPECT_EQ(a.aged_grants, c.aged_grants);
  EXPECT_EQ(a.expired_waiting, c.expired_queued);
  EXPECT_EQ(a.admitted, c.granted);
  EXPECT_GT(a.peak_waiting, 0u);
  EXPECT_LE(a.peak_waiting,
            static_cast<uint64_t>(config.admission.high_queue +
                                  config.admission.normal_queue +
                                  config.admission.batch_queue));
}

TEST_F(ServiceTest, PoisonPlusDurableIsRejected) {
  ServiceConfig config = SmallConfig();
  config.chaos.poison_lines_per_mib = 8.0;
  config.chaos.ingest_bursts = 2;
  QueryService service(db_, model_, config);
  Status status = service.Prepare();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pmemolap::service
