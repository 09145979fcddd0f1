// Scenario: the full warehouse loading pipeline — generate, export to the
// classic '|'-separated .tbl files, re-import, run a query on the imported
// data, and plan the ingest bandwidth per the write-side best practices.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/advisor.h"
#include "engine/engine.h"
#include "core/runner.h"
#include "ssb/csv.h"
#include "ssb/format.h"
#include "ssb/reference.h"

using namespace pmemolap;

int main() {
  // 1. Generate and export.
  auto db = ssb::Generate({.scale_factor = 0.01, .seed = 99});
  if (!db.ok()) return 1;
  // A fresh directory per run, so concurrent runs never share files.
  std::string dir_template =
      (std::filesystem::temp_directory_path() / "pmemolap_import_demo.XXXXXX")
          .string();
  if (mkdtemp(dir_template.data()) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  const std::filesystem::path dir = dir_template;
  struct RemoveOnExit {
    std::filesystem::path path;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } cleanup{dir};
  if (Status status = ssb::ExportDatabase(db.value(), dir.string());
      !status.ok()) {
    std::printf("export failed: %s\n", status.ToString().c_str());
    return 1;
  }
  uint64_t tbl_bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    tbl_bytes += entry.file_size();
  }
  std::printf("Exported SSB sf 0.01 to %s (%s of .tbl files)\n",
              dir.c_str(), FormatBytes(tbl_bytes).c_str());

  // 2. Re-import and verify a query runs identically.
  auto imported = ssb::ImportDatabase(dir.string());
  if (!imported.ok()) {
    std::printf("import failed: %s\n",
                imported.status().ToString().c_str());
    return 1;
  }
  std::printf("Imported %zu lineorder tuples back\n",
              imported->lineorder.size());

  MemSystemModel model;
  EngineConfig config;
  config.mode = EngineMode::kPmemAware;
  config.threads = 36;
  SsbEngine engine(&imported.value(), &model, config);
  if (!engine.Prepare().ok()) return 1;
  auto run = engine.Execute(ssb::QueryId::kQ2_1);
  ssb::ReferenceExecutor reference(&db.value());
  bool identical = run.ok() && run->output == reference.Execute(
                                                  ssb::QueryId::kQ2_1);
  std::printf("Q2.1 on imported data matches the original: %s\n\n",
              identical ? "yes" : "NO");
  std::printf("Q2.1 result (top rows):\n%s\n",
              ssb::FormatOutput(ssb::QueryId::kQ2_1, run->output, 5)
                  .c_str());

  // 3. What would loading the paper-scale table cost?
  WorkloadRunner runner(&model);
  double ingest_bw =
      runner
          .Bandwidth(OpType::kWrite, Pattern::kSequentialIndividual,
                     Media::kPmem, 4 * kKiB, 4, RunOptions())
          .value_or(1.0);
  uint64_t sf100_bytes = ssb::CardinalitiesFor(100.0).lineorder * 128;
  std::printf(
      "Paper-scale load: %s of lineorder at %.1f GB/s per socket (4 "
      "writers, 4 KB chunks, both sockets) = ~%.0f s.\n",
      FormatBytes(sf100_bytes).c_str(), ingest_bw,
      static_cast<double>(sf100_bytes) / 1e9 / (2 * ingest_bw));

  BestPracticesAdvisor advisor(model.config().topology);
  WorkloadIntent intent;
  intent.read_fraction = 0.0;
  AccessPlan plan = advisor.Plan(intent);
  std::printf(
      "Advisor: %d writers/socket, %s chunks, %s pinning — insight #7's "
      "write-side discipline.\n",
      plan.write_threads_per_socket,
      FormatBytes(plan.sequential_chunk_bytes).c_str(),
      PinningPolicyName(plan.pinning));
  return 0;
}
