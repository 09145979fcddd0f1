#include "bench_util.h"

#include <cstdio>
#include <fstream>

namespace pmemolap::bench {

void PrintHeader(const std::string& experiment, const std::string& paper_ref,
                 const std::string& expectation) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Paper expectation: %s\n", expectation.c_str());
  std::printf("Platform model: %s\n",
              SystemTopology::PaperServer().Describe().c_str());
  std::printf("==============================================================\n");
}

std::vector<uint64_t> FigureAccessSizes(uint64_t lo, uint64_t hi) {
  std::vector<uint64_t> sizes;
  for (uint64_t size = lo; size <= hi; size *= 2) sizes.push_back(size);
  return sizes;
}

void PrintBandwidthGrid(const WorkloadRunner& runner, OpType op,
                        Pattern pattern, Media media,
                        const std::vector<uint64_t>& sizes,
                        const std::vector<int>& threads,
                        const RunOptions& options) {
  std::vector<std::string> headers = {"Access"};
  for (int t : threads) headers.push_back(std::to_string(t) + "T");
  TablePrinter table(std::move(headers));
  for (uint64_t size : sizes) {
    std::vector<std::string> row = {FormatBytes(size)};
    for (int t : threads) {
      auto bw = runner.Bandwidth(op, pattern, media, size, t, options);
      row.push_back(bw.ok() ? TablePrinter::Cell(bw.value()) : "err");
    }
    table.AddRow(std::move(row));
  }
  table.Print();
}

int g_failures = 0;

void Claim(bool ok, const std::string& text) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", text.c_str());
  if (!ok) ++g_failures;
}

int FinishScorecard(std::ofstream& json, const char* bench) {
  json << "  \"claims_failed\": " << g_failures << "\n}\n";
  json.close();
  std::printf("\nwrote BENCH_%s.json (%d claim(s) failed)\n", bench,
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

std::string F3(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", v);
  return buffer;
}

std::string U64(uint64_t v) {
  return std::to_string(static_cast<unsigned long long>(v));
}

}  // namespace pmemolap::bench
