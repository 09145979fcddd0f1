// Shared helpers for the bench binaries that regenerate the paper's tables
// and figures. Every binary prints a header naming the experiment, the
// modeled platform, and then the figure's rows/series as aligned text.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/table_printer.h"
#include "common/units.h"
#include "core/runner.h"
#include "memsys/mem_system.h"

namespace pmemolap::bench {

/// Prints the standard experiment banner.
void PrintHeader(const std::string& experiment, const std::string& paper_ref,
                 const std::string& expectation);

/// The access sizes of the paper's Figs. 3/7 x-axes.
std::vector<uint64_t> FigureAccessSizes(uint64_t lo = 64,
                                        uint64_t hi = 64 * kKiB);

/// The thread counts of the paper's figures.
inline const std::vector<int>& ReadThreadCounts() {
  static const std::vector<int> kCounts = {1, 4, 8, 16, 18, 24, 32, 36};
  return kCounts;
}
inline const std::vector<int>& WriteThreadCounts() {
  static const std::vector<int> kCounts = {1, 2, 4, 6, 8, 18, 24, 36};
  return kCounts;
}

/// Renders a (size x threads) bandwidth grid: one row per access size, one
/// column per thread count.
void PrintBandwidthGrid(const WorkloadRunner& runner, OpType op,
                        Pattern pattern, Media media,
                        const std::vector<uint64_t>& sizes,
                        const std::vector<int>& threads,
                        const RunOptions& options);

/// Scorecard claims. Claim prints "  [PASS|FAIL] <text>" and counts each
/// FAIL in g_failures; a bench that reports a failure in its own words
/// increments g_failures itself.
extern int g_failures;
void Claim(bool ok, const std::string& text);

/// Ends a scorecard: writes the "claims_failed" field and the closing
/// brace to `json`, prints "wrote BENCH_<bench>.json (<n> claim(s)
/// failed)", and returns the exit code (0 only when every claim passed).
int FinishScorecard(std::ofstream& json, const char* bench);

/// `v` with three decimals.
std::string F3(double v);
/// `v` in decimal.
std::string U64(uint64_t v);

}  // namespace pmemolap::bench
