#include "memsys/issue_model.h"

#include <algorithm>
#include <cmath>

namespace pmemolap {

GigabytesPerSecond IssueModel::PerThread(OpType op, Pattern pattern,
                                         Media media, bool near_data,
                                         uint64_t access_size) const {
  const bool read = op == OpType::kRead;
  if (pattern == Pattern::kRandom) {
    GigabytesPerSecond base;
    if (media == Media::kPmem) {
      base = read ? spec_.pmem_rand_read : spec_.pmem_rand_write;
    } else {
      base = read ? spec_.dram_rand_read : spec_.dram_rand_write;
    }
    // Larger random accesses amortize the per-access latency.
    double boost = std::pow(
        std::max(1.0, static_cast<double>(access_size) / 256.0),
        spec_.random_size_boost_exponent);
    return base * std::min(boost, 3.0);
  }
  if (media == Media::kPmem) {
    if (near_data) return read ? spec_.pmem_seq_read : spec_.pmem_seq_write;
    return read ? spec_.pmem_far_seq_read : spec_.pmem_far_seq_write;
  }
  if (near_data) return read ? spec_.dram_seq_read : spec_.dram_seq_write;
  return read ? spec_.dram_far_seq_read : spec_.dram_far_seq_write;
}

}  // namespace pmemolap
