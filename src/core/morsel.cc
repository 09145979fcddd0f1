#include "core/morsel.h"

#include <cstddef>
#include <numeric>
#include <utility>

namespace pmemolap {
namespace {

/// Smallest tuple count whose byte size is a whole number of XPLines.
uint64_t AlignTuples(uint64_t bytes_per_tuple) {
  return kXPLineBytes / std::gcd(kXPLineBytes, bytes_per_tuple);
}

}  // namespace

void AppendMorsels(uint64_t begin, uint64_t end, int socket,
                   uint64_t morsel_tuples, MorselPlan* plan) {
  if (morsel_tuples == 0) morsel_tuples = kDefaultMorselTuples;
  if (plan->queues.size() <= static_cast<size_t>(socket)) {
    plan->queues.resize(static_cast<size_t>(socket) + 1);
  }
  auto& queue = plan->queues[static_cast<size_t>(socket)];
  for (uint64_t at = begin; at < end; at += morsel_tuples) {
    Morsel morsel;
    morsel.begin = at;
    morsel.end = at + morsel_tuples < end ? at + morsel_tuples : end;
    morsel.socket = socket;
    queue.push_back(morsel);
  }
}

uint64_t ReassignQuarantinedQueues(MorselPlan* plan,
                                   const std::vector<bool>& healthy) {
  auto is_healthy = [&healthy](size_t socket) {
    return socket >= healthy.size() || healthy[socket];
  };
  bool any_healthy = false;
  for (size_t s = 0; s < plan->queues.size(); ++s) {
    if (is_healthy(s)) {
      any_healthy = true;
      break;
    }
  }
  if (!any_healthy) return 0;

  uint64_t moved = 0;
  for (size_t s = 0; s < plan->queues.size(); ++s) {
    if (is_healthy(s)) continue;
    auto& queue = plan->queues[s];
    for (Morsel& morsel : queue) {
      // Least-loaded healthy queue keeps the re-planned load balanced
      // instead of piling everything onto socket 0.
      size_t target = plan->queues.size();
      size_t target_size = 0;
      for (size_t q = 0; q < plan->queues.size(); ++q) {
        if (q == s || !is_healthy(q)) continue;
        if (target == plan->queues.size() ||
            plan->queues[q].size() < target_size) {
          target = q;
          target_size = plan->queues[q].size();
        }
      }
      // any_healthy guarantees a target exists (s itself is unhealthy).
      plan->queues[target].push_back(morsel);
      ++moved;
    }
    queue.clear();
  }
  return moved;
}

void AlignMorselPlan(MorselPlan* plan, uint64_t bytes_per_tuple) {
  if (bytes_per_tuple == 0) return;
  AlignMorselPlanTuples(plan, AlignTuples(bytes_per_tuple));
}

void AlignMorselPlanTuples(MorselPlan* plan, uint64_t quantum_tuples) {
  const uint64_t align = quantum_tuples;
  if (align <= 1) return;  // every boundary is already aligned

  for (auto& queue : plan->queues) {
    std::vector<Morsel> shaped;
    shaped.reserve(queue.size());
    for (Morsel morsel : queue) {
      if (!shaped.empty() && shaped.back().end == morsel.begin &&
          shaped.back().socket == morsel.socket &&
          morsel.begin % align != 0) {
        uint64_t snapped = (morsel.begin / align + 1) * align;
        if (snapped >= morsel.end) {
          // The snap would empty the morsel: coalesce it into its
          // predecessor instead of leaving a tiny torn remainder.
          shaped.back().end = morsel.end;
          continue;
        }
        shaped.back().end = snapped;
        morsel.begin = snapped;
      }
      shaped.push_back(morsel);
    }
    queue = std::move(shaped);
  }
}

uint64_t TornBoundaries(const MorselPlan& plan, uint64_t quantum_tuples) {
  const uint64_t align = quantum_tuples;
  if (align <= 1) return 0;

  uint64_t torn = 0;
  for (const auto& queue : plan.queues) {
    for (size_t i = 1; i < queue.size(); ++i) {
      const Morsel& prev = queue[i - 1];
      const Morsel& cur = queue[i];
      if (prev.end == cur.begin && prev.socket == cur.socket &&
          cur.begin % align != 0) {
        ++torn;
      }
    }
  }
  return torn;
}

}  // namespace pmemolap
