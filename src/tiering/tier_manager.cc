#include "tiering/tier_manager.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "encoding/encoding.h"

namespace pmemolap {
namespace tiering {

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kDramTier:
      return "dram";
    case Tier::kPmemTier:
      return "pmem";
    case Tier::kSsdTier:
      return "ssd";
  }
  return "unknown";
}

Media TierMedia(Tier tier) {
  switch (tier) {
    case Tier::kDramTier:
      return Media::kDram;
    case Tier::kPmemTier:
      return Media::kPmem;
    case Tier::kSsdTier:
      return Media::kSsd;
  }
  return Media::kPmem;
}

const char* TierPolicyName(TierPolicy policy) {
  switch (policy) {
    case TierPolicy::kClosedLoop:
      return "closed-loop";
    case TierPolicy::kStatic:
      return "static";
    case TierPolicy::kLru:
      return "lru";
  }
  return "unknown";
}

TieringSnapshot::TupleShare TieringSnapshot::SplitTuples(uint64_t begin,
                                                         uint64_t end) const {
  TupleShare share;
  if (tiers_.empty() || extent_tuples_ == 0) return share;
  begin = std::min(begin, total_tuples_);
  end = std::min(end, total_tuples_);
  if (begin >= end) return share;
  size_t first = static_cast<size_t>(begin / extent_tuples_);
  size_t last = static_cast<size_t>((end - 1) / extent_tuples_);
  last = std::min(last, tiers_.size() - 1);
  for (size_t e = first; e <= last; ++e) {
    uint64_t extent_begin = static_cast<uint64_t>(e) * extent_tuples_;
    uint64_t extent_end =
        std::min(extent_begin + extent_tuples_, total_tuples_);
    uint64_t overlap = std::min(end, extent_end) - std::max(begin, extent_begin);
    switch (tiers_[e]) {
      case Tier::kDramTier:
        share.dram += overlap;
        break;
      case Tier::kPmemTier:
        share.pmem += overlap;
        break;
      case Tier::kSsdTier:
        share.ssd += overlap;
        break;
    }
  }
  return share;
}

TierManager::TierManager(const MemSystemModel* /*model*/,
                         TieringConfig config)
    : config_(config) {}

Status TierManager::Attach(uint64_t total_tuples, uint64_t bytes_per_tuple) {
  if (total_tuples == 0 || bytes_per_tuple == 0) {
    return Status::InvalidArgument("tiering: empty fact table");
  }
  if (config_.extent_tuples == 0 ||
      config_.extent_tuples % encoding::kFrameValues != 0) {
    // Whole code frames keep extent boundaries on 256 B XPLines in every
    // encoded column (PR 7 geometry).
    return Status::InvalidArgument(
        "tiering: extent_tuples must be a positive multiple of the 32-value "
        "code frame");
  }
  if (config_.decay <= 0.0 || config_.decay >= 1.0) {
    return Status::InvalidArgument("tiering: decay must be in (0, 1)");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  bytes_per_tuple_ = bytes_per_tuple;
  extents_.clear();
  quanta_ = 0;
  standing_.clear();
  log_.clear();
  // Initial placement for every policy: the pre-tiering static layout —
  // PMEM in address order until the budget is spent, overflow to SSD,
  // DRAM empty (promotion earns it).
  uint64_t pmem_used = 0;
  for (uint64_t begin = 0; begin < total_tuples;
       begin += config_.extent_tuples) {
    Extent extent;
    extent.begin = begin;
    extent.end = std::min(begin + config_.extent_tuples, total_tuples);
    uint64_t bytes = extent.tuples() * bytes_per_tuple_;
    if (pmem_used + bytes <= config_.pmem_budget_bytes) {
      extent.tier = Tier::kPmemTier;
      pmem_used += bytes;
    } else {
      extent.tier = Tier::kSsdTier;
    }
    extents_.push_back(extent);
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "attach policy=%s extents=%zu extent_tuples=%llu pmem=%llu",
                TierPolicyName(config_.policy), extents_.size(),
                static_cast<unsigned long long>(config_.extent_tuples),
                static_cast<unsigned long long>(pmem_used));
  log_.push_back(line);
  return Status::OK();
}

void TierManager::Touch(uint64_t begin_tuple, uint64_t end_tuple) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (extents_.empty() || begin_tuple >= end_tuple) return;
  uint64_t total = extents_.back().end;
  begin_tuple = std::min(begin_tuple, total);
  end_tuple = std::min(end_tuple, total);
  if (begin_tuple >= end_tuple) return;
  size_t first = static_cast<size_t>(begin_tuple / config_.extent_tuples);
  size_t last = static_cast<size_t>((end_tuple - 1) / config_.extent_tuples);
  last = std::min(last, extents_.size() - 1);
  for (size_t e = first; e <= last; ++e) {
    Extent& extent = extents_[e];
    extent.touched_tuples += std::min(end_tuple, extent.end) -
                             std::max(begin_tuple, extent.begin);
  }
}

TieringSnapshot TierManager::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (extents_.empty()) return TieringSnapshot();
  std::vector<Tier> tiers;
  tiers.reserve(extents_.size());
  for (const Extent& extent : extents_) tiers.push_back(extent.tier);
  return TieringSnapshot(config_.extent_tuples, extents_.back().end,
                         std::move(tiers));
}

std::vector<Tier> TierManager::DesiredTiers() const {
  std::vector<Tier> desired(extents_.size(), Tier::kSsdTier);
  const bool lru = config_.policy == TierPolicy::kLru;

  // Rank keys. Closed loop ranks by decayed heat with the incumbent
  // bonus; LRU ranks by recency alone. Ties prefer incumbents (the
  // initial static fill stays put until evidence arrives) then the lower
  // extent id — both total orders, so the desired placement is a pure
  // function of the fold state.
  auto rank = [&](std::vector<size_t>* order, auto&& key, auto&& incumbent) {
    std::sort(order->begin(), order->end(), [&](size_t a, size_t b) {
      double ka = key(a);
      double kb = key(b);
      if (ka != kb) return ka > kb;
      bool ia = incumbent(a);
      bool ib = incumbent(b);
      if (ia != ib) return ia;
      return a < b;
    });
  };

  std::vector<size_t> order(extents_.size());
  std::iota(order.begin(), order.end(), size_t{0});

  // Pass 1: fill the DRAM budget with the hottest (most recent, for LRU)
  // eligible extents. Never-touched extents are not DRAM-eligible.
  auto dram_key = [&](size_t i) {
    const Extent& e = extents_[i];
    if (lru) return static_cast<double>(e.last_touch_quantum);
    return e.heat *
           (e.tier == Tier::kDramTier && !lru ? config_.incumbent_bonus : 1.0);
  };
  auto dram_incumbent = [&](size_t i) {
    return extents_[i].tier == Tier::kDramTier;
  };
  rank(&order, dram_key, dram_incumbent);
  uint64_t dram_used = 0;
  std::vector<bool> placed(extents_.size(), false);
  for (size_t i : order) {
    const Extent& e = extents_[i];
    bool eligible = lru ? e.last_touch_quantum > 0 : e.heat > 0.0;
    if (!eligible) continue;
    uint64_t bytes = e.tuples() * bytes_per_tuple_;
    if (dram_used + bytes > config_.dram_budget_bytes) continue;
    desired[i] = Tier::kDramTier;
    placed[i] = true;
    dram_used += bytes;
  }

  // Pass 2: fill the PMEM budget from the remainder. Incumbency means
  // "already faster than SSD" here — demoting to SSD is what the bonus
  // guards against.
  auto pmem_key = [&](size_t i) {
    const Extent& e = extents_[i];
    if (lru) return static_cast<double>(e.last_touch_quantum);
    return e.heat *
           (e.tier != Tier::kSsdTier ? config_.incumbent_bonus : 1.0);
  };
  auto pmem_incumbent = [&](size_t i) {
    return extents_[i].tier != Tier::kSsdTier;
  };
  rank(&order, pmem_key, pmem_incumbent);
  uint64_t pmem_used = 0;
  for (size_t i : order) {
    if (placed[i]) continue;
    uint64_t bytes = extents_[i].tuples() * bytes_per_tuple_;
    if (pmem_used + bytes > config_.pmem_budget_bytes) continue;
    desired[i] = Tier::kPmemTier;
    pmem_used += bytes;
  }
  return desired;
}

void TierManager::CommitMigration(size_t index, Tier to) {
  Extent& extent = extents_[index];
  Tier from = extent.tier;
  uint64_t bytes = extent.tuples() * bytes_per_tuple_;
  char line[160];
  std::snprintf(line, sizeof(line), "q=%d migrate e%zu %s->%s heat=%.3f",
                quanta_, index, TierName(from), TierName(to), extent.heat);
  log_.push_back(line);
  // Price the copy: a sequential read off the source media and a
  // sequential write onto the target media, one background copier
  // stream each. The SSD legs resolve to SsdDevice rates inside the
  // MemSystemModel; PMEM writes are clamped by the governor's
  // writer-thread actuator like any other background writer.
  TrafficRecord read;
  read.op = OpType::kRead;
  read.pattern = Pattern::kSequentialIndividual;
  read.media = TierMedia(from);
  read.data_socket = 0;
  read.worker_socket = 0;
  read.bytes = bytes;
  read.access_size = 4 * kKiB;
  read.region_bytes = bytes;
  read.threads = 2;
  read.label = "tier-migrate";
  TrafficRecord write = read;
  write.op = OpType::kWrite;
  write.media = TierMedia(to);
  standing_.push_back(std::move(read));
  standing_.push_back(std::move(write));
  extent.tier = to;
  extent.move.Reset();
}

void TierManager::Advance() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (extents_.empty()) return;
  ++quanta_;
  standing_.clear();

  // Fold the quantum's touches into the decayed heat.
  for (Extent& extent : extents_) {
    extent.heat = extent.heat * config_.decay +
                  static_cast<double>(extent.touched_tuples);
    if (extent.touched_tuples > 0) extent.last_touch_quantum = quanta_;
    extent.touched_tuples = 0;
  }

  uint64_t migrated_bytes = 0;
  size_t moves = 0;
  if (config_.policy != TierPolicy::kStatic) {
    std::vector<Tier> desired = DesiredTiers();

    // Hysteresis (closed loop): a move must be desired for N consecutive
    // quanta before it commits; LRU commits immediately — recency churn
    // is the baseline's designed weakness.
    const int needed = config_.policy == TierPolicy::kClosedLoop
                           ? std::max(config_.hysteresis_quanta, 1)
                           : 1;
    std::vector<size_t> candidates;
    for (size_t i = 0; i < extents_.size(); ++i) {
      Extent& extent = extents_[i];
      if (extent.move.Ready(extent.tier, desired[i], needed)) {
        candidates.push_back(i);
      }
    }

    // Demotions commit before promotions (they free the capacity the
    // promotions move into), coldest first; promotions go hottest-first —
    // with uniform extents that IS benefit-density order, since the
    // per-byte rate delta of a tier pair is a constant. Capacity and the
    // per-quantum migration budget gate each commit; deferred moves keep
    // their streak and retry next quantum.
    auto is_promotion = [&](size_t i) {
      return static_cast<int>(extents_[i].move.pending()) <
             static_cast<int>(extents_[i].tier);
    };
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](size_t a, size_t b) {
                       bool pa = is_promotion(a);
                       bool pb = is_promotion(b);
                       if (pa != pb) return !pa;  // demotions first
                       if (extents_[a].heat != extents_[b].heat) {
                         return pa ? extents_[a].heat > extents_[b].heat
                                   : extents_[a].heat < extents_[b].heat;
                       }
                       return a < b;
                     });
    uint64_t used[3] = {0, 0, 0};
    for (const Extent& extent : extents_) {
      used[static_cast<int>(extent.tier)] +=
          extent.tuples() * bytes_per_tuple_;
    }
    const uint64_t budget[3] = {config_.dram_budget_bytes,
                                config_.pmem_budget_bytes, ~uint64_t{0}};
    for (size_t i : candidates) {
      Extent& extent = extents_[i];
      Tier to = extent.move.pending();
      uint64_t bytes = extent.tuples() * bytes_per_tuple_;
      if (config_.migration_budget_bytes > 0 &&
          migrated_bytes + bytes > config_.migration_budget_bytes) {
        continue;  // deferred: streak persists, retries next quantum
      }
      if (used[static_cast<int>(to)] + bytes > budget[static_cast<int>(to)]) {
        continue;  // target tier full until a deferred demotion lands
      }
      used[static_cast<int>(extent.tier)] -= bytes;
      used[static_cast<int>(to)] += bytes;
      migrated_bytes += bytes;
      ++moves;
      CommitMigration(i, to);
    }
  }

  size_t counts[3] = {0, 0, 0};
  double heat_max = 0.0;
  for (const Extent& extent : extents_) {
    ++counts[static_cast<int>(extent.tier)];
    heat_max = std::max(heat_max, extent.heat);
  }
  char line[192];
  std::snprintf(
      line, sizeof(line),
      "q=%d policy=%s tiers d=%zu p=%zu s=%zu moves=%zu migrated=%llu "
      "heat_max=%.3f",
      quanta_, TierPolicyName(config_.policy), counts[0], counts[1],
      counts[2], moves, static_cast<unsigned long long>(migrated_bytes),
      heat_max);
  log_.push_back(line);
}

std::vector<TrafficRecord> TierManager::standing_traffic() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return standing_;
}

std::vector<std::string> TierManager::actuator_log() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return log_;
}

std::vector<double> TierManager::extent_heats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> heats;
  heats.reserve(extents_.size());
  for (const Extent& extent : extents_) heats.push_back(extent.heat);
  return heats;
}

}  // namespace tiering
}  // namespace pmemolap
