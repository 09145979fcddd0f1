#include "fault/guarded_table.h"

#include <algorithm>
#include <cstring>

#include "common/crc32.h"

namespace pmemolap {

Result<std::unique_ptr<GuardedTable>> GuardedTable::Create(
    PmemSpace* space, FaultInjector* injector, const std::byte* source,
    uint64_t bytes, const Options& options) {
  if (space == nullptr || injector == nullptr || source == nullptr) {
    return Status::InvalidArgument(
        "GuardedTable needs a space, an injector and a source");
  }
  if (bytes == 0) {
    return Status::InvalidArgument("table must be non-empty");
  }
  if (options.chunk_bytes == 0 ||
      options.chunk_bytes % kOptaneLineBytes != 0) {
    return Status::InvalidArgument(
        "chunk_bytes must be a positive multiple of the 256 B line");
  }

  std::unique_ptr<GuardedTable> table(new GuardedTable());
  table->space_ = space;
  table->injector_ = injector;
  table->source_ = source;
  table->bytes_ = bytes;
  table->options_ = options;

  // Injected allocation failures are periodic or probabilistic, so a
  // bounded number of fresh attempts rides out the failure schedule.
  Status last = Status::OK();
  const int attempts = std::max(1, options.alloc_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    Result<StripedAllocation> stripes =
        space->AllocateStriped(bytes, options.media);
    if (stripes.ok()) {
      table->stripes_ = std::move(stripes.value());
      last = Status::OK();
      break;
    }
    last = stripes.status();
    if (last.code() != StatusCode::kUnavailable) return last;
  }
  if (!last.ok()) return last;

  const int n = table->stripes_.num_stripes();
  table->per_stripe_ = bytes / static_cast<uint64_t>(n);
  table->chunk_crcs_.resize(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    const uint64_t base = table->StripeBase(s);
    const uint64_t len = table->StripeLen(s);
    Allocation& stripe = table->stripes_.stripe(s);
    if (len > 0) std::memcpy(stripe.data(), source + base, len);
    // Checksums come from the true data at ingest time, so a later CRC
    // mismatch is evidence of media corruption, not a stale checksum.
    const uint64_t chunks = table->ChunksInStripe(s);
    std::vector<uint32_t>& crcs = table->chunk_crcs_[static_cast<size_t>(s)];
    crcs.reserve(chunks);
    for (uint64_t c = 0; c < chunks; ++c) {
      const uint64_t begin = c * options.chunk_bytes;
      const uint64_t clen = std::min(options.chunk_bytes, len - begin);
      crcs.push_back(Crc32(source + base + begin, clen));
    }
    injector->CorruptPermanentLines(&stripe);
  }
  return table;
}

int GuardedTable::StripeOf(uint64_t offset) const {
  const int n = stripes_.num_stripes();
  if (per_stripe_ == 0) return n - 1;
  return static_cast<int>(
      std::min(offset / per_stripe_, static_cast<uint64_t>(n - 1)));
}

uint64_t GuardedTable::StripeBase(int stripe) const {
  return per_stripe_ * static_cast<uint64_t>(stripe);
}

uint64_t GuardedTable::StripeLen(int stripe) const {
  const int n = stripes_.num_stripes();
  return stripe + 1 == n ? bytes_ - per_stripe_ * static_cast<uint64_t>(n - 1)
                         : per_stripe_;
}

uint64_t GuardedTable::ChunksInStripe(int stripe) const {
  return (StripeLen(stripe) + options_.chunk_bytes - 1) / options_.chunk_bytes;
}

Status GuardedTable::Read(uint64_t offset, uint64_t size, std::byte* dst,
                          const CancelCheck& cancel) {
  if (offset + size > bytes_) {
    return Status::OutOfRange("read past end of guarded table");
  }
  if (size == 0) return Status::OK();
  std::lock_guard<std::mutex> lock(mutex_);
  return ReadLocked(offset, size, dst, cancel);
}

Status GuardedTable::ReadLocked(uint64_t offset, uint64_t size,
                                std::byte* dst, const CancelCheck& cancel) {
  FaultAwareReader reader(injector_, options_.retry);
  uint64_t done = 0;
  while (done < size) {
    const uint64_t pos = offset + done;
    const int s = StripeOf(pos);
    const uint64_t local = pos - StripeBase(s);
    const uint64_t len = std::min(size - done, StripeLen(s) - local);
    Allocation& stripe = stripes_.stripe(s);
    const uint64_t first = local / options_.chunk_bytes;
    const uint64_t last = (local + len - 1) / options_.chunk_bytes;
    const BreakerDecision decision = breakers_ == nullptr
                                         ? BreakerDecision::kNormal
                                         : breakers_->Decide(s);
    Status status;
    if (decision == BreakerDecision::kBypass) {
      // Quarantined stripe: the breaker has already seen this domain
      // exhaust its retries repeatedly, so skip the retry loop (which
      // would charge backoff on every touch) and scrub straight away.
      if (stripe.IsPoisoned(local, len)) {
        for (uint64_t c = first; c <= last; ++c) {
          Result<bool> scrub = ScrubChunkLocked(s, c);
          if (!scrub.ok()) return scrub.status();
        }
      }
      status = reader.Read(&stripe, local, len, dst + done, cancel);
    } else {
      status = reader.Read(&stripe, local, len, dst + done, cancel);
      const bool first_read_clean = status.ok();
      if (status.code() == StatusCode::kDataLoss) {
        // Retry exhausted (permanent poison, or a transient budget larger
        // than the retry policy) — escalate to the chunk scrubber, then
        // read the repaired bytes.
        if (breakers_ != nullptr) breakers_->RecordEscalation(s);
        for (uint64_t c = first; c <= last; ++c) {
          Result<bool> scrub = ScrubChunkLocked(s, c);
          if (!scrub.ok()) return scrub.status();
        }
        status = reader.Read(&stripe, local, len, dst + done, cancel);
      }
      if (decision == BreakerDecision::kProbe && breakers_ != nullptr) {
        breakers_->RecordProbe(s, first_read_clean);
      }
    }
    PMEMOLAP_RETURN_NOT_OK(status);
    done += len;
  }
  return Status::OK();
}

bool GuardedTable::VerifyChunk(int stripe, uint64_t chunk) const {
  const Allocation& region = stripes_.stripe(stripe);
  const uint64_t begin = chunk * options_.chunk_bytes;
  const uint64_t len = std::min(options_.chunk_bytes, StripeLen(stripe) - begin);
  return Crc32(region.data() + begin, len) ==
         chunk_crcs_[static_cast<size_t>(stripe)][chunk];
}

Result<bool> GuardedTable::ScrubChunkLocked(int stripe, uint64_t chunk) {
  injector_->CountScrub();
  Allocation& region = stripes_.stripe(stripe);
  const uint64_t begin = chunk * options_.chunk_bytes;
  const uint64_t len = std::min(options_.chunk_bytes, StripeLen(stripe) - begin);
  const bool crc_ok = VerifyChunk(stripe, chunk);
  std::vector<uint64_t> lines = region.PoisonedLinesIn(begin, len);
  if (crc_ok) {
    // Bytes are intact (transient poison never corrupts data): a rewrite
    // in place clears the poison without touching the source.
    for (uint64_t line : lines) region.ScrubLine(line);
    return false;
  }
  injector_->CountCrcFailure();
  if (source_ != nullptr) {
    // Per-XPLine forensics for the scrub report: which 256 B lines of the
    // failed chunk actually diverge from the truth.
    const std::byte* truth = source_ + StripeBase(stripe) + begin;
    uint64_t corrupt_lines = 0;
    for (uint64_t pos = 0; pos < len; pos += kOptaneLineBytes) {
      const uint64_t line_len = std::min(kOptaneLineBytes, len - pos);
      if (std::memcmp(region.data() + begin + pos, truth + pos, line_len) !=
          0) {
        ++corrupt_lines;
      }
    }
    injector_->CountCorruptLines(corrupt_lines);
  } else {
    // No truth to diff against: every permanently poisoned line of the
    // chunk is presumed corrupt (transient poison never mutates bytes).
    uint64_t corrupt_lines = 0;
    for (uint64_t line : region.PermanentPoisonedLines()) {
      const uint64_t line_begin = line * kOptaneLineBytes;
      if (line_begin >= begin && line_begin < begin + len) ++corrupt_lines;
    }
    injector_->CountCorruptLines(corrupt_lines);
    return Status::Corruption("chunk CRC mismatch and no repair source");
  }
  // lint:allow(persist-raw-write): scrub repair rewrites the fault
  // layer's media image from the replication source; this sits below
  // the persistence model — the bytes were already persisted once, and
  // FaultRegion has no Store/NtStore ladder to route the rewrite
  // through.
  std::memcpy(region.data() + begin, source_ + StripeBase(stripe) + begin,
              len);
  for (uint64_t line : lines) region.ScrubLine(line);
  injector_->CountRepair(len);
  return true;
}

Result<uint64_t> GuardedTable::ScrubAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t repaired = 0;
  for (int s = 0; s < num_stripes(); ++s) {
    const uint64_t chunks = ChunksInStripe(s);
    for (uint64_t c = 0; c < chunks; ++c) {
      PMEMOLAP_ASSIGN_OR_RETURN(bool fixed, ScrubChunkLocked(s, c));
      if (fixed) ++repaired;
    }
  }
  return repaired;
}

Result<std::unique_ptr<GuardedDimension>> GuardedDimension::Create(
    PmemSpace* space, FaultInjector* injector, std::vector<uint64_t> payloads,
    Media media, int alloc_attempts) {
  if (space == nullptr || injector == nullptr) {
    return Status::InvalidArgument(
        "GuardedDimension needs a space and an injector");
  }
  if (payloads.empty()) {
    return Status::InvalidArgument("dimension payloads must be non-empty");
  }
  std::unique_ptr<GuardedDimension> dim(new GuardedDimension());
  dim->injector_ = injector;
  dim->source_ = std::move(payloads);
  const std::byte* data =
      reinterpret_cast<const std::byte*>(dim->source_.data());
  const uint64_t bytes = dim->source_.size() * sizeof(uint64_t);

  DimensionReplicator replicator(space);
  Status last = Status::OK();
  const int attempts = std::max(1, alloc_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    Result<ReplicatedTable> table = replicator.Replicate(data, bytes, media);
    if (table.ok()) {
      dim->table_ = std::move(table.value());
      last = Status::OK();
      break;
    }
    last = table.status();
    if (last.code() != StatusCode::kUnavailable) return last;
  }
  if (!last.ok()) return last;

  for (int i = 0; i < dim->table_.num_copies(); ++i) {
    injector->CorruptPermanentLines(&dim->table_.copy(i));
  }
  return dim;
}

Result<uint64_t> GuardedDimension::Payload(int socket, uint64_t pos) {
  if (pos >= source_.size()) {
    return Status::OutOfRange("dimension position out of range");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t offset = pos * sizeof(uint64_t);
  const int n = table_.num_copies();
  const int local = ((socket % n) + n) % n;
  const BreakerDecision decision = breakers_ == nullptr
                                       ? BreakerDecision::kNormal
                                       : breakers_->Decide(local);
  if (decision == BreakerDecision::kBypass) {
    // Quarantined local replica: don't probe it (every probe found it
    // poisoned, which is why the breaker tripped) — serve directly from
    // the first clean non-quarantined remote copy. No failover is
    // charged; the breaker already paid the trip_threshold failovers.
    for (int i = 1; i < n; ++i) {
      const int r = (local + i) % n;
      if (breakers_->Quarantined(r)) continue;
      const Allocation& copy = table_.copy(r);
      if (copy.IsPoisoned(offset, sizeof(uint64_t))) continue;
      uint64_t value = 0;
      std::memcpy(&value, copy.data() + offset, sizeof(value));
      return value;
    }
    // No clean remote replica — fall through to the normal path, which
    // ends in repair from the source.
  }
  Result<int> healthy =
      table_.HealthyCopyIndex(socket, offset, sizeof(uint64_t));
  if (healthy.ok()) {
    const bool local_healthy = healthy.value() == local;
    if (!local_healthy) {
      injector_->CountFailover();
      if (breakers_ != nullptr) breakers_->RecordEscalation(local);
    }
    if (decision == BreakerDecision::kProbe && breakers_ != nullptr) {
      breakers_->RecordProbe(local, local_healthy);
    }
    uint64_t value = 0;
    std::memcpy(&value, table_.copy(healthy.value()).data() + offset,
                sizeof(value));
    return value;
  }
  if (healthy.status().code() != StatusCode::kDataLoss) {
    return healthy.status();
  }
  if (breakers_ != nullptr) {
    breakers_->RecordEscalation(local);
    if (decision == BreakerDecision::kProbe) {
      breakers_->RecordProbe(local, false);
    }
  }
  // Every replica is poisoned over this payload — rewrite the local
  // copy's affected lines from the retained source and serve from it.
  Allocation& copy = table_.copy(local);
  const std::byte* source =
      reinterpret_cast<const std::byte*>(source_.data());
  uint64_t repaired_bytes = 0;
  for (uint64_t line : copy.PoisonedLinesIn(offset, sizeof(uint64_t))) {
    const uint64_t begin = line * kOptaneLineBytes;
    const uint64_t len = std::min(kOptaneLineBytes, copy.size() - begin);
    std::memcpy(copy.data() + begin, source + begin, len);
    copy.ScrubLine(line);
    repaired_bytes += len;
  }
  injector_->CountReplicaRepair(repaired_bytes);
  uint64_t value = 0;
  std::memcpy(&value, copy.data() + offset, sizeof(value));
  return value;
}

}  // namespace pmemolap
