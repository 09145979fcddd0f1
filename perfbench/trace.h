// Span recorder for the benchmark's traced runs.
//
// The driver opens a span around every call it makes into a library layer
// (dbgen, Prepare, Execute, Ingest and the standalone layer probes). Spans
// stay in memory and are written out once, when the run ends; the
// per-layer metrics are derived from them. Untraced runs pass a null
// tracer, so they pay one branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;     ///< index of the enclosing span, -1 at top level
  int64_t query = -1;  ///< per-operation id inside the timed loop, else -1

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Single-threaded: only the driver thread opens and closes spans.
class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  int Begin(std::string name, int64_t query) {
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.query = query;
    span.start_ns = Now();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    spans_[static_cast<size_t>(id)].end_ns = Now();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in seconds of every closed span called `name`.
  std::vector<double> Seconds(const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.name == name && span.end_ns >= span.start_ns) {
        out.push_back(span.seconds());
      }
    }
    return out;
  }

  /// One JSON object per line: name, start/end ns, parent index, query id.
  bool Write(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(file,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"query\":%lld}\n",
                   i, s.name.c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<long long>(s.query));
    }
    return std::fclose(file) == 0;
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int64_t query = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(std::move(name), query) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
