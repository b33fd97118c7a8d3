// The benchmark's own spans, recorded around each call it makes into the
// program (submit, wait, infer and the standalone layer calls of a traced
// run). Spans stay in memory and are written out when the run ends; spans
// inside the program are not recorded here.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;        // what was called, e.g. "nn.prefix_tile"
  const char* layer = "";  // the module called into: nn, compress, core, ...
  std::int64_t id = 0;
  std::int64_t parent = 0;  // 0 = root
  std::int64_t image = -1;  // per-image id shared by one image's spans
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

/// Thread-safe in-memory span store. A null SpanLog* means tracing is off:
/// every helper below then does nothing.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  std::int64_t now_ns() const { return ns(Clock::now()); }
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  std::int64_t new_id() {
    std::lock_guard lock(mu_);
    return next_id_++;
  }
  void record(const Span& span) {
    std::lock_guard lock(mu_);
    spans_.push_back(span);
  }
  std::vector<Span> spans() const {
    std::lock_guard lock(mu_);
    return spans_;
  }

  /// Write every span as CSV (name,layer,id,parent,image,begin_ns,end_ns).
  /// Returns false when the file cannot be written.
  bool write_csv(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::int64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Records one span from construction to destruction (or end()).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, const char* layer,
             std::int64_t image, std::int64_t parent = 0)
      : log_(log) {
    if (!log_) return;
    span_.name = std::move(name);
    span_.layer = layer;
    span_.image = image;
    span_.parent = parent;
    span_.id = log_->new_id();
    span_.begin_ns = log_->now_ns();
  }
  ~ScopedSpan() { end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return span_.id; }
  void end() {
    if (!log_) return;
    span_.end_ns = log_->now_ns();
    log_->record(span_);
    log_ = nullptr;
  }

 private:
  SpanLog* log_;
  Span span_;
};

/// Self time of a span: its duration minus the part its children cover.
struct SelfTimes {
  /// Self times in microseconds, by span name.
  std::map<std::string, std::vector<double>> by_name;
};

SelfTimes reduce_self_times(const std::vector<Span>& spans);

}  // namespace servebench
