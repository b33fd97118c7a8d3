// Workloads of the serving benchmark and the result each run reports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace servebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Instead of a measured run, step the closed loop's outstanding count
  /// and print capacity at each (the knee ramp the README records).
  bool ramp = false;
  /// Directory for the result file and the traced run's span dump.
  std::string out_dir = ".servebench_out";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::string failure;  // first failed check, when !correct
  std::string failed_reason;  // why the first failed operation failed
  std::int64_t attempted = 0;
  std::int64_t delivered = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Accounting and diagnostics that are not contract metrics (generator
  /// lateness, sample counts, per-tenant counts, ...).
  std::map<std::string, double> notes;

  void fail(const std::string& why) {
    if (why.empty() || !correct) return;
    correct = false;
    failure = why;
  }
  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Linearly interpolated quantile q in [0, 1] of `v` (0 when empty).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Names accepted by --workload, in README order.
const std::vector<std::string>& workload_names();

/// Run one workload (or its knee ramp). Throws on a setup failure or when
/// interrupted; a failed output check is reported in Result::correct.
Result run_workload(const Options& opt, Clock::time_point process_start);

/// Set by SIGINT/SIGTERM; long loops poll it and throw Interrupted so the
/// stack unwinds through every cluster destructor (which reaps workers).
bool interrupted();
struct Interrupted {};

}  // namespace servebench
