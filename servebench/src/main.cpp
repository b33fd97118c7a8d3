// Serving benchmark of the ADCNN cluster: closed-loop capacity and
// open-loop tail latency of the in-process and socket clusters, with a
// traced run that attributes time to the nn, compress, core, runtime, net
// and obs layers. See servebench/README.md.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1 [--ramp]
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
// A human-readable report goes to stderr, and the full result (with the
// accounting notes) to .servebench_out/.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "workloads.hpp"

namespace servebench {

namespace {

volatile std::sig_atomic_t g_signal = 0;

extern "C" void on_signal(int sig) { g_signal = sig; }

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_json(const Result& r) {
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!first) s += ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + json_number(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  return s;
}

/// The stdout object plus accounting notes, for the result file.
std::string full_json(const Options& opt, const Result& r) {
  std::string s = "{\"workload\": \"" + opt.workload + "\", \"seed\": " +
                  std::to_string(opt.seed) + ", \"seconds\": " +
                  json_number(opt.seconds) + ", \"trace\": " +
                  (opt.trace ? "1" : "0") + ", \"delivered\": " +
                  std::to_string(r.delivered) + ", \"result\": " +
                  result_json(r) + ", \"notes\": {";
  bool first = true;
  for (const auto& [name, v] : r.notes) {
    if (!first) s += ", ";
    first = false;
    s += "\"" + name + "\": " + json_number(v);
  }
  s += "}}";
  return s;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--ramp]\nworkloads:",
               why);
  for (const std::string& n : workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--ramp") {
      opt.ramp = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed wants an integer");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(opt.seconds >= 1.0) ||
          opt.seconds > 60.0) {
        usage("--seconds wants a number in [1, 60]");
      }
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") usage("--trace wants 0 or 1");
      opt.trace = v == "1";
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const std::string& n : workload_names()) known = known || n == opt.workload;
  if (!known) usage(("unknown workload " + opt.workload).c_str());
  return opt;
}

}  // namespace

bool interrupted() { return g_signal != 0; }

}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  const Clock::time_point process_start = Clock::now();
  // A flag only: the run loops poll it and unwind, so every cluster
  // destructor runs and reaps its worker processes.
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  const Options opt = parse(argc, argv);
  Result r;
  try {
    r = run_workload(opt, process_start);
  } catch (const Interrupted&) {
    std::fprintf(stderr, "servebench: interrupted by signal %d\n",
                 static_cast<int>(g_signal));
    return 128 + static_cast<int>(g_signal);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
  if (opt.ramp) return 0;

  for (const auto& [name, v] : r.notes) {
    std::fprintf(stderr, "  %-40s %.6g\n", name.c_str(), v);
  }
  for (const auto& [name, m] : r.metrics) {
    std::fprintf(stderr, "%-42s %14.4f %s\n", name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::fprintf(stderr, "attempted %lld, delivered %lld, failed %lld\n",
               static_cast<long long>(r.attempted),
               static_cast<long long>(r.delivered),
               static_cast<long long>(r.failed));
  if (r.failed > 0) {
    std::fprintf(stderr, "first failed operation: %s\n", r.failed_reason.c_str());
  }
  if (!r.correct) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", r.failure.c_str());
  }

  std::filesystem::create_directories(opt.out_dir);
  const std::string path = opt.out_dir + "/result-" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           (opt.trace ? "1" : "0") + ".json";
  std::ofstream(path) << full_json(opt, r) << "\n";

  std::printf("%s\n", result_json(r).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
