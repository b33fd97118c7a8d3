#include "proc.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>

namespace servebench {

namespace {

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

}  // namespace

double cpu_seconds_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return tv_seconds(ru.ru_utime) + tv_seconds(ru.ru_stime);
}

double cpu_seconds_pid(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  // The command name (field 2) may hold spaces; fields resume after ')'.
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  // After ')' the fields start at 3 (state); utime and stime are 14 and 15.
  for (int i = 3; i < 14; ++i) rest >> field;
  long long utime = 0, stime = 0;
  rest >> utime >> stime;
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peak_rss_mb_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double peak_rss_mb_pid(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream v(line.substr(6));
      double kib = 0.0;
      v >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

double host_steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  // "cpu user nice system idle iowait irq softirq steal ..."
  long long field[8] = {};
  in >> cpu;
  for (long long& f : field) in >> f;
  if (!in || cpu != "cpu") return 0.0;
  return static_cast<double>(field[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

}  // namespace servebench
