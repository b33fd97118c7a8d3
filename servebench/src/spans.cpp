#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>

namespace servebench {

bool SpanLog::write_csv(const std::string& path) const {
  std::ofstream out(path);
  out << "name,layer,id,parent,image,begin_ns,end_ns\n";
  for (const Span& s : spans()) {
    out << s.name << ',' << s.layer << ',' << s.id << ',' << s.parent << ','
        << s.image << ',' << s.begin_ns << ',' << s.end_ns << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

SelfTimes reduce_self_times(const std::vector<Span>& spans) {
  // Children of one parent never overlap each other (each is one blocking
  // call made by one thread), so their summed durations are the covered
  // part of the parent.
  std::unordered_map<std::int64_t, std::int64_t> covered_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) covered_ns[s.parent] += s.end_ns - s.begin_ns;
  }
  SelfTimes out;
  for (const Span& s : spans) {
    const auto it = covered_ns.find(s.id);
    const std::int64_t covered = it == covered_ns.end() ? 0 : it->second;
    const double self_us =
        static_cast<double>(std::max<std::int64_t>(
            0, s.end_ns - s.begin_ns - covered)) /
        1e3;
    out.by_name[s.name].push_back(self_us);
  }
  return out;
}

}  // namespace servebench
