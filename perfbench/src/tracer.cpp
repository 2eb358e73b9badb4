#include "tracer.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::uint64_t Tracer::begin(const char* name, std::uint64_t parent,
                            std::uint64_t request) {
  if (!enabled_) return 0;
  const auto start = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - origin_)
                         .count();
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(Record{name, parent, request, start, -1});
  return records_.size();
}

void Tracer::end(std::uint64_t id) {
  if (id == 0) return;
  const auto stop = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - origin_)
                        .count();
  std::lock_guard<std::mutex> lock(mu_);
  records_.at(id - 1).end_ns = stop;
}

std::vector<Tracer::Summary> Tracer::summarize() const {
  std::vector<Record> records;
  {
    std::lock_guard<std::mutex> lock(mu_);
    records = records_;
  }
  std::vector<double> child_seconds(records.size(), 0.0);
  for (const Record& r : records)
    if (r.parent != 0 && r.end_ns >= 0)
      child_seconds[r.parent - 1] += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
  std::map<std::string, Summary> by_name;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    if (r.end_ns < 0) continue;
    Summary& s = by_name[r.name];
    s.name = r.name;
    const double duration = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    ++s.count;
    s.total_seconds += duration;
    s.self_seconds += std::max(0.0, duration - child_seconds[i]);
  }
  std::vector<Summary> out;
  for (auto& [name, s] : by_name) out.push_back(s);
  return out;
}

bool Tracer::write_json(const std::string& path,
                        const std::string& meta_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"meta\":" << meta_json << ",\"spans\":[";
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << (i == 0 ? "" : ",") << "{\"id\":" << i + 1 << ",\"name\":\""
          << r.name << "\",\"parent\":" << r.parent
          << ",\"request\":" << r.request << ",\"start_ns\":" << r.start_ns
          << ",\"end_ns\":" << r.end_ns << "}";
    }
  }
  out << "],\"summary\":[";
  const std::vector<Summary> summary = summarize();
  for (std::size_t i = 0; i < summary.size(); ++i) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"count\":%zu,\"total_s\":%.9g,"
                  "\"self_s\":%.9g}",
                  i == 0 ? "" : ",", summary[i].name.c_str(), summary[i].count,
                  summary[i].total_seconds, summary[i].self_seconds);
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
