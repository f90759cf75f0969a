#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

uint32_t HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<uint32_t>(std::max(1, CPU_COUNT(&set)));
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::Print() const {
  for (const Metric& m : metrics_) {
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string Report::Json() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    // Non-finite values are not JSON; report them as null so the runner
    // refuses the metric instead of parsing garbage.
    if (std::isfinite(m.value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}";
}

int64_t Tracer::Begin(const char* name, uint64_t query_id, int64_t parent) {
  const double now = SecondsBetween(origin_, Clock::now());
  spans_.push_back({name, query_id, parent, now, now});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t span) {
  spans_[static_cast<size_t>(span)].end_s =
      SecondsBetween(origin_, Clock::now());
}

std::vector<std::pair<std::string, double>> Tracer::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_s - spans_[i].start_s;
  }
  // Children close before their parents, so each child's whole duration
  // lies inside the parent's interval.
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.end_s - s.start_s;
  }
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) by_name[spans_[i].name] += self[i];
  return {by_name.begin(), by_name.end()};
}

double Tracer::RootSeconds() const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += s.end_s - s.start_s;
  }
  return total;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
                 "%llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                 "\"parent\": %lld}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.query_id), s.start_s * 1e6,
                 (s.end_s - s.start_s) * 1e6, i,
                 static_cast<long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
