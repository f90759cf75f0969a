// Shared pieces of the end-to-end benchmark: the metric report, latency
// percentiles, peak memory, and the in-memory span tracer the traced replay
// records into.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated percentile (p in [0, 100]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// CPUs this process may run on (what `nproc` prints).
uint32_t HostCpus();

/// Metrics in insertion order, each with its unit. Setting a name twice
/// overwrites the value.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// One "name value unit" line per metric, for people.
  void Print() const;
  /// {"name": {"value": v, "unit": "u"}, ...} with every digit of v.
  std::string Json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Spans recorded by the traced replay: one per layer call, with its parent
/// span and the id of the query it belongs to. Kept in memory and written
/// out once, at the end of the run.
class Tracer {
 public:
  struct Span {
    const char* name;
    uint64_t query_id;
    int64_t parent;  ///< index into spans(), -1 for a query's root span
    double start_s;  ///< seconds since the tracer was created
    double end_s;
  };

  Tracer() : origin_(Clock::now()) {}

  /// Opens a span and returns its index.
  int64_t Begin(const char* name, uint64_t query_id, int64_t parent);
  void End(int64_t span);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: summed duration minus the time its child spans cover.
  std::vector<std::pair<std::string, double>> SelfSeconds() const;
  /// Summed duration of the root spans (one per replayed query).
  double RootSeconds() const;

  /// Writes the spans as Chrome trace-event JSON ("X" events, one track per
  /// query). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t query_id,
             int64_t parent)
      : tracer_(tracer), id_(tracer->Begin(name, query_id, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace perfbench
