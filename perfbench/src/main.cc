// pgsim end-to-end benchmark.
//
//   pgsim_perfbench --workload=<paper-batch|label-rich|serve-churn>
//                   --seed=N --seconds=S --trace=0|1
//                   [--work-dir=DIR] [--trace-out=FILE]
//
// Prints every metric by name with its unit, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "error", "metrics"}. A run
// whose correctness gate fails reports no metrics and exits 1.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

bool Flag(const char* arg, const char* name, std::string* value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (Flag(argv[i], "--workload", &v)) {
      config.workload = v;
    } else if (Flag(argv[i], "--seed", &v)) {
      config.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--seconds", &v)) {
      config.seconds = std::atof(v.c_str());
    } else if (Flag(argv[i], "--trace", &v)) {
      config.trace = v != "0";
    } else if (Flag(argv[i], "--work-dir", &v)) {
      config.work_dir = v;
    } else if (Flag(argv[i], "--trace-out", &v)) {
      config.trace_path = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (config.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  perfbench::Outcome out;
  if (config.workload == "paper-batch") {
    out = perfbench::RunPaperBatch(config);
  } else if (config.workload == "label-rich") {
    out = perfbench::RunLabelRich(config);
  } else if (config.workload == "serve-churn") {
    if (config.work_dir.empty()) {
      std::fprintf(stderr, "serve-churn needs --work-dir\n");
      return 2;
    }
    out = perfbench::RunServeChurn(config);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }
  out.report.Set("host.cpus", perfbench::HostCpus(), "count");

  std::printf("workload %s seed %llu trace %d: %s\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.trace ? 1 : 0, out.correct ? "correct" : "INCORRECT");
  if (!out.correct) std::printf("  error: %s\n", out.error.c_str());
  out.report.Print();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"error\": "
      "\"%s\", \"metrics\": %s}\n",
      out.correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed),
      JsonEscape(out.error).c_str(),
      out.correct ? out.report.Json().c_str() : "{}");
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
