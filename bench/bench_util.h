// Shared helpers for the figure-reproduction benchmark binaries: a tiny
// --key=value flag parser, an aligned table printer, and the standard
// experimental setup (database + PMI + structural filter) mirroring the
// paper's Section 6 defaults at laptop scale.
//
// Every binary accepts:
//   --scale=N      multiplies the database size (default 1)
//   --db=N         database size override
//   --queries=N    queries per measured point
//   --seed=N       master seed
// plus per-binary knobs documented in their headers.

#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "pgsim/datasets/synthetic.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/processor.h"
#include "pgsim/query/structural_filter.h"

namespace pgsim::bench {

/// Minimal --key=value argument parser.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--", 2) != 0) continue;
      const char* eq = std::strchr(arg, '=');
      if (eq == nullptr) {
        kv_.emplace_back(arg + 2, "1");
      } else {
        kv_.emplace_back(std::string(arg + 2, eq - arg - 2), eq + 1);
      }
    }
  }

  int64_t GetInt(const std::string& key, int64_t fallback) const {
    for (const auto& [k, v] : kv_) {
      if (k == key) return std::atoll(v.c_str());
    }
    return fallback;
  }

  double GetDouble(const std::string& key, double fallback) const {
    for (const auto& [k, v] : kv_) {
      if (k == key) return std::atof(v.c_str());
    }
    return fallback;
  }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

/// Aligned fixed-width table printer (the "figure series" output).
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> width(headers_.size(), 0);
    for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (size_t c = 0; c < row.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(width[c]), row[c].c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double v, int digits = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

inline std::string FmtMs(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", seconds * 1e3);
  return buf;
}

/// The standard bench setup: database, mined PMI, structural filter.
struct Setup {
  std::vector<ProbabilisticGraph> db;
  std::vector<Graph> certain;
  ProbabilisticMatrixIndex pmi;
  StructuralFilter filter;
};

/// Default generator parameters scaled from the paper's PPI statistics.
inline SyntheticOptions DefaultDataset(size_t db_size, uint64_t seed) {
  SyntheticOptions options;
  options.num_graphs = db_size;
  options.avg_vertices = 14;
  options.edge_factor = 1.5;
  options.num_vertex_labels = 6;
  options.mean_edge_prob = 0.383;
  options.seed = seed;
  return options;
}

/// Default PMI build parameters (Section 6 defaults, scaled).
inline PmiBuildOptions DefaultPmiBuild() {
  PmiBuildOptions build;
  build.miner.alpha = 0.15;
  build.miner.beta = 0.15;
  build.miner.gamma = -1.0;  // keep all frequent features
  build.miner.max_vertices = 4;
  build.sip.mc.xi = 0.1;
  build.sip.mc.tau = 0.1;
  build.sip.mc.min_samples = 600;
  build.sip.mc.max_samples = 1500;
  return build;
}

/// DefaultPmiBuild with the paper's sampled-bound cells instead of exact
/// SIP: Figures 11 and 12 measure the Section 4.1 bounds themselves.
inline PmiBuildOptions BoundOnlyPmiBuild() {
  PmiBuildOptions build = DefaultPmiBuild();
  build.bound_only_cells = true;
  return build;
}

inline Setup BuildSetupFromDataset(const SyntheticOptions& dataset,
                                   const PmiBuildOptions& build =
                                       DefaultPmiBuild()) {
  Setup s;
  s.db = GenerateDatabase(dataset).value();
  for (const auto& g : s.db) s.certain.push_back(g.certain());
  s.pmi = ProbabilisticMatrixIndex::Build(s.db, build).value();
  s.filter = StructuralFilter::Build(s.certain, s.pmi.features());
  return s;
}

inline Setup BuildSetup(size_t db_size, uint64_t seed,
                        const PmiBuildOptions& build = DefaultPmiBuild()) {
  return BuildSetupFromDataset(DefaultDataset(db_size, seed), build);
}

}  // namespace pgsim::bench
