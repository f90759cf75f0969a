// The servable T-PS engine the workloads run against, and the measurements
// every workload shares: repeated set-up, answer quality against exact SSP,
// live-mutation latency, and the traced layer-by-layer replay.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "pgsim/datasets/synthetic.h"
#include "pgsim/graph/graph.h"
#include "pgsim/index/domain_index.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/processor.h"
#include "pgsim/query/structural_filter.h"

namespace perfbench {

using namespace pgsim;

/// One workload run's command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    ///< scratch directory for durable databases
  std::string trace_path;  ///< where the traced run writes its spans
};

/// What a workload run hands back to main().
struct Outcome {
  bool correct = true;
  std::string error;  ///< first correctness failure, when !correct
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Report report;

  void Fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
};

/// Wall-clock seconds of one engine set-up, per index and in total.
struct BuildTimes {
  double pmi = 0.0;
  double filter = 0.0;
  double sig = 0.0;
  double total = 0.0;
};

/// PMI + structural filter + signature index + live processor over one
/// database. Heap-allocated and never moved: the filter and processor hold
/// pointers into the other members.
struct Engine {
  std::vector<ProbabilisticGraph> db;
  std::vector<Graph> certain;
  ProbabilisticMatrixIndex pmi;
  StructuralFilter filter;
  SignatureIndex sigs;
  std::unique_ptr<QueryProcessor> proc;
  BuildTimes times;
};

/// PPI-shaped synthetic data at laptop scale (the paper's Section 6
/// statistics): ~14 vertices, |E| ~ 1.5 |V|, mean edge probability 0.383.
SyntheticOptions PpiData(size_t graphs, uint32_t labels, uint64_t seed);

/// Section 6 PMI build defaults, scaled.
PmiBuildOptions PaperPmi();

/// GenerateDatabase / GenerateQueries, failing `out` on error.
std::vector<ProbabilisticGraph> MakeDatabase(const SyntheticOptions& data,
                                             Outcome* out);
std::vector<Graph> MakeQueries(const std::vector<ProbabilisticGraph>& db,
                               uint32_t edges, size_t count, uint64_t seed,
                               Outcome* out);

/// Thread width of the parallel workloads: 4, capped at the host's CPUs.
uint32_t Width();

/// Builds an engine over a copy of `db` and times each index.
std::unique_ptr<Engine> BuildEngine(const std::vector<ProbabilisticGraph>& db,
                                    const PmiBuildOptions& build);

/// Builds the engine `repeats` times (keeping the last) and reports the
/// median set-up time as `setup_s`, plus each index's median build time.
std::unique_ptr<Engine> SetUpRepeatedly(
    const std::vector<ProbabilisticGraph>& db, const PmiBuildOptions& build,
    int repeats, Report* report);

/// Reports pmi.build_s / filter.build_s / sig.build_s as the medians of
/// `times`, and pmi.features of `engine`.
void ReportIndexBuilds(const std::vector<BuildTimes>& times,
                       const Engine& engine, Report* report);

/// Answer quality of `proc` on `queries`: the pipeline's answers against
/// exact SSP >= epsilon over every structural candidate (the same processor
/// with probabilistic pruning off and exact verification). Queries whose
/// exact evaluation hits an engine limit are left out and counted.
/// Reports answer_precision, answer_recall and quality.* counts.
void MeasureAnswerQuality(const QueryProcessor& proc,
                          const std::vector<Graph>& queries,
                          const QueryOptions& options, Outcome* out);

/// Live-mutation latency of a closed-loop workload: each Step() adds a
/// fresh graph through the in-memory mutation API and removes it again, and
/// times the pair. The workloads call it between queries across the whole
/// measured loop (outside the timed queries), so the samples span the run.
/// An add+remove round trip leaves every answer unchanged.
class LiveMutator {
 public:
  LiveMutator(Engine* engine, const SyntheticOptions& data, uint64_t seed)
      : engine_(engine), data_(data), seed_(seed), rng_(seed) {}

  void Step(Outcome* out);
  /// Reports mutation.p50_ms / mutation.p90_ms over the pairs timed.
  void Report(Outcome* out) const;

 private:
  Engine* engine_;
  SyntheticOptions data_;
  uint64_t seed_;
  Rng rng_;
  std::vector<double> pair_ms_;
};

/// The traced run: replays `queries` layer by layer (relax -> filter ->
/// prune -> collect -> sample) through each layer's public functions,
/// recording spans, and reports the per-layer metrics. Stops early once
/// `budget_seconds` have been spent. Fails the outcome when the replay's
/// stage-1 survivor count differs from the pipeline's.
void TracedReplay(const Engine& engine, const std::vector<Graph>& queries,
                  const QueryOptions& options, double budget_seconds,
                  const std::string& trace_path, Outcome* out);

/// A copy of `g` with its vertex ids shuffled: isomorphic, not identical.
Graph PermuteVertices(const Graph& g, Rng* rng);

/// Reports p50_ms, p99_ms and the sample count of `ms`.
void ReportLatency(const std::vector<double>& ms, Report* report);

}  // namespace perfbench
