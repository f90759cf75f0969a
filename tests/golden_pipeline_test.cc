// End-to-end golden test of the full offline + online pipeline over a seeded
// synthetic database: mine -> build PMI -> build StructuralFilter -> relax ->
// filter -> prune -> verify. The answer sets below were produced by this
// exact configuration and are pinned so refactors of the offline phase (or
// of batching/caching) cannot silently change results. Every stage is
// deterministic by construction — seeded RNGs, order-preserving parallel
// merges — so these values are stable across thread counts and cache modes.
//
// If a change legitimately alters them (e.g. a new mining rule), re-pin by
// rerunning this configuration and updating kGolden* — and say so in the
// commit message; these numbers are the pipeline's contract.

#include <gtest/gtest.h>

#include "pgsim/datasets/synthetic.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/processor.h"
#include "pgsim/query/structural_filter.h"

namespace pgsim {
namespace {

constexpr size_t kGoldenNumFeatures = 93;
constexpr size_t kGoldenNumEntries = 690;

struct GoldenQuery {
  std::vector<uint32_t> answers;
  size_t structural_candidates;
  size_t verification_candidates;
  size_t num_relaxed_queries;
};

// Re-pinned for exact PMI cells: Pruning 1 now reads exact SIP instead of
// sampled bounds, so it prunes more (verification candidates 7/2/10/9/10/2
// became 7/1/8/8/8/2) and stage 3's per-candidate RNG forks shifted. Three
// near-threshold sampled verdicts moved against exact SSP (epsilon 0.4):
// query 0 lost graph 18 (SSP 0.410); queries 2 and 4 lost graph 3 (SSP
// 0.376) and gained graph 14 (SSP 0.393). A bound-only build
// (PmiBuildOptions::bound_only_cells) still reproduces the previous pins.
const std::vector<GoldenQuery>& GoldenQueries() {
  static const std::vector<GoldenQuery> golden{
      {{2, 3, 6, 8, 13}, 10, 7, 4},
      {{}, 7, 1, 3},
      {{0, 2, 4, 5, 8, 14, 16}, 13, 8, 4},
      {{13}, 9, 8, 4},
      {{0, 2, 4, 5, 8, 14, 16}, 13, 8, 4},
      {{10}, 3, 2, 4},
  };
  return golden;
}

// The pinned configuration: database, index, filter, and queries. Built in
// place because the filter keeps pointers into `certain` and the features.
struct GoldenSetup {
  explicit GoldenSetup(bool bound_only_cells) {
    SyntheticOptions dataset;
    dataset.num_graphs = 20;
    dataset.avg_vertices = 9;
    dataset.edge_factor = 1.4;
    dataset.num_vertex_labels = 3;
    dataset.seed = 4100;
    db = GenerateDatabase(dataset).value();
    for (const auto& g : db) certain.push_back(g.certain());

    PmiBuildOptions build;
    build.miner.alpha = 0.0;
    build.miner.beta = 0.2;
    build.miner.gamma = -1.0;
    build.miner.max_vertices = 4;
    build.sip.mc.min_samples = 400;
    build.sip.mc.max_samples = 400;
    build.bound_only_cells = bound_only_cells;
    pmi = ProbabilisticMatrixIndex::Build(db, build).value();
    filter = StructuralFilter::Build(certain, pmi.features());

    Rng qrng(4101);
    while (queries.size() < GoldenQueries().size()) {
      auto q = ExtractQuery(certain[qrng.Uniform(certain.size())], 4, &qrng);
      if (q.ok()) queries.push_back(std::move(q).value());
    }
    options.delta = 1;
    options.epsilon = 0.4;
    options.verifier.mc.min_samples = 400;
    options.verifier.mc.max_samples = 400;
  }

  std::vector<ProbabilisticGraph> db;
  std::vector<Graph> certain;
  ProbabilisticMatrixIndex pmi;
  StructuralFilter filter;
  std::vector<Graph> queries;
  QueryOptions options;
};

TEST(GoldenPipelineTest, FullPipelineAnswersArePinned) {
  GoldenSetup s(/*bound_only_cells=*/false);
  EXPECT_EQ(s.pmi.stats().num_features, kGoldenNumFeatures);
  EXPECT_EQ(s.pmi.stats().num_entries, kGoldenNumEntries);
  EXPECT_EQ(s.pmi.stats().exact_cells, kGoldenNumEntries);
  const std::vector<Graph>& queries = s.queries;
  QueryOptions options = s.options;
  const QueryProcessor processor(&s.db, &s.pmi, &s.filter);

  // The pinned values must hold however the batch is executed — including
  // with stage 3 fanned across an intra-query verification pool, under
  // either batch scheduler (the work-stealing task graph must reproduce the
  // chunked parallel-for's answers bit for bit at any steal schedule), and
  // with the signature gate on or off (its cover test is sound, so skipped
  // matcher calls can never change an answer or a pinned candidate count).
  for (const bool use_signatures : {true, false}) {
  for (const bool enable_cache : {true, false}) {
    for (const uint32_t threads : {1u, 4u}) {
      for (const uint32_t verify_threads : {1u, 3u}) {
      for (const auto scheduler : {BatchOptions::Scheduler::kChunked,
                                   BatchOptions::Scheduler::kStealing}) {
      BatchOptions batch;
      batch.num_threads = threads;
      batch.enable_cache = enable_cache;
      batch.scheduler = scheduler;
      options.verify_threads = verify_threads;
      options.use_signatures = use_signatures;
      const auto results = processor.QueryBatch(queries, options, batch);
      ASSERT_EQ(results.size(), GoldenQueries().size());
      for (size_t i = 0; i < results.size(); ++i) {
        const GoldenQuery& golden = GoldenQueries()[i];
        ASSERT_TRUE(results[i].status.ok()) << "query " << i;
        EXPECT_EQ(results[i].answers, golden.answers)
            << "query " << i << " threads=" << threads
            << " cache=" << enable_cache
            << " verify_threads=" << verify_threads << " stealing="
            << (scheduler == BatchOptions::Scheduler::kStealing)
            << " signatures=" << use_signatures;
        EXPECT_EQ(results[i].stats.structural_candidates,
                  golden.structural_candidates)
            << i;
        EXPECT_EQ(results[i].stats.verification_candidates,
                  golden.verification_candidates)
            << i;
        EXPECT_EQ(results[i].stats.num_relaxed_queries,
                  golden.num_relaxed_queries)
            << i;
      }
      }
      }
    }
  }
  }
}

// The paper's bound-only cells reproduce the pins recorded before exact
// cells existed (one execution mode; the sweep above covers the others).
TEST(GoldenPipelineTest, BoundOnlyCellsKeepTheSampledPins) {
  static const std::vector<GoldenQuery> sampled{
      {{2, 3, 6, 8, 13, 18}, 10, 7, 4},
      {{}, 7, 2, 3},
      {{0, 2, 3, 4, 5, 8, 16}, 13, 10, 4},
      {{13}, 9, 9, 4},
      {{0, 2, 3, 4, 5, 8, 16}, 13, 10, 4},
      {{10}, 3, 2, 4},
  };
  GoldenSetup s(/*bound_only_cells=*/true);
  EXPECT_EQ(s.pmi.stats().num_entries, kGoldenNumEntries);
  EXPECT_EQ(s.pmi.stats().exact_cells, 0u);
  const QueryProcessor processor(&s.db, &s.pmi, &s.filter);
  BatchOptions batch;
  batch.num_threads = 1;
  const auto results = processor.QueryBatch(s.queries, s.options, batch);
  ASSERT_EQ(results.size(), sampled.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok()) << "query " << i;
    EXPECT_EQ(results[i].answers, sampled[i].answers) << "query " << i;
    EXPECT_EQ(results[i].stats.structural_candidates,
              sampled[i].structural_candidates)
        << i;
    EXPECT_EQ(results[i].stats.verification_candidates,
              sampled[i].verification_candidates)
        << i;
    EXPECT_EQ(results[i].stats.num_relaxed_queries,
              sampled[i].num_relaxed_queries)
        << i;
  }
}

}  // namespace
}  // namespace pgsim
