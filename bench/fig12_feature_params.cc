// Figure 12 reproduction: impact of the feature-generation parameters on
// the probabilistic pruners and the index.
//
//   (a) candidates vs maxL (feature size cap);
//   (b) candidates vs alpha (disjoint-embedding ratio threshold);
//   (c) index building time vs beta (frequency threshold);
//   (d) index size vs gamma (discriminative threshold).
//
// Paper shape: more/larger features help until bounds loosen (candidates
// grow with maxL); alpha has a sweet spot; index cost falls as beta/gamma
// grow (fewer features survive). Every PMI is built bound-only, so build
// time and pruning reflect the paper's sampled bounds, not exact cells.
//
// Flags: --db, --queries, --seed, --qsize, --delta, --epsilon.

#include <cstdio>

#include "bench_util.h"
#include "pgsim/common/timer.h"
#include "pgsim/graph/relaxation.h"

using namespace pgsim;
using namespace pgsim::bench;

namespace {

struct PointResult {
  double structure = 0.0;
  double ssp = 0.0;       // SSPBound candidates
  double opt_ssp = 0.0;   // OPT-SSPBound candidates
  double build_seconds = 0.0;
  double index_kb = 0.0;
};

PointResult MeasurePoint(const std::vector<ProbabilisticGraph>& db,
                         const std::vector<Graph>& certain,
                         const PmiBuildOptions& build, size_t num_queries,
                         uint32_t qsize, uint32_t delta, double epsilon,
                         uint64_t seed) {
  PointResult out;
  WallTimer build_timer;
  auto pmi = ProbabilisticMatrixIndex::Build(db, build).value();
  out.build_seconds = build_timer.Seconds();
  out.index_kb = pmi.SizeBytes() / 1024.0;
  const StructuralFilter filter =
      StructuralFilter::Build(certain, pmi.features());

  Rng query_rng(seed + 13);
  Rng rng(seed + 31);
  size_t measured = 0;
  for (size_t qi = 0; qi < num_queries; ++qi) {
    auto q = ExtractQuery(certain[query_rng.Uniform(certain.size())], qsize,
                          &query_rng);
    if (!q.ok()) continue;
    auto relaxed = GenerateRelaxedQueries(*q, delta);
    if (!relaxed.ok()) continue;
    ++measured;
    const auto sc_q = filter.Filter(*q, *relaxed, delta, nullptr);
    out.structure += sc_q.size();
    for (BoundSelection selection :
         {BoundSelection::kRandom, BoundSelection::kOptimized}) {
      ProbPrunerOptions options;
      options.selection = selection;
      ProbabilisticPruner pruner(&pmi, options);
      pruner.PrepareQuery(*relaxed);
      PrunerScratch pruner_scratch;
      size_t survivors = 0;
      for (uint32_t gi : sc_q) {
        if (pruner.Evaluate(gi, epsilon, &rng, &pruner_scratch).outcome ==
            PruneOutcome::kCandidate) {
          ++survivors;
        }
      }
      (selection == BoundSelection::kRandom ? out.ssp : out.opt_ssp) +=
          survivors;
    }
  }
  const double denom = measured == 0 ? 1.0 : static_cast<double>(measured);
  out.structure /= denom;
  out.ssp /= denom;
  out.opt_ssp /= denom;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const size_t db_size = args.GetInt("db", 60 * args.GetInt("scale", 1));
  const size_t num_queries = args.GetInt("queries", 6);
  const uint64_t seed = args.GetInt("seed", 42);
  const uint32_t qsize = args.GetInt("qsize", 5);
  const uint32_t delta = args.GetInt("delta", 1);
  const double epsilon = args.GetDouble("epsilon", 0.4);

  std::printf("== Figure 12: impact of feature-generation parameters ==\n");
  std::printf("db=%zu queries/point=%zu qsize=%u delta=%u epsilon=%.2f\n\n",
              db_size, num_queries, qsize, delta, epsilon);

  const auto db = GenerateDatabase(DefaultDataset(db_size, seed)).value();
  std::vector<Graph> certain;
  for (const auto& g : db) certain.push_back(g.certain());

  // (a) maxL sweep.
  {
    Table table({"maxL", "Structure", "SSPBound", "OPT-SSPBound"});
    for (uint32_t max_l : {2u, 3u, 4u, 5u, 6u}) {
      PmiBuildOptions build = BoundOnlyPmiBuild();
      build.miner.max_vertices = max_l;
      const PointResult r = MeasurePoint(db, certain, build, num_queries,
                                         qsize, delta, epsilon, seed);
      table.AddRow({std::to_string(max_l), Fmt(r.structure, 1), Fmt(r.ssp, 1),
                    Fmt(r.opt_ssp, 1)});
    }
    std::printf("--- (a) candidates vs maxL ---\n");
    table.Print();
  }

  // (b) alpha sweep.
  {
    Table table({"alpha", "Structure", "SIPBound", "OPT-SIPBound"});
    for (double alpha : {0.05, 0.10, 0.15, 0.20, 0.25}) {
      PmiBuildOptions build = BoundOnlyPmiBuild();
      build.miner.alpha = alpha;
      const PointResult r = MeasurePoint(db, certain, build, num_queries,
                                         qsize, delta, epsilon, seed);
      table.AddRow({Fmt(alpha, 2), Fmt(r.structure, 1), Fmt(r.ssp, 1),
                    Fmt(r.opt_ssp, 1)});
    }
    std::printf("\n--- (b) candidates vs alpha ---\n");
    table.Print();
  }

  // (c) beta sweep: index building time.
  {
    Table table({"beta", "Structure_s", "OPT-SIPBound_build_s"});
    for (double beta : {0.05, 0.10, 0.15, 0.20, 0.25}) {
      PmiBuildOptions build = BoundOnlyPmiBuild();
      build.miner.beta = beta;
      WallTimer structural_timer;
      auto pmi = ProbabilisticMatrixIndex::Build(db, build).value();
      const StructuralFilter filter =
          StructuralFilter::Build(certain, pmi.features());
      const double total = structural_timer.Seconds();
      table.AddRow({Fmt(beta, 2),
                    Fmt(total - pmi.stats().bounds_seconds, 2),
                    Fmt(pmi.stats().total_seconds, 2)});
    }
    std::printf("\n--- (c) index building time vs beta ---\n");
    table.Print();
  }

  // (d) gamma sweep: index size.
  {
    Table table({"gamma", "num_features", "index_KB"});
    for (double gamma : {0.05, 0.10, 0.15, 0.20, 0.25}) {
      PmiBuildOptions build = BoundOnlyPmiBuild();
      build.miner.gamma = gamma;
      auto pmi = ProbabilisticMatrixIndex::Build(db, build).value();
      table.AddRow({Fmt(gamma, 2), std::to_string(pmi.features().size()),
                    Fmt(pmi.SizeBytes() / 1024.0, 1)});
    }
    std::printf("\n--- (d) index size vs gamma ---\n");
    table.Print();
  }

  std::printf(
      "\nExpected shape (laptop scale, see README \"Benchmarks\"): "
      "candidates fall steeply from maxL=2 and saturate around maxL=4 "
      "(feature size drives pruning power); alpha is flat at this scale; "
      "build time and index size fall as beta/gamma grow.\n");
  return 0;
}
