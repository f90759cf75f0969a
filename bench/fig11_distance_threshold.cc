// Figure 11 reproduction: candidate set size (a) and pruning time (b) as a
// function of the subgraph distance threshold delta, comparing the SIP-bound
// flavors that feed the probabilistic pruner:
//
//   Structure     — deterministic structural pruning only;
//   SIPBound      — PMI entries from greedy disjoint families;
//   OPT-SIPBound  — PMI entries from max-weight cliques (tightest bounds).
//
// Paper shape: all series grow with delta (more relaxed queries -> more
// matches); both SIP flavors prune far below Structure; OPT-SIPBound is
// tighter but costs more time. The PMI is built bound-only: exact cells
// would make the two flavors identical.
//
// Flags: --db, --queries, --seed, --qsize, --epsilon, --max_delta.

#include <cstdio>

#include "bench_util.h"
#include "pgsim/common/timer.h"
#include "pgsim/graph/relaxation.h"

using namespace pgsim;
using namespace pgsim::bench;

int main(int argc, char** argv) {
  Args args(argc, argv);
  const size_t db_size = args.GetInt("db", 80 * args.GetInt("scale", 1));
  const size_t num_queries = args.GetInt("queries", 6);
  const uint64_t seed = args.GetInt("seed", 42);
  const uint32_t qsize = args.GetInt("qsize", 7);
  const double epsilon = args.GetDouble("epsilon", 0.5);
  const uint32_t max_delta = args.GetInt("max_delta", 3);

  std::printf("== Figure 11: scalability to subgraph distance threshold ==\n");
  std::printf("db=%zu queries/point=%zu qsize=%u epsilon=%.2f\n\n", db_size,
              num_queries, qsize, epsilon);

  Setup setup = BuildSetup(db_size, seed, BoundOnlyPmiBuild());

  Table cand_table({"delta", "Structure", "SIPBound", "OPT-SIPBound"});
  Table time_table({"delta", "Structure_ms", "SIPBound_ms",
                    "OPT-SIPBound_ms"});

  // One fixed workload shared by every (delta, variant) combination.
  const std::vector<Graph> queries =
      GenerateQueries(setup.db, qsize, num_queries, seed + 11).value();

  for (uint32_t delta = 1; delta <= max_delta; ++delta) {
    double structure_cand = 0, structure_sec = 0;
    double simple_cand = 0, simple_sec = 0;
    double opt_cand = 0, opt_sec = 0;
    Rng rng(seed + 29);  // evaluation randomness only
    size_t measured = 0;
    for (const Graph& q_graph : queries) {
      const Graph* q = &q_graph;
      auto relaxed = GenerateRelaxedQueries(*q, delta);
      if (!relaxed.ok()) continue;
      ++measured;

      WallTimer structural_timer;
      const auto sc_q = setup.filter.Filter(*q, *relaxed, delta, nullptr);
      structure_sec += structural_timer.Seconds();
      structure_cand += sc_q.size();

      for (SipVariant variant : {SipVariant::kSimple, SipVariant::kOpt}) {
        ProbPrunerOptions options;
        options.selection = BoundSelection::kOptimized;
        options.sip_variant = variant;
        ProbabilisticPruner pruner(&setup.pmi, options);
        WallTimer timer;
        pruner.PrepareQuery(*relaxed);
        PrunerScratch pruner_scratch;
        size_t survivors = 0;
        for (uint32_t gi : sc_q) {
          if (pruner.Evaluate(gi, epsilon, &rng, &pruner_scratch).outcome ==
              PruneOutcome::kCandidate) {
            ++survivors;
          }
        }
        const double sec = timer.Seconds();
        if (variant == SipVariant::kSimple) {
          simple_sec += sec;
          simple_cand += survivors;
        } else {
          opt_sec += sec;
          opt_cand += survivors;
        }
      }
    }
    const double denom = measured == 0 ? 1.0 : static_cast<double>(measured);
    cand_table.AddRow({std::to_string(delta), Fmt(structure_cand / denom, 1),
                       Fmt(simple_cand / denom, 1), Fmt(opt_cand / denom, 1)});
    time_table.AddRow({std::to_string(delta), FmtMs(structure_sec / denom),
                       FmtMs(simple_sec / denom), FmtMs(opt_sec / denom)});
  }

  std::printf("--- (a) candidate size ---\n");
  cand_table.Print();
  std::printf("\n--- (b) pruning time ---\n");
  time_table.Print();
  std::printf(
      "\nExpected shape: all series grow with delta; OPT-SIPBound <= "
      "SIPBound <= Structure on candidates.\n");
  return 0;
}
