// Exact probability of a monotone DNF of edge-existence events.
//
// Both the subgraph isomorphism probability (Equation 10: SIP =
// Pr(Bf1 ∨ ... ∨ Bf|Ef|), each Bfi = "embedding i's edges all present") and
// the subgraph similarity probability (Equation 22) are probabilities of a
// disjunction of all-present conjunctions. Computing them is #P-complete
// (Theorem 2); this module is the exact (exponential worst case) evaluator
// used as ground truth and as the paper's "Exact" baseline.
//
// Two engines:
//   * Partition model: recursion over ne groups with memoization on the set
//     of still-alive terms — prunes aggressively, handles the paper-scale
//     graphs used in tests/benches.
//   * Any model: Shannon expansion on edge variables, branching with exact
//     conditional probabilities from the clique tree.
// One node budget bounds both. It counts search nodes, never time, so a
// result (or its ResourceExhausted) is a pure function of the input.

#pragma once

#include <cstdint>
#include <vector>

#include "pgsim/common/bitset.h"
#include "pgsim/common/status.h"
#include "pgsim/prob/probabilistic_graph.h"

namespace pgsim {

/// Limits for the exact evaluators.
struct DnfExactOptions {
  /// Term budget for the memoized partition-model engine (it packs the
  /// alive-term set into 64 bits, so values above 64 are clamped). Beyond
  /// it, evaluation falls back to the Shannon engine (no term cap).
  size_t max_terms = 64;
  /// Node budget of either engine: expanded (group, alive-set) states of
  /// the partition engine, branch nodes of the Shannon engine. Exceeding it
  /// returns ResourceExhausted — the practical manifestation of Theorem 2's
  /// #P-hardness.
  uint64_t max_nodes = 2'000'000;
};

/// Exact Pr( OR_t [all edges of terms[t] present] ) under g's joint.
/// Terms are bitsets over g's edge ids. An empty term list yields 0; an
/// empty term (no edges) yields 1.
Result<double> ExactDnfProbability(
    const ProbabilisticGraph& g, const std::vector<EdgeBitset>& terms,
    const DnfExactOptions& options = DnfExactOptions());

/// Removes terms that are supersets of other terms (they are absorbed by the
/// disjunction) and duplicate terms. Exposed for tests.
std::vector<EdgeBitset> AbsorbDnfTerms(std::vector<EdgeBitset> terms);

}  // namespace pgsim
