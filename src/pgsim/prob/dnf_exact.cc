#include "pgsim/prob/dnf_exact.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

namespace pgsim {

std::vector<EdgeBitset> AbsorbDnfTerms(std::vector<EdgeBitset> terms) {
  // Sort by population count: a superset can only absorb into something
  // smaller or equal, so scanning smaller terms first suffices. Equal
  // counts break by content so the output — and every downstream
  // floating-point accumulation order — is a pure function of the term
  // *set*, independent of the order the caller collected it in.
  std::sort(terms.begin(), terms.end(),
            [](const EdgeBitset& a, const EdgeBitset& b) {
              const size_t ca = a.Count(), cb = b.Count();
              if (ca != cb) return ca < cb;
              return a.words() < b.words();
            });
  std::vector<EdgeBitset> kept;
  for (const EdgeBitset& t : terms) {
    bool absorbed = false;
    for (const EdgeBitset& k : kept) {
      if (t.ContainsAll(k)) {  // t ⊇ k: t is implied by k's event
        absorbed = true;
        break;
      }
    }
    if (!absorbed) kept.push_back(t);
  }
  return kept;
}

namespace {

// Partition-model engine: process ne groups in order; a term dies when a
// group assignment misses one of its edges, and is satisfied once its last
// group has been assigned with all of its edges present. Memoized on
// (group index, alive-term mask); each memo miss is one budgeted node.
class PartitionDnfSolver {
 public:
  PartitionDnfSolver(const ProbabilisticGraph& g,
                     const std::vector<EdgeBitset>& terms, uint64_t max_nodes)
      : g_(g), terms_(terms), max_nodes_(max_nodes) {
    const auto& ne_sets = g.ne_sets();
    term_last_group_.assign(terms.size(), 0);
    term_group_masks_.assign(
        terms.size(), std::vector<uint32_t>(ne_sets.size(), 0));
    for (size_t t = 0; t < terms.size(); ++t) {
      for (size_t gi = 0; gi < ne_sets.size(); ++gi) {
        uint32_t mask = 0;
        const auto& edges = ne_sets[gi].edges;
        for (size_t j = 0; j < edges.size(); ++j) {
          if (terms[t].Test(edges[j])) mask |= (1U << j);
        }
        term_group_masks_[t][gi] = mask;
        if (mask != 0) term_last_group_[t] = static_cast<uint32_t>(gi);
      }
    }
  }

  Result<double> Solve() {
    const uint64_t all_alive =
        terms_.size() == 64 ? ~0ULL : ((1ULL << terms_.size()) - 1);
    const double p = Recurse(0, all_alive);
    if (exhausted_) {
      return Status::ResourceExhausted(
          "ExactDnfProbability: partition node budget exceeded");
    }
    return p;
  }

 private:
  double Recurse(uint32_t group, uint64_t alive) {
    if (exhausted_ || alive == 0) return 0.0;
    if (group == g_.ne_sets().size()) return 0.0;
    const auto key = std::make_pair(group, alive);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    if (++nodes_ > max_nodes_) {
      exhausted_ = true;
      return 0.0;
    }

    const NeighborEdgeSet& ne = g_.ne_sets()[group];
    const uint32_t table_size = 1U << ne.edges.size();
    double total = 0.0;
    for (uint32_t assignment = 0; assignment < table_size; ++assignment) {
      const double p = ne.table.Prob(assignment);
      if (p == 0.0) continue;
      uint64_t next_alive = alive;
      bool satisfied = false;
      for (uint64_t rest = alive; rest != 0; rest &= rest - 1) {
        const int t = __builtin_ctzll(rest);
        const uint32_t need = term_group_masks_[t][group];
        if (need == 0) continue;
        if ((assignment & need) != need) {
          next_alive &= ~(1ULL << t);  // an edge is absent: term dies
        } else if (term_last_group_[t] == group) {
          satisfied = true;  // all groups of t processed, all edges present
          break;
        }
      }
      total += satisfied ? p : p * Recurse(group + 1, next_alive);
    }
    memo_.emplace(key, total);
    return total;
  }

  const ProbabilisticGraph& g_;
  const std::vector<EdgeBitset>& terms_;
  std::vector<uint32_t> term_last_group_;
  // term_group_masks_[t][gi]: bits (in group gi's local order) of term t's
  // edges inside group gi.
  std::vector<std::vector<uint32_t>> term_group_masks_;
  std::map<std::pair<uint32_t, uint64_t>, double> memo_;
  const uint64_t max_nodes_;
  uint64_t nodes_ = 0;
  bool exhausted_ = false;
};

// Any-model engine: Shannon expansion on edge variables with exact branch
// probabilities from the joint.
class ShannonDnfSolver {
 public:
  ShannonDnfSolver(const ProbabilisticGraph& g,
                   const std::vector<EdgeBitset>& terms, uint64_t max_nodes)
      : g_(g), terms_(terms), max_nodes_(max_nodes) {}

  Result<double> Solve() {
    std::vector<char> alive(terms_.size(), 1);
    EdgeBitset care(g_.NumEdges());
    EdgeBitset value(g_.NumEdges());
    const double p = Recurse(&alive, &care, &value, 1.0);
    if (exhausted_) {
      return Status::ResourceExhausted(
          "ExactDnfProbability: Shannon node budget exceeded");
    }
    return p;
  }

 private:
  // Returns Pr(DNF | current partial assignment). `prefix_prob` is the
  // probability of the partial assignment itself (used only for pruning).
  double Recurse(std::vector<char>* alive, EdgeBitset* care, EdgeBitset* value,
                 double prefix_prob) {
    if (exhausted_ || prefix_prob <= 0.0) return 0.0;
    if (++nodes_ > max_nodes_) {
      exhausted_ = true;
      return 0.0;
    }
    // Terminal checks + pick the branch edge: the most frequent unassigned
    // edge over alive terms.
    std::vector<uint32_t> edge_count(g_.NumEdges(), 0);
    bool any_alive = false;
    EdgeId branch_edge = kInvalidEdge;
    uint32_t best_count = 0;
    for (size_t t = 0; t < terms_.size(); ++t) {
      if (!(*alive)[t]) continue;
      bool fully_assigned_present = true;
      for (uint32_t e : terms_[t].ToVector()) {
        if (!care->Test(e)) {
          fully_assigned_present = false;
          if (++edge_count[e] > best_count) {
            best_count = edge_count[e];
            branch_edge = e;
          }
        }
      }
      if (fully_assigned_present) return 1.0;  // term satisfied
      any_alive = true;
    }
    if (!any_alive) return 0.0;

    // Branch on branch_edge = 1 / 0.
    double result = 0.0;
    const double p_prefix = g_.Probability(*care, *value);
    care->Set(branch_edge);
    for (int bit = 1; bit >= 0; --bit) {
      value->Assign(branch_edge, bit);
      const double p_branch = g_.Probability(*care, *value);
      if (p_branch <= 0.0) continue;
      const double cond = p_branch / p_prefix;
      std::vector<char> next_alive = *alive;
      if (bit == 0) {
        for (size_t t = 0; t < terms_.size(); ++t) {
          if (next_alive[t] && terms_[t].Test(branch_edge)) next_alive[t] = 0;
        }
      }
      result += cond * Recurse(&next_alive, care, value, p_branch);
    }
    care->Reset(branch_edge);
    value->Reset(branch_edge);
    return result;
  }

  const ProbabilisticGraph& g_;
  const std::vector<EdgeBitset>& terms_;
  const uint64_t max_nodes_;
  uint64_t nodes_ = 0;
  bool exhausted_ = false;
};

}  // namespace

Result<double> ExactDnfProbability(const ProbabilisticGraph& g,
                                   const std::vector<EdgeBitset>& terms,
                                   const DnfExactOptions& options) {
  if (terms.empty()) return 0.0;
  std::vector<EdgeBitset> reduced = AbsorbDnfTerms(terms);
  for (const EdgeBitset& t : reduced) {
    if (t.Empty()) return 1.0;  // empty conjunction is always true
  }
  // The memoized partition engine packs the alive-term set into 64 bits;
  // beyond that (or for tree models) the Shannon engine takes over — it has
  // no term cap, only the exponential cost Theorem 2 promises.
  if (g.kind() == JointModelKind::kPartition &&
      reduced.size() <= std::min<size_t>(options.max_terms, 64)) {
    PartitionDnfSolver solver(g, reduced, options.max_nodes);
    return solver.Solve();
  }
  ShannonDnfSolver solver(g, reduced, options.max_nodes);
  return solver.Solve();
}

}  // namespace pgsim
