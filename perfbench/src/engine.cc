#include "engine.h"

#include <algorithm>
#include <cstdio>

#include "pgsim/graph/relaxation.h"
#include "pgsim/graph/signature.h"
#include "pgsim/graph/vf2.h"
#include "pgsim/query/prob_pruner.h"
#include "pgsim/query/verifier.h"

namespace perfbench {

SyntheticOptions PpiData(size_t graphs, uint32_t labels, uint64_t seed) {
  SyntheticOptions data;
  data.num_graphs = graphs;
  data.avg_vertices = 14;
  data.edge_factor = 1.5;
  data.num_vertex_labels = labels;
  data.mean_edge_prob = 0.383;
  data.seed = seed;
  return data;
}

PmiBuildOptions PaperPmi() {
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

std::vector<ProbabilisticGraph> MakeDatabase(const SyntheticOptions& data,
                                             Outcome* out) {
  auto db = GenerateDatabase(data);
  if (!db.ok()) {
    out->Fail("GenerateDatabase: " + db.status().ToString());
    return {};
  }
  return std::move(db).value();
}

std::vector<Graph> MakeQueries(const std::vector<ProbabilisticGraph>& db,
                               uint32_t edges, size_t count, uint64_t seed,
                               Outcome* out) {
  auto queries = GenerateQueries(db, edges, count, seed);
  if (!queries.ok()) {
    out->Fail("GenerateQueries: " + queries.status().ToString());
    return {};
  }
  return std::move(queries).value();
}

uint32_t Width() { return std::min(4u, HostCpus()); }

void ReportLatency(const std::vector<double>& ms, Report* report) {
  report->Set("p50_ms", Percentile(ms, 50), "ms");
  report->Set("p99_ms", Percentile(ms, 99), "ms");
  report->Set("latency_samples", static_cast<double>(ms.size()), "count");
}

Graph PermuteVertices(const Graph& g, Rng* rng) {
  std::vector<VertexId> order(g.NumVertices());
  for (VertexId v = 0; v < order.size(); ++v) order[v] = v;
  rng->Shuffle(&order);
  // order[new] = old; map[old] = new.
  std::vector<VertexId> map(order.size());
  GraphBuilder builder;
  for (VertexId nv = 0; nv < order.size(); ++nv) {
    map[order[nv]] = builder.AddVertex(g.VertexLabel(order[nv]));
  }
  for (const Edge& e : g.Edges()) {
    (void)builder.AddEdge(map[e.u], map[e.v], e.label);
  }
  return builder.Build();
}

std::unique_ptr<Engine> BuildEngine(const std::vector<ProbabilisticGraph>& db,
                                    const PmiBuildOptions& build) {
  auto e = std::make_unique<Engine>();
  const Clock::time_point t0 = Clock::now();
  e->db = db;
  e->certain.reserve(e->db.size());
  for (const ProbabilisticGraph& g : e->db) e->certain.push_back(g.certain());
  const Clock::time_point t1 = Clock::now();
  e->pmi = ProbabilisticMatrixIndex::Build(e->db, build).value();
  const Clock::time_point t2 = Clock::now();
  e->filter = StructuralFilter::Build(e->certain, e->pmi.features());
  const Clock::time_point t3 = Clock::now();
  SignatureIndex::BuildOptions sig_options;
  sig_options.num_threads = 0;
  e->sigs = SignatureIndex::Build(e->db, sig_options);
  const Clock::time_point t4 = Clock::now();
  e->proc = std::make_unique<QueryProcessor>(&e->db, &e->pmi, &e->filter,
                                             &e->sigs);
  const Clock::time_point t5 = Clock::now();
  e->times.pmi = SecondsBetween(t1, t2);
  e->times.filter = SecondsBetween(t2, t3);
  e->times.sig = SecondsBetween(t3, t4);
  e->times.total = SecondsBetween(t0, t5);
  return e;
}

void ReportIndexBuilds(const std::vector<BuildTimes>& times,
                       const Engine& engine, Report* report) {
  std::vector<double> pmi, filter, sig;
  for (const BuildTimes& t : times) {
    pmi.push_back(t.pmi);
    filter.push_back(t.filter);
    sig.push_back(t.sig);
  }
  report->Set("pmi.build_s", Percentile(pmi, 50), "s");
  report->Set("filter.build_s", Percentile(filter, 50), "s");
  report->Set("sig.build_s", Percentile(sig, 50), "s");
  report->Set("pmi.features", static_cast<double>(engine.pmi.num_features()),
              "count");
}

std::unique_ptr<Engine> SetUpRepeatedly(
    const std::vector<ProbabilisticGraph>& db, const PmiBuildOptions& build,
    int repeats, Report* report) {
  std::unique_ptr<Engine> engine;
  std::vector<BuildTimes> times;
  std::vector<double> totals;
  for (int i = 0; i < repeats; ++i) {
    engine.reset();  // one engine alive at a time
    engine = BuildEngine(db, build);
    times.push_back(engine->times);
    totals.push_back(engine->times.total);
  }
  report->Set("setup_s", Percentile(totals, 50), "s");
  report->Set("setup.repeats", static_cast<double>(repeats), "count");
  ReportIndexBuilds(times, *engine, report);
  return engine;
}

void MeasureAnswerQuality(const QueryProcessor& proc,
                          const std::vector<Graph>& queries,
                          const QueryOptions& options, Outcome* out) {
  QueryOptions exact = options;
  exact.use_probabilistic_pruning = false;
  exact.verify_mode = QueryOptions::VerifyMode::kExact;
  size_t returned = 0, relevant = 0, hits = 0, skipped = 0, used = 0;
  for (const Graph& q : queries) {
    QueryStats truth_stats;
    auto truth = proc.Query(q, exact, &truth_stats);
    if (!truth.ok() || truth_stats.verification_failures > 0) {
      ++skipped;
      continue;
    }
    auto got = proc.Query(q, options);
    if (!got.ok()) {
      out->Fail("quality query failed: " + got.status().ToString());
      return;
    }
    ++used;
    returned += got->size();
    relevant += truth->size();
    std::vector<uint32_t> both;
    std::set_intersection(got->begin(), got->end(), truth->begin(),
                          truth->end(), std::back_inserter(both));
    hits += both.size();
  }
  if (used == 0 || relevant == 0 || returned == 0) {
    out->Fail("answer quality: no query with exact ground truth and answers");
    return;
  }
  out->report.Set("answer_precision",
                  static_cast<double>(hits) / static_cast<double>(returned),
                  "ratio");
  out->report.Set("answer_recall",
                  static_cast<double>(hits) / static_cast<double>(relevant),
                  "ratio");
  out->report.Set("quality.queries", static_cast<double>(used), "count");
  out->report.Set("quality.skipped", static_cast<double>(skipped), "count");
  out->report.Set("quality.exact_answers", static_cast<double>(relevant),
                  "count");
}

void LiveMutator::Step(Outcome* out) {
  auto graph = GenerateGraph(data_, &rng_);
  if (!graph.ok()) {
    out->Fail("mutation graph: " + graph.status().ToString());
    return;
  }
  // One sample is an add+remove pair: an add (SIP bounds for the new
  // column) costs far more than a remove (a tombstone), and pooling the two
  // would put the median on the gap between them.
  const Clock::time_point t0 = Clock::now();
  auto id = engine_->proc->AddGraph(*graph, seed_ + pair_ms_.size());
  const Status removed =
      id.ok() ? engine_->proc->RemoveGraph(*id) : id.status();
  pair_ms_.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
  out->attempted += 2;
  if (!removed.ok()) {
    ++out->failed;
    out->Fail("live mutation: " + removed.ToString());
  }
}

void LiveMutator::Report(Outcome* out) const {
  out->report.Set("mutation.p50_ms", Percentile(pair_ms_, 50), "ms");
  out->report.Set("mutation.p90_ms", Percentile(pair_ms_, 90), "ms");
  out->report.Set("mutation.samples", static_cast<double>(pair_ms_.size()),
                  "count");
}

void TracedReplay(const Engine& engine, const std::vector<Graph>& queries,
                  const QueryOptions& options, double budget_seconds,
                  const std::string& trace_path, Outcome* out) {
  Tracer tracer;
  std::vector<uint32_t> label_freq;
  for (const Graph& g : engine.certain) {
    AccumulateVertexLabelFrequencies(g, &label_freq);
  }
  MatchPlanOptions plan_options;
  plan_options.label_freq = &label_freq;
  const bool gated = options.use_signatures;

  StructuralFilterScratch filter_scratch;
  PrunerScratch pruner_scratch;
  VerifierScratch verifier_scratch;
  QueryContext ctx;

  // Per-layer tallies over the replayed queries.
  double untraced_seconds = 0.0, collect_seconds = 0.0, sample_seconds = 0.0;
  uint64_t relaxed_total = 0, survivors = 0, alive_total = 0, filter_vf2 = 0;
  uint64_t pruned = 0, accepted = 0, verified = 0, verify_answers = 0;
  uint64_t events = 0, draws = 0, matcher_calls = 0, matcher_base = 0;
  uint64_t sig_rejected = 0, vf2_avoided = 0;
  uint64_t pipe_verified = 0, pipe_answers = 0, replay_answers = 0;
  uint64_t answer_drift = 0;

  const Clock::time_point start = Clock::now();
  size_t replayed = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    if (SecondsBetween(start, Clock::now()) > budget_seconds) break;
    const Graph& q = queries[qi];

    // The pipeline's own, untraced run of the same query.
    QueryStats ps;
    const Clock::time_point p0 = Clock::now();
    auto pipe = engine.proc->Query(q, options, &ctx, &ps);
    untraced_seconds += SecondsBetween(p0, Clock::now());
    if (!pipe.ok()) {
      out->Fail("replay reference query: " + pipe.status().ToString());
      return;
    }

    ScopedSpan root(&tracer, "query", qi, -1);
    std::vector<Graph> relaxed;
    std::vector<MatchPlan> plans;
    std::vector<QuerySignature> rq_sigs;
    {
      ScopedSpan span(&tracer, "relax", qi, root.id());
      const Status st =
          GenerateRelaxedQueriesInto(q, options.delta, options.relax, &relaxed);
      if (!st.ok()) {
        out->Fail("replay relaxation: " + st.ToString());
        return;
      }
      plans.reserve(relaxed.size());
      for (const Graph& rq : relaxed) {
        plans.push_back(CompileMatchPlan(rq, plan_options));
        if (gated) rq_sigs.push_back(BuildQuerySignature(rq));
      }
    }
    relaxed_total += relaxed.size();

    std::vector<uint32_t> sc;
    StructuralFilterStats fstats;
    {
      ScopedSpan span(&tracer, "filter", qi, root.id());
      engine.filter.Filter(q, relaxed, options.delta, &sc, &filter_scratch,
                           &fstats, nullptr, nullptr, &plans,
                           gated ? &engine.sigs : nullptr,
                           gated ? &rq_sigs : nullptr);
    }
    if (sc.size() != ps.structural_candidates) {
      out->Fail("replay stage-1 survivors " + std::to_string(sc.size()) +
                " != pipeline structural_candidates " +
                std::to_string(ps.structural_candidates));
      return;
    }
    survivors += sc.size();
    alive_total += engine.filter.num_alive();
    filter_vf2 += fstats.isomorphism_tests;
    sig_rejected += fstats.sig_pairs_rejected;
    vf2_avoided += fstats.sig_pairs_rejected;

    Rng rng(options.seed);
    std::vector<uint32_t> to_verify, answers;
    {
      ScopedSpan span(&tracer, "prune", qi, root.id());
      ProbabilisticPruner pruner(&engine.pmi, options.pruner);
      pruner.PrepareQuery(relaxed, &plans);
      for (uint32_t gi : sc) {
        const PruneDecision d =
            pruner.Evaluate(gi, options.epsilon, &rng, &pruner_scratch);
        if (d.outcome == PruneOutcome::kPruned) {
          ++pruned;
        } else if (d.outcome == PruneOutcome::kAccepted) {
          ++accepted;
          answers.push_back(gi);
        } else {
          to_verify.push_back(gi);
        }
      }
    }

    {
      ScopedSpan verify(&tracer, "verify", qi, root.id());
      // Forked in candidate order, as the pipeline pre-forks them.
      std::vector<Rng> rngs;
      for (size_t k = 0; k < to_verify.size(); ++k) rngs.push_back(rng.Fork());
      for (size_t k = 0; k < to_verify.size(); ++k) {
        const uint32_t gi = to_verify[k];
        SignatureGate gate;
        gate.target = engine.sigs.ForGraph(gi);
        gate.rq = &rq_sigs;
        const SignatureGate* gate_ptr = gated ? &gate : nullptr;
        double collect_s = 0.0;
        {
          ScopedSpan span(&tracer, "collect", qi, verify.id());
          const Clock::time_point c0 = Clock::now();
          const Status st =
              CollectSimilarityEvents(engine.db[gi], relaxed, options.verifier,
                                      &verifier_scratch, &plans, gate_ptr);
          collect_s = SecondsBetween(c0, Clock::now());
          if (!st.ok()) continue;  // the pipeline counts it a failure too
        }
        collect_seconds += collect_s;
        events += verifier_scratch.events.size();
        matcher_base += relaxed.size();
        matcher_calls += relaxed.size() - verifier_scratch.vf2_calls_avoided;
        sig_rejected += verifier_scratch.sig_pairs_rejected;
        vf2_avoided += verifier_scratch.vf2_calls_avoided;
        ++verified;
        Result<SampleOutcome> sampled = Status::Internal("unset");
        {
          ScopedSpan span(&tracer, "sample", qi, verify.id());
          const Clock::time_point s0 = Clock::now();
          sampled = SampleSubgraphSimilarityProbabilityAnytime(
              engine.db[gi], relaxed, options.verifier, &rngs[k],
              &verifier_scratch, &plans, SampleControl{}, gate_ptr);
          // The sampler collects the events again before drawing; its own
          // share is what remains after the collection measured above.
          sample_seconds +=
              std::max(0.0, SecondsBetween(s0, Clock::now()) - collect_s);
        }
        if (!sampled.ok()) continue;
        draws += sampled->drawn;
        if (sampled->estimate >= options.epsilon) {
          answers.push_back(gi);
          ++verify_answers;
        }
      }
    }
    std::sort(answers.begin(), answers.end());
    std::vector<uint32_t> diff;
    std::set_symmetric_difference(answers.begin(), answers.end(),
                                  pipe->begin(), pipe->end(),
                                  std::back_inserter(diff));
    answer_drift += diff.size();
    pipe_verified += ps.verification_candidates;
    pipe_answers += pipe->size();
    replay_answers += answers.size();
    ++replayed;
  }
  if (replayed == 0) {
    out->Fail("traced replay ran no query");
    return;
  }

  const double n = static_cast<double>(replayed);
  std::vector<std::pair<std::string, double>> self = tracer.SelfSeconds();
  auto self_ms = [&](const std::string& name) {
    for (const auto& [k, v] : self) {
      if (k == name) return v * 1e3 / n;
    }
    return 0.0;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double traced_seconds = tracer.RootSeconds();
  Report& r = out->report;
  r.Set("relax.ms", self_ms("relax"), "ms");
  r.Set("relax.rq_per_query", static_cast<double>(relaxed_total) / n, "count");
  r.Set("filter.ms", self_ms("filter"), "ms");
  r.Set("filter.survivor_ratio", ratio(survivors, alive_total), "ratio");
  r.Set("filter.vf2_calls", static_cast<double>(filter_vf2) / n, "count");
  r.Set("prune.ms", self_ms("prune"), "ms");
  r.Set("prune.ratio", ratio(pruned + accepted, survivors), "ratio");
  r.Set("verify.collect_ms", collect_seconds * 1e3 / n, "ms");
  r.Set("verify.sample_ms", sample_seconds * 1e3 / n, "ms");
  r.Set("verify.candidates", static_cast<double>(verified) / n, "count");
  r.Set("verify.events_per_cand", ratio(events, verified), "count");
  r.Set("verify.draws_per_cand", ratio(draws, verified), "count");
  r.Set("verify.matcher_calls", static_cast<double>(matcher_calls) / n,
        "count");
  r.Set("verify.matcher_call_base", static_cast<double>(matcher_base) / n,
        "count");
  r.Set("verify.answer_ratio", ratio(verify_answers, verified), "ratio");
  r.Set("sig.pairs_rejected", static_cast<double>(sig_rejected) / n, "count");
  r.Set("sig.vf2_calls_avoided", static_cast<double>(vf2_avoided) / n,
        "count");
  r.Set("trace.queries", n, "count");
  r.Set("trace.spans", static_cast<double>(tracer.spans().size()), "count");
  r.Set("trace.query_ms", traced_seconds * 1e3 / n, "ms");
  r.Set("trace.untraced_query_ms", untraced_seconds * 1e3 / n, "ms");
  r.Set("trace.overhead_ms", (traced_seconds - untraced_seconds) * 1e3 / n,
        "ms");
  const double stage3 = collect_seconds + sample_seconds;
  const double front =
      (self_ms("relax") + self_ms("filter") + self_ms("prune")) * n / 1e3;
  r.Set("trace.stage3_share", ratio(stage3, stage3 + front), "ratio");
  r.Set("trace.front_share", ratio(front, stage3 + front), "ratio");
  // Stage 1 must match exactly (checked above); later stages are printed
  // beside the pipeline's own counters so drift is visible.
  r.Set("pipeline.verify_candidates", static_cast<double>(pipe_verified) / n,
        "count");
  r.Set("replay.answers", static_cast<double>(replay_answers) / n, "count");
  r.Set("pipeline.answers", static_cast<double>(pipe_answers) / n, "count");
  r.Set("replay.answer_drift", static_cast<double>(answer_drift), "count");
  if (!trace_path.empty() && !tracer.WriteChromeTrace(trace_path)) {
    out->Fail("cannot write spans to " + trace_path);
  }
}

}  // namespace perfbench
