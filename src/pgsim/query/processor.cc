#include "pgsim/query/processor.h"

#include <algorithm>
#include <memory>
#include <mutex>

#include "pgsim/common/fingerprint.h"
#include "pgsim/common/task_scheduler.h"
#include "pgsim/query/batch_cache.h"

namespace pgsim {

namespace {

// Per-candidate verdict codes (QueryJob::verdicts).
constexpr uint8_t kVerifyFailed = 0;
constexpr uint8_t kVerifyReject = 1;
constexpr uint8_t kVerifyAccept = 2;
constexpr uint8_t kVerifyCancelled = 3;  ///< stopped at a cancellation point;
                                         ///< job->intervals[k] holds the
                                         ///< anytime [lo, hi]

}  // namespace

std::string QueryOptionsFingerprint(const QueryOptions& options) {
  Fingerprint fp;
  fp.AddU32(options.delta);
  fp.AddDouble(options.epsilon);
  fp.AddU64(options.relax.max_combinations);
  fp.AddU64(options.relax.max_relaxed_graphs);
  fp.AddU32(static_cast<uint32_t>(options.pruner.selection));
  fp.AddU32(static_cast<uint32_t>(options.pruner.sip_variant));
  fp.AddU32(static_cast<uint32_t>(options.pruner.lsim.gradient_iterations));
  fp.AddU32(static_cast<uint32_t>(options.pruner.lsim.projection_sweeps));
  fp.AddDouble(options.pruner.lsim.rounding_factor);
  fp.AddDouble(options.verifier.mc.xi);
  fp.AddDouble(options.verifier.mc.tau);
  fp.AddU64(options.verifier.mc.min_samples);
  fp.AddU64(options.verifier.mc.max_samples);
  fp.AddBool(options.verifier.adaptive);
  fp.AddU64(options.verifier.max_embeddings_per_rq);
  fp.AddU64(options.verifier.max_total_embeddings);
  fp.AddU64(options.verifier.exact.max_terms);
  fp.AddU64(options.verifier.exact.max_nodes);
  fp.AddU32(options.structural.max_count);
  fp.AddU32(options.structural.max_query_count);
  fp.AddBool(options.structural.exact_check);
  fp.AddBool(options.use_structural_filter);
  fp.AddBool(options.use_probabilistic_pruning);
  fp.AddU32(static_cast<uint32_t>(options.verify_mode));
  fp.AddU64(options.seed);
  return fp.bytes();
}

QueryProcessor::QueryProcessor(const std::vector<ProbabilisticGraph>* database,
                               const ProbabilisticMatrixIndex* pmi,
                               const StructuralFilter* structural,
                               const SignatureIndex* signatures)
    : database_(database), pmi_(pmi), structural_(structural) {
  if (database_ != nullptr) {
    for (const ProbabilisticGraph& g : *database_) {
      AccumulateVertexLabelFrequencies(g.certain(), &db_label_freq_);
    }
    // Alive view: everything serves, unless the PMI was loaded/mutated with
    // tombstones and aligns with the database — then inherit its view (and
    // its epoch), so a Save/Load'd mutated index keeps excluding removed
    // graphs.
    alive_.assign(database_->size(), 1);
    uint32_t alive_count = static_cast<uint32_t>(database_->size());
    if (pmi_ != nullptr && pmi_->num_graphs() == database_->size()) {
      for (uint32_t gi = 0; gi < pmi_->num_graphs(); ++gi) {
        if (!pmi_->IsAlive(gi)) {
          alive_[gi] = 0;
          --alive_count;
        }
      }
      // Dead graphs' labels must not steer plan seed ordering.
      for (uint32_t gi = 0; gi < pmi_->num_graphs(); ++gi) {
        if (alive_[gi]) continue;
        for (LabelId l : (*database_)[gi].certain().VertexLabels()) {
          --db_label_freq_[l];
        }
      }
    }
    num_alive_.store(alive_count, std::memory_order_release);
  }
  if (pmi_ != nullptr) {
    epoch_.store(pmi_->epoch(), std::memory_order_release);
  }
  // Signature index: serve the caller's, or build an owned one over the
  // database (cheap — one adjacency pass per graph) and inherit the same
  // tombstone view as above so Compact renumbering stays aligned.
  if (signatures != nullptr) {
    sigs_ = signatures;
  } else if (database_ != nullptr) {
    owned_sigs_ = std::make_unique<SignatureIndex>(
        SignatureIndex::Build(*database_));
    for (uint32_t gi = 0; gi < alive_.size(); ++gi) {
      if (alive_[gi] == 0) (void)owned_sigs_->RemoveGraph(gi);
    }
    sigs_ = owned_sigs_.get();
  }
}

QueryProcessor::QueryProcessor(std::vector<ProbabilisticGraph>* database,
                               ProbabilisticMatrixIndex* pmi,
                               StructuralFilter* structural,
                               SignatureIndex* signatures)
    : QueryProcessor(
          static_cast<const std::vector<ProbabilisticGraph>*>(database),
          static_cast<const ProbabilisticMatrixIndex*>(pmi),
          static_cast<const StructuralFilter*>(structural),
          static_cast<const SignatureIndex*>(signatures)) {
  mutable_database_ = database;
  mutable_pmi_ = pmi;
  mutable_structural_ = structural;
  mutable_sigs_ = signatures != nullptr ? signatures : owned_sigs_.get();
}

// ---------------------------------------------------------------------------
// Live mutation API. Each call takes the serving lock exclusively: it waits
// for in-flight queries, applies the mutation to every structure, bumps the
// epoch, and returns — queries admitted afterwards see the new state
// atomically, and the answer cache drops pre-mutation entries on epoch
// mismatch.
// ---------------------------------------------------------------------------

Result<uint32_t> QueryProcessor::AddGraph(const ProbabilisticGraph& graph,
                                          uint64_t seed) {
  if (mutable_database_ == nullptr) {
    return Status::InvalidArgument(
        "AddGraph: processor was built over const structures (read-only)");
  }
  std::unique_lock<std::shared_mutex> lock(live_mu_);
  const uint32_t graph_id = static_cast<uint32_t>(mutable_database_->size());
  std::vector<uint32_t> contained;
  if (mutable_pmi_ != nullptr) {
    PGSIM_ASSIGN_OR_RETURN(
        const uint32_t pmi_id,
        mutable_pmi_->AddGraph(graph, mutable_pmi_->sip_options(), seed,
                               &contained));
    if (pmi_id != graph_id) {
      return Status::Internal("AddGraph: PMI and database ids diverged");
    }
  }
  if (mutable_structural_ != nullptr) {
    const uint32_t filter_id = mutable_structural_->AddGraph(
        graph.certain(), mutable_pmi_ != nullptr ? &contained : nullptr);
    if (filter_id != graph_id) {
      return Status::Internal("AddGraph: filter and database ids diverged");
    }
  }
  if (mutable_sigs_ != nullptr) {
    const uint32_t sig_id = mutable_sigs_->AddGraph(graph.certain());
    if (sig_id != graph_id) {
      return Status::Internal(
          "AddGraph: signature index and database ids diverged");
    }
  }
  mutable_database_->push_back(graph);
  AccumulateVertexLabelFrequencies(graph.certain(), &db_label_freq_);
  alive_.push_back(1);
  num_alive_.fetch_add(1, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  return graph_id;
}

Status QueryProcessor::RemoveGraph(uint32_t graph_id) {
  if (mutable_database_ == nullptr) {
    return Status::InvalidArgument(
        "RemoveGraph: processor was built over const structures (read-only)");
  }
  std::unique_lock<std::shared_mutex> lock(live_mu_);
  if (graph_id >= alive_.size() || alive_[graph_id] == 0) {
    return Status::InvalidArgument(
        "RemoveGraph: graph id out of range or already removed");
  }
  if (mutable_pmi_ != nullptr) {
    PGSIM_RETURN_NOT_OK(mutable_pmi_->RemoveGraph(graph_id));
  }
  if (mutable_structural_ != nullptr) {
    PGSIM_RETURN_NOT_OK(mutable_structural_->RemoveGraph(graph_id));
  }
  if (mutable_sigs_ != nullptr) {
    PGSIM_RETURN_NOT_OK(mutable_sigs_->RemoveGraph(graph_id));
  }
  // Exact label-frequency rollback: an add→remove round trip restores the
  // frequencies byte-identically, so compiled plans — and therefore every
  // answer — match the pre-mutation state bit for bit.
  for (LabelId l : (*mutable_database_)[graph_id].certain().VertexLabels()) {
    --db_label_freq_[l];
  }
  alive_[graph_id] = 0;
  num_alive_.fetch_sub(1, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  // Auto-compaction: reclaim once tombstones dominate. The extra epoch bump
  // from CompactLocked() is correct — compaction renumbers ids.
  const size_t tombstones =
      alive_.size() - num_alive_.load(std::memory_order_relaxed);
  if (tombstones >= 16 && tombstones * 2 >= alive_.size()) {
    CompactLocked();
  }
  return Status::OK();
}

void QueryProcessor::Compact() {
  if (mutable_database_ == nullptr) return;
  std::unique_lock<std::shared_mutex> lock(live_mu_);
  CompactLocked();
}

void QueryProcessor::CompactLocked() {
  const uint32_t alive_count = num_alive_.load(std::memory_order_relaxed);
  if (alive_count == alive_.size()) return;
  if (mutable_pmi_ != nullptr) mutable_pmi_->Compact();
  if (mutable_structural_ != nullptr) mutable_structural_->Compact();
  if (mutable_sigs_ != nullptr) mutable_sigs_->Compact();
  // All three structures renumber identically: alive ids shift down by the
  // number of dead slots below them.
  auto& db = *mutable_database_;
  size_t write = 0;
  for (size_t read = 0; read < db.size(); ++read) {
    if (alive_[read] == 0) continue;
    if (write != read) db[write] = std::move(db[read]);
    ++write;
  }
  db.resize(write);
  alive_.assign(write, 1);
  num_alive_.store(static_cast<uint32_t>(write), std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Decomposed pipeline stages. Sequential Query(), the chunked batch path
// (through Query()) and the stealing batch path all execute exactly these —
// one code path for the order-sensitive work is what keeps answers
// bit-identical across schedulers.
// ---------------------------------------------------------------------------

Status QueryProcessor::FrontStagesImpl(const Graph& q,
                                       const QueryOptions& options,
                                       QueryContext* ctx,
                                       QueryJob* job) const {
  const auto& db = *database_;
  QueryStats& local = job->stats;
  local.database_size = db.size();

  if (options.delta >= q.NumEdges()) {
    // dis(q, g') <= |E(q)| <= delta for every world: SSP = 1 for every
    // graph that is still alive.
    for (uint32_t i = 0; i < db.size(); ++i) {
      if (alive_[i]) job->answers.push_back(i);
    }
    return Status::OK();
  }

  // ---- Cross-batch answer cache probe (see answer_cache.h). ----
  // A hit returns the whole answer set computed under this exact epoch +
  // options fingerprint; every stage below is skipped. The wiring is copied
  // into the job so FinishQuery can fill the slot after a miss.
  if (ctx->answer_cache != nullptr && ctx->answer_fingerprint != nullptr) {
    WallTimer cache_timer;
    job->answer_cache = ctx->answer_cache;
    job->answer_epoch = ctx->answer_epoch;
    job->answer_probe =
        ctx->answer_cache->Find(q, *ctx->answer_fingerprint, ctx->answer_epoch);
    local.cache_seconds += cache_timer.Seconds();
    if (job->answer_probe.hit) {
      job->answers = *job->answer_probe.answers;
      local.answer_cache_hit = true;
      return Status::OK();
    }
  }

  // Cancellation points: one relaxed load at every stage boundary (and per
  // candidate inside the stage-2 loop / per draw inside the sampler). A
  // query cancelled before its candidates are known unwinds with whatever
  // partial state exists; FinishQuery reports it as cancelled and never
  // caches it. The answer-cache probe above deliberately runs first — a hit
  // is exact and effectively free, so even an expired query serves it.
  const CancelState* cancel = job->cancel;
  const auto cancelled_now = [&]() {
    if (cancel == nullptr || !cancel->IsCancelled()) return false;
    job->cancelled.store(true, std::memory_order_relaxed);
    return true;
  };
  if (cancelled_now()) return Status::OK();

  // ---- Batch cache probe (canonical + exact keys). ----
  BatchQueryCache::Lookup cached;
  if (ctx->cache != nullptr) {
    WallTimer cache_timer;
    cached = ctx->cache->Find(q);
    local.cache_seconds += cache_timer.Seconds();
  }

  // ---- Relaxation: U = {rq1..rqa}. ----
  // A cache hit substitutes the memoized set (byte-identical to what this
  // query would generate — see batch_cache.h); a cacheable miss generates
  // into a shared vector and publishes it for the rest of the batch.
  WallTimer relax_timer;
  if (cached.relaxed != nullptr) {
    local.relax_cache_hit = true;
    job->relaxed_hold = cached.relaxed;
    job->relaxed = job->relaxed_hold.get();
  } else if (cached.cacheable) {
    auto generated = std::make_shared<std::vector<Graph>>();
    PGSIM_RETURN_NOT_OK(GenerateRelaxedQueriesInto(q, options.delta,
                                                   options.relax,
                                                   generated.get()));
    job->relaxed_hold = std::move(generated);
    job->relaxed = job->relaxed_hold.get();
    ctx->cache->StoreRelaxed(cached, job->relaxed_hold);
  } else {
    PGSIM_RETURN_NOT_OK(GenerateRelaxedQueriesInto(q, options.delta,
                                                   options.relax,
                                                   &job->relaxed_storage));
    job->relaxed = &job->relaxed_storage;
  }
  const std::vector<Graph>& relaxed = *job->relaxed;
  local.num_relaxed_queries = relaxed.size();
  local.relax_seconds = relax_timer.Seconds();
  if (cancelled_now()) return Status::OK();

  // ---- Relaxed-query match plans. ----
  // One compiled MatchPlan per rq, seeded rarest-database-label-first,
  // shared by the filter's exact check, the pruner's PrepareQuery, and
  // every stage-3 candidate — and reused across byte-identical queries
  // through the batch cache (a pure function of U + the processor's fixed
  // label frequencies, so the exact-key tier applies).
  if (cached.plans != nullptr) {
    job->plans_hold = cached.plans;
    job->rq_plans = job->plans_hold.get();
  } else {
    MatchPlanOptions plan_options;
    plan_options.label_freq = &db_label_freq_;
    job->plans_storage.clear();
    job->plans_storage.reserve(relaxed.size());
    for (const Graph& rq : relaxed) {
      job->plans_storage.push_back(CompileMatchPlan(rq, plan_options));
    }
    if (cached.cacheable) {
      job->plans_hold = std::make_shared<const std::vector<MatchPlan>>(
          std::move(job->plans_storage));
      job->plans_storage.clear();
      job->rq_plans = job->plans_hold.get();
      ctx->cache->StorePlans(cached, job->plans_hold);
    } else {
      job->rq_plans = &job->plans_storage;
    }
  }

  // ---- Relaxed-query vertex signatures (the gate's pattern side). ----
  // One QuerySignature per rq, compiled once per query and reused for every
  // candidate by the filter exact check and stage 3. A pure function of U's
  // exact form, so the exact-key cache tier applies (same sharing scheme as
  // the plans above). job->rq_sigs stays null with signatures off — every
  // downstream gate keys off that.
  if (options.use_signatures && sigs_ != nullptr) {
    if (cached.sigs != nullptr) {
      job->sigs_hold = cached.sigs;
      job->rq_sigs = job->sigs_hold.get();
    } else {
      job->sigs_storage.clear();
      job->sigs_storage.reserve(relaxed.size());
      for (const Graph& rq : relaxed) {
        job->sigs_storage.push_back(BuildQuerySignature(rq));
      }
      if (cached.cacheable) {
        job->sigs_hold = std::make_shared<const std::vector<QuerySignature>>(
            std::move(job->sigs_storage));
        job->sigs_storage.clear();
        job->rq_sigs = job->sigs_hold.get();
        ctx->cache->StoreSigs(cached, job->sigs_hold);
      } else {
        job->rq_sigs = &job->sigs_storage;
      }
    }
  }

  // ---- Stage 1: structural pruning (Theorem 1). ----
  WallTimer structural_timer;
  std::vector<uint32_t>& sc_q = job->structural_candidates;
  if (options.use_structural_filter && structural_ != nullptr) {
    const QueryFeatureCounts* counts = cached.counts.get();
    local.counts_cache_hit = counts != nullptr;
    std::shared_ptr<QueryFeatureCounts> computed;
    if (cached.cacheable && counts == nullptr) {
      computed = std::make_shared<QueryFeatureCounts>();
    }
    structural_->Filter(q, relaxed, options.delta, &sc_q,
                        &ctx->filter_scratch, &local.structural_detail, counts,
                        computed.get(), job->rq_plans,
                        job->rq_sigs != nullptr ? sigs_ : nullptr,
                        job->rq_sigs);
    if (computed != nullptr) {
      ctx->cache->StoreCounts(cached, std::move(computed));
    }
    // The exact check's signature rejections are whole VF2 calls avoided.
    local.sig_pairs_rejected += local.structural_detail.sig_pairs_rejected;
    local.domain_candidates_pruned +=
        local.structural_detail.domain_candidates_pruned;
    local.vf2_calls_avoided += local.structural_detail.sig_pairs_rejected;
  } else {
    for (uint32_t i = 0; i < db.size(); ++i) {
      if (alive_[i]) sc_q.push_back(i);
    }
  }
  local.structural_candidates = sc_q.size();
  local.structural_seconds = structural_timer.Seconds();
  if (cancelled_now()) return Status::OK();

  // ---- Stage 2: probabilistic pruning (Theorems 3-4). ----
  WallTimer prob_timer;
  Rng& rng = ctx->rng;
  std::vector<uint32_t>& to_verify = job->to_verify;
  if (options.use_probabilistic_pruning && pmi_ != nullptr) {
    ProbabilisticPruner pruner(pmi_, options.pruner);
    if (cached.prepared != nullptr) {
      local.prepared_cache_hit = true;
      pruner.PrepareFromCache(cached.prepared);
    } else {
      pruner.PrepareQuery(relaxed, job->rq_plans);
      if (cached.cacheable) {
        ctx->cache->StorePrepared(cached, pruner.SharePrepared());
      }
    }
    for (size_t ci = 0; ci < sc_q.size(); ++ci) {
      if (cancelled_now()) {
        // The unpruned tail goes to verification anyway: each of those
        // candidates' verify tasks observes the cancel immediately and
        // records the unknown [0, 1] interval, so every structural
        // candidate is accounted for in the degraded answer.
        to_verify.insert(to_verify.end(), sc_q.begin() + ci, sc_q.end());
        break;
      }
      const uint32_t gi = sc_q[ci];
      const PruneDecision d =
          pruner.Evaluate(gi, options.epsilon, &rng, &ctx->pruner_scratch);
      switch (d.outcome) {
        case PruneOutcome::kPruned:
          ++local.pruned_by_upper;
          break;
        case PruneOutcome::kAccepted:
          ++local.accepted_by_lower;
          job->answers.push_back(gi);
          break;
        case PruneOutcome::kCandidate:
          to_verify.push_back(gi);
          break;
      }
    }
  } else {
    to_verify = sc_q;
  }
  local.verification_candidates = to_verify.size();
  local.prob_seconds = prob_timer.Seconds();

  // ---- Stage 3 setup: pre-fork per-candidate RNGs. ----
  // Sequential forks in candidate order pin every candidate's random draws
  // before any verification runs, so verdicts are independent of which
  // worker (or steal schedule) executes each candidate.
  job->verify_rngs.reserve(to_verify.size());
  for (size_t k = 0; k < to_verify.size(); ++k) {
    job->verify_rngs.push_back(rng.Fork());
  }
  job->verdicts.assign(to_verify.size(), kVerifyFailed);
  job->intervals.assign(to_verify.size(), SampleOutcome());
  return Status::OK();
}

void QueryProcessor::RunFrontStages(const Graph& q,
                                    const QueryOptions& options,
                                    QueryContext* ctx, QueryJob* job) const {
  job->Clear();
  job->query = &q;
  job->cancel = ctx->cancel;
  job->cancel_after_draws = ctx->cancel_after_draws;
  job->total_timer.Restart();
  ctx->Reset(options.seed);
  job->status = FrontStagesImpl(q, options, ctx, job);
  job->verify_timer.Restart();
}

void QueryProcessor::VerifyCandidate(const QueryOptions& options,
                                     QueryJob* job, size_t k,
                                     VerifierScratch* scratch) const {
  const auto& db = *database_;
  const uint32_t gi = job->to_verify[k];
  // Signature gate: present only when FrontStagesImpl compiled rq signatures
  // (use_signatures on and an index exists). The gate never changes the
  // similarity events, so verdicts are identical with it on or off.
  SignatureGate gate;
  const SignatureGate* gate_ptr = nullptr;
  if (job->rq_sigs != nullptr && sigs_ != nullptr) {
    gate.target = sigs_->ForGraph(gi);
    gate.rq = job->rq_sigs;
    gate_ptr = &gate;
  }
  const auto accumulate_gate_counters = [job, scratch] {
    job->sig_pairs_rejected.fetch_add(scratch->sig_pairs_rejected,
                                      std::memory_order_relaxed);
    job->domain_candidates_pruned.fetch_add(scratch->domain_candidates_pruned,
                                            std::memory_order_relaxed);
    job->vf2_calls_avoided.fetch_add(scratch->vf2_calls_avoided,
                                     std::memory_order_relaxed);
  };
  if (options.verify_mode == QueryOptions::VerifyMode::kExact) {
    // The exact DNF engine has no internal cancellation points; honor the
    // token at candidate granularity.
    if (job->cancel != nullptr && job->cancel->IsCancelled()) {
      job->verdicts[k] = kVerifyCancelled;
      job->intervals[k].completed = false;  // nothing known: [0, 1]
      job->cancelled.store(true, std::memory_order_relaxed);
      return;
    }
    const Result<double> ssp = ExactSubgraphSimilarityProbability(
        db[gi], *job->relaxed, options.verifier, scratch, job->rq_plans,
        gate_ptr);
    accumulate_gate_counters();
    if (!ssp.ok()) {
      job->verdicts[k] = kVerifyFailed;
    } else {
      job->verdicts[k] =
          ssp.value() >= options.epsilon ? kVerifyAccept : kVerifyReject;
    }
    return;
  }
  SampleControl control;
  control.cancel = job->cancel;
  control.cancel_after_draws = job->cancel_after_draws;
  const Result<SampleOutcome> out = SampleSubgraphSimilarityProbabilityAnytime(
      db[gi], *job->relaxed, options.verifier, &job->verify_rngs[k], scratch,
      job->rq_plans, control, gate_ptr);
  accumulate_gate_counters();
  if (!out.ok()) {
    job->verdicts[k] = kVerifyFailed;
  } else if (!out->completed) {
    job->verdicts[k] = kVerifyCancelled;
    job->intervals[k] = *out;
    job->cancelled.store(true, std::memory_order_relaxed);
  } else {
    job->verdicts[k] =
        out->estimate >= options.epsilon ? kVerifyAccept : kVerifyReject;
  }
}

void QueryProcessor::FinishQuery(QueryJob* job) const {
  QueryStats& local = job->stats;
  if (job->status.ok()) {
    for (size_t k = 0; k < job->to_verify.size(); ++k) {
      switch (job->verdicts[k]) {
        case kVerifyFailed:
          ++local.verification_failures;
          break;
        case kVerifyAccept:
          job->answers.push_back(job->to_verify[k]);
          break;
        case kVerifyCancelled:
          ++local.cancelled_candidates;
          break;
        default:
          break;
      }
    }
    std::sort(job->answers.begin(), job->answers.end());
    local.answers = job->answers.size();
  }
  // The filter's share of the signature counters was folded in at stage 1;
  // stage 3's share was accumulated per-candidate into the job atomics.
  local.sig_pairs_rejected +=
      job->sig_pairs_rejected.load(std::memory_order_relaxed);
  local.domain_candidates_pruned +=
      job->domain_candidates_pruned.load(std::memory_order_relaxed);
  local.vf2_calls_avoided +=
      job->vf2_calls_avoided.load(std::memory_order_relaxed);
  local.verify_seconds = job->verify_timer.Seconds();
  local.total_seconds = job->total_timer.Seconds();
  // Fill the answer-cache slot this query's probe addressed (no-op on a hit
  // or an uncacheable probe). The epoch was captured under the serving lock
  // the answers were computed at, so a concurrent mutation can never store
  // pre-mutation answers under a post-mutation epoch. A cancelled run never
  // stores: its answer set is partial (a degraded interval answer must not
  // be served later as an exact one).
  if (job->status.ok() && job->answer_cache != nullptr &&
      !job->cancelled.load(std::memory_order_relaxed) &&
      job->answer_probe.cacheable && !job->answer_probe.hit) {
    job->answer_cache->Store(job->answer_probe, job->answer_epoch,
                             job->answers);
  }
}

// ---------------------------------------------------------------------------
// Sequential entry points. The public overloads take the serving lock shared
// (so mutations wait for them and vice versa); QueryImpl is the lock-free
// body the batch schedulers call under the batch-held shared lock — a worker
// re-acquiring the same shared_mutex would be UB.
// ---------------------------------------------------------------------------

Result<std::vector<uint32_t>> QueryProcessor::Query(
    const Graph& q, const QueryOptions& options, QueryStats* stats) const {
  QueryContext ctx;
  return Query(q, options, &ctx, stats);
}

Result<std::vector<uint32_t>> QueryProcessor::Query(
    const Graph& q, const QueryOptions& options, QueryContext* ctx,
    QueryStats* stats) const {
  std::shared_lock<std::shared_mutex> lock(live_mu_);
  return QueryImpl(q, options, ctx, stats);
}

Result<std::vector<uint32_t>> QueryProcessor::QueryImpl(
    const Graph& q, const QueryOptions& options, QueryContext* ctx,
    QueryStats* stats) const {
  QueryJob& job = ctx->job;
  RunFrontStages(q, options, ctx, &job);
  if (!job.status.ok()) return job.status;

  // ---- Stage 3: verification (Section 5). ----
  // Candidates verify independently against pre-forked RNGs and per-rank
  // scratch; verdicts merge in candidate order (FinishQuery). Answers are
  // therefore byte-identical at every verify_threads setting.
  const size_t n = job.to_verify.size();
  const uint32_t verify_threads = options.verify_threads == 0
                                      ? ThreadPool::DefaultThreads()
                                      : options.verify_threads;
  ThreadPool* verify_pool = n > 1 ? ctx->VerifyPool(verify_threads) : nullptr;
  if (verify_pool == nullptr) {
    for (size_t k = 0; k < n; ++k) {
      VerifyCandidate(options, &job, k, &ctx->verifier_scratch);
    }
  } else {
    ctx->verify_scratches.resize(verify_pool->size());
    verify_pool->ParallelFor(n, /*chunk=*/1,
                             [&](uint32_t rank, size_t begin, size_t end) {
                               for (size_t k = begin; k < end; ++k) {
                                 VerifyCandidate(options, &job, k,
                                                 &ctx->verify_scratches[rank]);
                               }
                             });
  }

  FinishQuery(&job);
  if (stats != nullptr) *stats = job.stats;
  return job.answers;
}

// ---------------------------------------------------------------------------
// Stealing batch runner: one query -> a front-stages root task + ceil(n /
// task_grain) verification tasks. The root runs stages 0-2 on whichever
// worker claims it, then spawns the verification range tasks onto that
// worker's own deque (newest-first, so the spawning worker proceeds with
// warm caches while idle workers steal from the other end). The last
// verification task to finish — whoever executes it — merges verdicts and
// publishes the result slot.
// ---------------------------------------------------------------------------

struct StealingBatchRunner {
  struct Job {
    QueryJob job;
    std::atomic<uint32_t> remaining{0};  ///< outstanding verification tasks
    StealingBatchRunner* run = nullptr;
    uint32_t qi = 0;
  };

  explicit StealingBatchRunner(size_t num_queries) : jobs(num_queries) {}

  static void QueryTask(void* ctx, uint32_t worker, uint32_t /*a*/,
                        uint32_t /*b*/) {
    Job* j = static_cast<Job*>(ctx);
    StealingBatchRunner* run = j->run;
    QueryContext* qctx = run->sched->WorkerState<QueryContext>(worker);
    qctx->cache = run->cache;
    qctx->answer_cache = run->answer_cache;
    qctx->answer_fingerprint = run->answer_fp;
    qctx->answer_epoch = run->answer_epoch;
    const double queue_wait = run->batch_timer->Seconds();
    run->front_inflight.fetch_add(1, std::memory_order_relaxed);
    run->proc->RunFrontStages((*run->queries)[j->qi], *run->options, qctx,
                              &j->job);
    run->front_inflight.fetch_sub(1, std::memory_order_relaxed);
    j->job.stats.queue_wait_seconds = queue_wait;

    const size_t n = j->job.to_verify.size();
    if (!j->job.status.ok() || n == 0) {
      run->Finish(j);
      return;
    }
    const size_t grain = run->task_grain == 0 ? 1 : run->task_grain;
    const size_t num_tasks = (n + grain - 1) / grain;
    j->remaining.store(static_cast<uint32_t>(num_tasks),
                       std::memory_order_relaxed);
    // Reverse spawn order: the owner pops its deque LIFO, so candidate 0's
    // range runs next on this worker while thieves steal from the tail.
    for (size_t t = num_tasks; t-- > 0;) {
      TaskScheduler::Task task;
      task.fn = &VerifyTask;
      task.ctx = j;
      task.a = static_cast<uint32_t>(t * grain);
      task.b = static_cast<uint32_t>(std::min(n, (t + 1) * grain));
      run->sched->Spawn(worker, task);
    }
  }

  static void VerifyTask(void* ctx, uint32_t worker, uint32_t a, uint32_t b) {
    Job* j = static_cast<Job*>(ctx);
    StealingBatchRunner* run = j->run;
    if (run->front_inflight.load(std::memory_order_relaxed) > 0) {
      // Stage-level pipelining observed: some other query is still in its
      // front stages while this verification unit runs.
      run->overlapped_verify.fetch_add(1, std::memory_order_relaxed);
    }
    QueryContext* qctx = run->sched->WorkerState<QueryContext>(worker);
    for (uint32_t k = a; k < b; ++k) {
      run->proc->VerifyCandidate(*run->options, &j->job, k,
                                 &qctx->verifier_scratch);
    }
    // acq_rel: the last finisher must observe every other task's verdict
    // writes before merging.
    if (j->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      run->Finish(j);
    }
  }

  void Finish(Job* j) {
    proc->FinishQuery(&j->job);
    BatchQueryResult& slot = (*results)[j->qi];
    if (j->job.status.ok()) {
      slot.stats = j->job.stats;
      slot.answers = std::move(j->job.answers);
    } else {
      slot.status = j->job.status;
    }
  }

  const QueryProcessor* proc = nullptr;
  const std::vector<Graph>* queries = nullptr;
  const QueryOptions* options = nullptr;
  std::vector<BatchQueryResult>* results = nullptr;
  BatchQueryCache* cache = nullptr;
  AnswerCache* answer_cache = nullptr;
  const std::string* answer_fp = nullptr;
  uint64_t answer_epoch = 0;
  TaskScheduler* sched = nullptr;
  size_t task_grain = 1;
  const WallTimer* batch_timer = nullptr;
  std::vector<Job> jobs;
  std::atomic<uint32_t> front_inflight{0};
  std::atomic<uint64_t> overlapped_verify{0};
};

std::vector<BatchQueryResult> QueryProcessor::QueryBatchStealing(
    const std::vector<Graph>& queries, const QueryOptions& options,
    const BatchOptions& batch, BatchQueryCache* cache,
    const AnswerCacheWiring& answers, uint32_t num_threads,
    const WallTimer& batch_timer, uint32_t* threads_used,
    BatchStats* batch_stats) const {
  std::unique_ptr<TaskScheduler> owned;
  TaskScheduler* sched = batch.stealer;
  if (sched == nullptr) {
    owned = batch.pool != nullptr
                ? std::make_unique<TaskScheduler>(batch.pool)
                : std::make_unique<TaskScheduler>(num_threads);
    sched = owned.get();
  }
  *threads_used = sched->num_workers();

  std::vector<BatchQueryResult> results(queries.size());
  StealingBatchRunner run(queries.size());
  run.proc = this;
  run.queries = &queries;
  run.options = &options;
  run.results = &results;
  run.cache = cache;
  run.answer_cache = answers.cache;
  run.answer_fp = answers.fingerprint;
  run.answer_epoch = answers.epoch;
  run.sched = sched;
  run.task_grain = batch.task_grain;
  run.batch_timer = &batch_timer;

  std::vector<TaskScheduler::Task> roots(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    run.jobs[qi].run = &run;
    run.jobs[qi].qi = static_cast<uint32_t>(qi);
    roots[qi].fn = &StealingBatchRunner::QueryTask;
    roots[qi].ctx = &run.jobs[qi];
  }
  const SchedulerRunStats sched_stats = sched->Run(roots, /*root_chunk=*/1);

  if (batch_stats != nullptr) {
    batch_stats->tasks_executed = sched_stats.tasks_executed;
    batch_stats->tasks_stolen = sched_stats.tasks_stolen;
    batch_stats->steal_attempts = sched_stats.steal_attempts;
    batch_stats->max_queue_depth = sched_stats.max_queue_depth;
    batch_stats->overlapped_verify_tasks =
        run.overlapped_verify.load(std::memory_order_relaxed);
  }
  return results;
}

// ---------------------------------------------------------------------------
// Chunked batch runner (the original parallel-for path).
// ---------------------------------------------------------------------------

std::vector<BatchQueryResult> QueryProcessor::QueryBatchChunked(
    const std::vector<Graph>& queries, const QueryOptions& options,
    const BatchOptions& batch, BatchQueryCache* cache,
    const AnswerCacheWiring& answers, uint32_t num_threads,
    uint32_t* threads_used) const {
  std::vector<BatchQueryResult> results(queries.size());

  const auto wire = [&](QueryContext* ctx) {
    ctx->cache = cache;
    ctx->answer_cache = answers.cache;
    ctx->answer_fingerprint = answers.fingerprint;
    ctx->answer_epoch = answers.epoch;
  };

  // Each slot is written by exactly one worker; each worker reruns the
  // pipeline from options.seed, so answers match sequential Query exactly.
  // QueryImpl, not Query: the batch already holds the serving lock.
  auto run_one = [&](QueryContext* ctx, size_t qi) {
    BatchQueryResult& slot = results[qi];
    auto query_answers = QueryImpl(queries[qi], options, ctx, &slot.stats);
    if (query_answers.ok()) {
      slot.answers = std::move(query_answers).value();
    } else {
      slot.status = query_answers.status();
    }
  };

  *threads_used = num_threads;
  if (batch.pool == nullptr && (num_threads <= 1 || queries.size() <= 1)) {
    *threads_used = 1;
    QueryContext ctx;
    wire(&ctx);
    for (size_t qi = 0; qi < queries.size(); ++qi) run_one(&ctx, qi);
  } else {
    // Use the caller's pool when provided; otherwise spawn a transient one.
    std::unique_ptr<ThreadPool> owned;
    ThreadPool* pool = batch.pool;
    if (pool == nullptr) {
      owned = std::make_unique<ThreadPool>(num_threads);
      pool = owned.get();
    }
    std::vector<QueryContext> contexts(pool->size());
    for (QueryContext& ctx : contexts) wire(&ctx);
    pool->ParallelFor(queries.size(), batch.chunk_size,
                      [&](uint32_t rank, size_t begin, size_t end) {
                        for (size_t qi = begin; qi < end; ++qi) {
                          run_one(&contexts[rank], qi);
                        }
                      });
  }
  return results;
}

std::vector<BatchQueryResult> QueryProcessor::QueryBatch(
    const std::vector<Graph>& queries, const QueryOptions& options,
    const BatchOptions& batch, BatchStats* batch_stats) const {
  WallTimer wall_timer;
  // One shared serving lock for the WHOLE batch: every worker sees the same
  // frozen index state (and the same epoch), and a mutation either waits for
  // the batch or the batch sees it completely.
  std::shared_lock<std::shared_mutex> serving_lock(live_mu_);
  const uint32_t num_threads =
      ThreadPool::ResolveThreads(batch.num_threads, batch.pool);

  // One artifact cache for the whole batch (see batch_cache.h): workers
  // share relaxation sets and feature counts; answers stay bit-identical.
  std::unique_ptr<BatchQueryCache> cache;
  if (batch.enable_cache) cache = std::make_unique<BatchQueryCache>();

  // Cross-batch answer cache wiring: fingerprint once per batch, epoch read
  // under the serving lock above (it cannot move until the batch finishes).
  AnswerCacheWiring answers;
  std::string answer_fingerprint;
  AnswerCacheStats answer_before;
  if (batch.answer_cache != nullptr) {
    answer_fingerprint = QueryOptionsFingerprint(options);
    answers.cache = batch.answer_cache;
    answers.fingerprint = &answer_fingerprint;
    answers.epoch = epoch();
    answer_before = batch.answer_cache->stats();
  }

  // The stealing scheduler needs either an execution vehicle worth sharing
  // (a caller scheduler/pool) or genuine batch parallelism; a 1-thread,
  // no-pool batch runs the plain inline chunked path — answers are
  // bit-identical either way, so this is purely an overhead call.
  const bool use_stealing =
      batch.scheduler == BatchOptions::Scheduler::kStealing &&
      (batch.stealer != nullptr || batch.pool != nullptr ||
       (num_threads > 1 && queries.size() > 1));

  uint32_t threads_used = num_threads;
  BatchStats sched_counters;
  std::vector<BatchQueryResult> results =
      use_stealing
          ? QueryBatchStealing(queries, options, batch, cache.get(), answers,
                               num_threads, wall_timer, &threads_used,
                               &sched_counters)
          : QueryBatchChunked(queries, options, batch, cache.get(), answers,
                              num_threads, &threads_used);

  if (batch_stats != nullptr) {
    BatchStats agg;
    agg.num_queries = queries.size();
    agg.threads_used = threads_used;
    agg.tasks_executed = sched_counters.tasks_executed;
    agg.tasks_stolen = sched_counters.tasks_stolen;
    agg.steal_attempts = sched_counters.steal_attempts;
    agg.max_queue_depth = sched_counters.max_queue_depth;
    agg.overlapped_verify_tasks = sched_counters.overlapped_verify_tasks;
    for (const BatchQueryResult& r : results) {
      if (!r.status.ok()) {
        ++agg.failed_queries;
        continue;
      }
      agg.total_answers += r.answers.size();
      agg.structural_candidates += r.stats.structural_candidates;
      agg.pruned_by_upper += r.stats.pruned_by_upper;
      agg.accepted_by_lower += r.stats.accepted_by_lower;
      agg.verification_candidates += r.stats.verification_candidates;
      agg.sig_pairs_rejected += r.stats.sig_pairs_rejected;
      agg.domain_candidates_pruned += r.stats.domain_candidates_pruned;
      agg.vf2_calls_avoided += r.stats.vf2_calls_avoided;
      agg.sum_queue_wait_seconds += r.stats.queue_wait_seconds;
      agg.sum_query_seconds += r.stats.total_seconds;
      agg.cache_seconds += r.stats.cache_seconds;
    }
    if (cache != nullptr) {
      const BatchCacheStats cache_stats = cache->stats();
      agg.relax_cache_hits = cache_stats.relax_hits;
      agg.relax_cache_misses = cache_stats.relax_misses;
      agg.counts_cache_hits = cache_stats.counts_hits;
      agg.counts_cache_misses = cache_stats.counts_misses;
      agg.prepared_cache_hits = cache_stats.prepared_hits;
      agg.prepared_cache_misses = cache_stats.prepared_misses;
      agg.plans_cache_hits = cache_stats.plans_hits;
      agg.plans_cache_misses = cache_stats.plans_misses;
      agg.sigs_cache_hits = cache_stats.sigs_hits;
      agg.sigs_cache_misses = cache_stats.sigs_misses;
      agg.cache_uncacheable = cache_stats.uncacheable;
    }
    if (batch.answer_cache != nullptr) {
      const AnswerCacheStats after = batch.answer_cache->stats();
      agg.answer_cache_hits = after.hits - answer_before.hits;
      agg.answer_cache_misses = after.misses - answer_before.misses;
      agg.answer_cache_stale = after.stale - answer_before.stale;
      agg.answer_cache_evictions = after.evictions - answer_before.evictions;
    }
    agg.wall_seconds = wall_timer.Seconds();
    *batch_stats = agg;
  }
  return results;
}

Result<std::vector<uint32_t>> QueryProcessor::ExactScan(
    const Graph& q, const QueryOptions& options, QueryStats* stats) const {
  WallTimer total_timer;
  std::shared_lock<std::shared_mutex> lock(live_mu_);
  QueryStats local;
  const auto& db = *database_;
  local.database_size = db.size();

  if (options.delta >= q.NumEdges()) {
    std::vector<uint32_t> all;
    for (uint32_t i = 0; i < db.size(); ++i) {
      if (alive_[i]) all.push_back(i);
    }
    local.answers = all.size();
    local.total_seconds = total_timer.Seconds();
    if (stats != nullptr) *stats = local;
    return all;
  }

  WallTimer relax_timer;
  PGSIM_ASSIGN_OR_RETURN(
      const std::vector<Graph> relaxed,
      GenerateRelaxedQueries(q, options.delta, options.relax));
  local.num_relaxed_queries = relaxed.size();
  local.relax_seconds = relax_timer.Seconds();

  std::vector<uint32_t> answers;
  WallTimer verify_timer;
  for (uint32_t gi = 0; gi < db.size(); ++gi) {
    if (!alive_[gi]) continue;
    ++local.verification_candidates;
    const Result<double> ssp =
        ExactSubgraphSimilarityProbability(db[gi], relaxed, options.verifier);
    if (!ssp.ok()) {
      ++local.verification_failures;
      continue;
    }
    if (ssp.value() >= options.epsilon) answers.push_back(gi);
  }
  local.verify_seconds = verify_timer.Seconds();
  local.answers = answers.size();
  local.total_seconds = total_timer.Seconds();
  if (stats != nullptr) *stats = local;
  return answers;
}

}  // namespace pgsim
