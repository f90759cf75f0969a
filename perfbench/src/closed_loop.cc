// The two closed-loop workloads: paper-batch (QueryBatch at width 4) and
// label-rich (one client calling Query()).

#include <algorithm>
#include <cstdio>

#include "pgsim/common/task_scheduler.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSetupRepeats = 3;

void CheckAnswers(const std::vector<BatchQueryResult>& got,
                  const std::vector<std::vector<uint32_t>>& want,
                  const char* what, Outcome* out) {
  for (size_t i = 0; i < got.size() && i < want.size(); ++i) {
    if (!got[i].status.ok() || got[i].answers != want[i]) {
      out->Fail(std::string(what) + ": query " + std::to_string(i) +
                " differs from the width-1 Query() reference");
      return;
    }
  }
}

}  // namespace

Outcome RunPaperBatch(const RunConfig& config) {
  constexpr size_t kGraphs = 1000;
  constexpr uint32_t kQueryEdges = 6;
  constexpr size_t kBatchSize = 64;
  constexpr size_t kFresh = 48;  // distinct queries per batch
  constexpr size_t kHot = 4;     // of those, re-asked in the other slots
  constexpr size_t kBatches = 120;
  constexpr size_t kQualityQueries = 12;
  constexpr size_t kMutationsPerBatch = 4;  // add+remove pairs between batches

  Outcome out;
  const SyntheticOptions data = PpiData(kGraphs, 6, config.seed);
  const std::vector<ProbabilisticGraph> db = MakeDatabase(data, &out);
  if (!out.correct) return out;
  std::unique_ptr<Engine> engine =
      SetUpRepeatedly(db, PaperPmi(), kSetupRepeats, &out.report);
  const QueryProcessor& proc = *engine->proc;

  QueryOptions options;
  options.delta = 2;
  options.epsilon = 0.3;
  const std::vector<Graph> pool = MakeQueries(
      engine->db, kQueryEdges, kBatches * kFresh, config.seed + 1, &out);
  if (!out.correct) return out;

  // Each batch: kFresh distinct pool queries, plus a skewed share of slots
  // re-asking kHot of them, half as isomorphic relabelings, so both
  // batch-cache tiers (exact and canonical) see work. The hot queries change
  // from batch to batch, so no handful of queries dominates the run's cost.
  Rng rng(config.seed + 2);
  std::vector<double> zipf;
  for (size_t h = 0; h < kHot; ++h) zipf.push_back(1.0 / (h + 1.0));
  std::vector<std::vector<Graph>> batches(kBatches);
  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<Graph>& batch = batches[b];
    batch.assign(pool.begin() + b * kFresh, pool.begin() + (b + 1) * kFresh);
    while (batch.size() < kBatchSize) {
      const Graph& hot = batch[rng.Discrete(zipf)];
      batch.push_back(rng.Bernoulli(0.5) ? PermuteVertices(hot, &rng) : hot);
    }
    rng.Shuffle(&batch);
  }

  // Width-1 reference: sequential Query() over the first batch.
  std::vector<std::vector<uint32_t>> reference;
  {
    QueryContext ctx;
    for (const Graph& q : batches[0]) {
      auto r = proc.Query(q, options, &ctx);
      if (!r.ok()) {
        out.Fail("reference Query(): " + r.status().ToString());
        return out;
      }
      reference.push_back(std::move(r).value());
    }
  }

  const uint32_t width = Width();
  TaskScheduler sched(width);
  BatchOptions batch_options;
  batch_options.stealer = &sched;
  // Warm-up batch (scheduler scratch, allocator) doubles as the first check.
  CheckAnswers(proc.QueryBatch(batches[0], options, batch_options), reference,
               "warm-up batch", &out);

  // Measured closed loop: one batch after another until time is up, with
  // live add+remove pairs timed between batches.
  const double loop_seconds = config.trace ? config.seconds / 2 : config.seconds;
  LiveMutator mutator(engine.get(), data, config.seed + 3);
  std::vector<double> latency_ms;
  BatchStats sum;
  double wall = 0.0;
  size_t answers = 0, batches_run = 0;
  for (size_t i = 0; wall < loop_seconds; ++i) {
    const std::vector<Graph>& batch = batches[i % kBatches];
    BatchStats bs;
    const Clock::time_point t0 = Clock::now();
    std::vector<BatchQueryResult> results =
        proc.QueryBatch(batch, options, batch_options, &bs);
    wall += SecondsBetween(t0, Clock::now());
    ++batches_run;
    for (const BatchQueryResult& r : results) {
      ++out.attempted;
      if (!r.status.ok()) {
        ++out.failed;
        continue;
      }
      answers += r.answers.size();
      latency_ms.push_back(
          (r.stats.queue_wait_seconds + r.stats.total_seconds) * 1e3);
    }
    if (i % kBatches == 0) {
      CheckAnswers(results, reference, "width-4 QueryBatch", &out);
    }
    for (size_t m = 0; m < kMutationsPerBatch; ++m) mutator.Step(&out);
    sum.relax_cache_hits += bs.relax_cache_hits;
    sum.relax_cache_misses += bs.relax_cache_misses;
    sum.counts_cache_hits += bs.counts_cache_hits;
    sum.counts_cache_misses += bs.counts_cache_misses;
    sum.tasks_stolen += bs.tasks_stolen;
    sum.sum_queue_wait_seconds += bs.sum_queue_wait_seconds;
  }
  out.report.Set("peak_rss_mb", PeakRssMb(), "MiB");
  mutator.Report(&out);
  if (out.failed > 0) out.Fail("a batch query returned an error");
  if (answers == 0) out.Fail("paper-batch returned 0 answers");

  Report& r = out.report;
  const double n = static_cast<double>(latency_ms.size());
  r.Set("qps", n / wall, "1/s");
  ReportLatency(latency_ms, &r);
  r.Set("ok_frac", 1.0 - static_cast<double>(out.failed) / out.attempted,
        "ratio");
  r.Set("answers_per_query", static_cast<double>(answers) / n, "count");
  r.Set("batches", static_cast<double>(batches_run), "count");
  r.Set("width", width, "threads");
  const double cache_hits = sum.relax_cache_hits + sum.counts_cache_hits;
  const double cache_probes = cache_hits + sum.relax_cache_misses +
                              sum.counts_cache_misses;
  r.Set("batch_cache.hit_ratio", cache_probes > 0 ? cache_hits / cache_probes : 0,
        "ratio");
  r.Set("sched.tasks_stolen", sum.tasks_stolen / static_cast<double>(batches_run),
        "count");
  r.Set("sched.queue_wait_ms", sum.sum_queue_wait_seconds * 1e3 / n, "ms");

  if (!config.trace) {
    std::vector<Graph> quality(pool.begin(), pool.begin() + kQualityQueries);
    MeasureAnswerQuality(proc, quality, options, &out);
    return out;
  }

  // Thread scaling of QueryBatch: the same two batches at each width the
  // host has cores for (a width above the CPU count is omitted, never
  // projected).
  for (uint32_t w : {1u, 2u, 4u}) {
    if (w > HostCpus()) continue;
    TaskScheduler scaled(w);
    BatchOptions bo;
    bo.stealer = &scaled;
    size_t queries = 0;
    const Clock::time_point t0 = Clock::now();
    for (size_t b = 1; b <= 2; ++b) {
      queries += proc.QueryBatch(batches[b], options, bo).size();
    }
    r.Set("sched.qps_w" + std::to_string(w),
          queries / SecondsBetween(t0, Clock::now()), "1/s");
  }
  TracedReplay(*engine, batches[0], options, config.seconds / 3,
               config.trace_path, &out);
  return out;
}

Outcome RunLabelRich(const RunConfig& config) {
  constexpr size_t kGraphs = 2000;
  constexpr uint32_t kQueryEdges = 12;
  constexpr size_t kPool = 12000;
  constexpr size_t kBatchCheck = 128;
  constexpr size_t kQualityQueries = 120;
  constexpr size_t kQueriesPerMutation = 20;  // an add+remove pair after each

  Outcome out;
  const SyntheticOptions data = PpiData(kGraphs, 12, config.seed);
  const std::vector<ProbabilisticGraph> db = MakeDatabase(data, &out);
  if (!out.correct) return out;
  std::unique_ptr<Engine> engine =
      SetUpRepeatedly(db, PaperPmi(), kSetupRepeats, &out.report);
  const QueryProcessor& proc = *engine->proc;

  QueryOptions options;
  options.delta = 3;
  options.epsilon = 0.02;
  const std::vector<Graph> pool =
      MakeQueries(engine->db, kQueryEdges, kPool, config.seed + 1, &out);
  if (!out.correct) return out;

  // Measured closed loop: one client, one query at a time, with live
  // add+remove pairs timed between queries.
  const double loop_seconds = config.trace ? config.seconds / 2 : config.seconds;
  LiveMutator mutator(engine.get(), data, config.seed + 3);
  QueryContext ctx;
  std::vector<double> latency_ms;
  std::vector<std::vector<uint32_t>> first_answers;
  size_t answers = 0;
  double wall = 0.0;
  for (size_t i = 0; wall < loop_seconds; ++i) {
    const Graph& q = pool[i % kPool];
    const Clock::time_point t0 = Clock::now();
    auto result = proc.Query(q, options, &ctx);
    const double s = SecondsBetween(t0, Clock::now());
    wall += s;
    ++out.attempted;
    if (!result.ok()) {
      ++out.failed;
      continue;
    }
    latency_ms.push_back(s * 1e3);
    answers += result->size();
    if (i < kBatchCheck) first_answers.push_back(*result);
    if ((i + 1) % kQueriesPerMutation == 0) mutator.Step(&out);
  }
  out.report.Set("peak_rss_mb", PeakRssMb(), "MiB");
  mutator.Report(&out);
  if (out.failed > 0) out.Fail("a Query() returned an error");
  if (answers == 0) out.Fail("label-rich returned 0 answers");

  // Gate: width-4 QueryBatch over the queries checked above must agree
  // with the sequential Query() answers.
  {
    std::vector<Graph> head(pool.begin(), pool.begin() + first_answers.size());
    TaskScheduler sched(Width());
    BatchOptions bo;
    bo.stealer = &sched;
    CheckAnswers(proc.QueryBatch(head, options, bo), first_answers,
                 "width-4 QueryBatch", &out);
  }

  Report& r = out.report;
  const double n = static_cast<double>(latency_ms.size());
  r.Set("qps", n / wall, "1/s");
  ReportLatency(latency_ms, &r);
  r.Set("ok_frac", 1.0 - static_cast<double>(out.failed) / out.attempted,
        "ratio");
  r.Set("answers_per_query", static_cast<double>(answers) / n, "count");
  r.Set("width", 1, "threads");
  // Distinct queries through Query(): no batch cache by construction.
  r.Set("batch_cache.hit_ratio", 0.0, "ratio");

  if (!config.trace) {
    std::vector<Graph> quality(pool.begin(), pool.begin() + kQualityQueries);
    MeasureAnswerQuality(proc, quality, options, &out);
    return out;
  }
  TracedReplay(*engine, pool, options, config.seconds / 3, config.trace_path,
               &out);
  return out;
}

}  // namespace perfbench
