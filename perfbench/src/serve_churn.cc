// serve-churn: ServingCore at width 4 over a DurableDatabase, with the
// answer cache on and the mutation hooks on the WAL'd path. Reads arrive
// open-loop (Poisson, one generator thread, Zipf-skewed over a query pool)
// with durable add/remove mutations interleaved at a fixed ratio; every
// latency is timed from the arrival's due time.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>

#include "pgsim/serving/serving_core.h"
#include "pgsim/storage/durable_db.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kGraphs = 600;
constexpr uint32_t kQueryEdges = 6;
constexpr size_t kPool = 8000;
/// Zipf exponent of the read mix over the pool.
constexpr double kZipfExponent = 0.5;
constexpr int kSetupRepeats = 3;
/// Every kMutationEvery-th arrival is a durable add or remove.
constexpr size_t kMutationEvery = 8;
/// Latency limit on p99, and the per-query deadline (degraded answers
/// allowed). A shed, degraded, expired or failed query counts as missing
/// the limit.
constexpr double kSloMs = 100.0;
constexpr int64_t kDeadlineMs = 200;
/// The reference rate the end-to-end latencies are measured at, and the
/// fixed offered-rate ladder max_qps_at_slo is read from (arrivals/s).
constexpr double kReferenceRate = 160.0;
constexpr double kLadder[] = {80, 160, 240, 320, 400, 480, 560, 640};
constexpr double kRungSeconds = 1.0;
constexpr size_t kQualityQueries = 12;
constexpr size_t kProbeQueries = 16;
/// Closed-loop capacity: queries for the end-to-end qps, and per width of
/// the traced run's scaling curve.
constexpr size_t kCapacityQueries = 3600;
constexpr size_t kScalingQueries = 300;

QueryOptions ChurnQuery() {
  QueryOptions options;
  options.delta = 2;
  options.epsilon = 0.3;
  // A serving-sized sampling budget: tau 0.2 takes ~300 draws per candidate
  // instead of ~1200. Queries are then cheap enough that the open loop sees
  // thousands of arrivals per run at a third of capacity, which the p99 needs
  // to be steady.
  options.verifier.mc.tau = 0.2;
  return options;
}

/// What one open-loop phase measured.
struct PhaseResult {
  std::vector<double> query_ms;     ///< due -> resolution; misses as 2x SLO
  std::vector<double> mutation_ms;  ///< add+remove pairs, due -> resolution
  std::vector<double> late_ms;      ///< submit time - due time
  size_t queries = 0;
  size_t query_failures = 0;  ///< shed + degraded + expired + errored
  size_t mutations = 0;
  size_t mutation_failures = 0;
  size_t shed = 0;
  size_t degraded = 0;
  size_t queue_depth_max = 0;
  bool backlog_grew = false;
};

/// The live durable engine plus its serving core and the mutation feed.
class ChurnServer {
 public:
  ChurnServer(std::unique_ptr<DurableDatabase> ddb, const QueryOptions& query,
              uint32_t width)
      : ddb_(std::move(ddb)) {
    ServingOptions so;
    so.num_threads = width;
    so.query = query;
    so.answer_cache = &cache_;
    so.add = [this](const ProbabilisticGraph& g, uint64_t seed) {
      const Clock::time_point t0 = Clock::now();
      Result<uint32_t> id = ddb_->AddGraph(g, seed);
      RecordStorage(t0);
      return id;
    };
    so.remove = [this](uint32_t id) {
      const Clock::time_point t0 = Clock::now();
      Status st = ddb_->RemoveGraph(id);
      RecordStorage(t0);
      return st;
    };
    core_ = std::make_unique<ServingCore>(&ddb_->processor(), std::move(so));
  }

  ChurnServer(const ChurnServer&) = delete;
  ChurnServer& operator=(const ChurnServer&) = delete;

  /// Open loop: Poisson arrivals at `rate` for `seconds`. Queries are drawn
  /// from `pool` by `zipf`; every kMutationEvery-th arrival is a durable
  /// mutation (add one of `adds`, or remove the graph added last).
  PhaseResult RunPhase(double rate, double seconds,
                       const std::vector<Graph>& pool,
                       const std::vector<double>& zipf,
                       const std::vector<ProbabilisticGraph>& adds, Rng* rng);

  DurableDatabase& db() { return *ddb_; }
  ServingCore& core() { return *core_; }
  const AnswerCache& cache() const { return cache_; }

  /// Storage time per durable mutation, timed inside the hooks.
  std::vector<double> storage_ms() {
    std::lock_guard<std::mutex> lock(mu_);
    return storage_ms_;
  }

  /// Stops serving and hands the database back.
  std::unique_ptr<DurableDatabase> Close() {
    core_->Shutdown();
    core_.reset();
    return std::move(ddb_);
  }

 private:
  struct Slot {
    Clock::time_point due;
    Clock::time_point done;
    bool mutation = false;
    bool add = false;  ///< the mutation is an add (else a remove)
    bool ok = false;
    bool shed = false;
    bool degraded = false;
  };

  void RecordStorage(Clock::time_point t0) {
    const double ms = SecondsBetween(t0, Clock::now()) * 1e3;
    std::lock_guard<std::mutex> lock(mu_);
    storage_ms_.push_back(ms);
  }

  std::unique_ptr<DurableDatabase> ddb_;
  AnswerCache cache_;
  std::mutex mu_;
  std::vector<double> storage_ms_;  // guarded by mu_
  std::optional<uint32_t> added_id_;  // guarded by mu_
  bool add_in_flight_ = false;        // guarded by mu_
  size_t next_add_ = 0;
  std::unique_ptr<ServingCore> core_;
};

PhaseResult ChurnServer::RunPhase(double rate, double seconds,
                                  const std::vector<Graph>& pool,
                                  const std::vector<double>& zipf,
                                  const std::vector<ProbabilisticGraph>& adds,
                                  Rng* rng) {
  // Draw the whole schedule up front so generating it costs nothing while
  // the clock runs.
  std::vector<double> due_s;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng->UniformDouble()) / rate;
    if (t >= seconds) break;
    due_s.push_back(t);
  }
  std::vector<size_t> picks(due_s.size());
  for (size_t& p : picks) p = rng->Discrete(zipf);

  std::vector<Slot> slots(due_s.size());
  std::atomic<size_t> resolved{0};
  std::vector<size_t> outstanding(due_s.size());
  PhaseResult res;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < due_s.size(); ++i) {
    Slot& slot = slots[i];
    slot.due = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(due_s[i]));
    std::this_thread::sleep_until(slot.due);
    const Clock::time_point now = Clock::now();
    res.late_ms.push_back(SecondsBetween(slot.due, now) * 1e3);
    outstanding[i] = i - resolved.load(std::memory_order_acquire);
    res.queue_depth_max = std::max(res.queue_depth_max, core_->queue_depth());

    SubmitOptions opts;
    opts.callback = [&slot, &resolved](const ServeResult& r) {
      slot.done = Clock::now();
      slot.ok = r.status.ok() && !r.degraded;
      slot.shed = r.status.code() == StatusCode::kUnavailable;
      slot.degraded = r.degraded;
      resolved.fetch_add(1, std::memory_order_release);
    };
    // Mutation slots alternate add and remove of one graph, and at most one
    // add is in flight: the id a remove names was then assigned after any
    // compaction an earlier remove triggered, so it is always valid. A slot
    // that finds the add still in flight carries a query instead.
    enum class Kind { kQuery, kAdd, kRemove } kind = Kind::kQuery;
    uint32_t victim = 0;
    if ((i + 1) % kMutationEvery == 0) {
      std::lock_guard<std::mutex> lock(mu_);
      if (added_id_.has_value()) {
        kind = Kind::kRemove;
        victim = *added_id_;
        added_id_.reset();
      } else if (!add_in_flight_) {
        kind = Kind::kAdd;
        add_in_flight_ = true;
      }
    }
    if (kind == Kind::kRemove) {
      slot.mutation = true;
      core_->SubmitRemoveGraph(victim, opts);
    } else if (kind == Kind::kAdd) {
      slot.mutation = true;
      slot.add = true;
      auto record = opts.callback;
      opts.callback = [this, record](const ServeResult& r) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          add_in_flight_ = false;
          if (r.status.ok()) added_id_ = r.graph_id;
        }
        record(r);
      };
      const size_t k = next_add_++;
      core_->SubmitAddGraph(adds[k % adds.size()], 1000 + k, opts);
    } else {
      opts.deadline_ms = kDeadlineMs;
      opts.allow_degraded = true;
      core_->Submit(pool[picks[i]], opts);
    }
  }
  while (resolved.load(std::memory_order_acquire) < slots.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Mutation slots alternate add, remove, add, ... (see above); one sample
  // is an add plus the remove that follows it, each timed from its due time.
  double add_ms = -1.0;
  for (const Slot& s : slots) {
    const double ms = SecondsBetween(s.due, s.done) * 1e3;
    if (s.mutation) {
      ++res.mutations;
      res.mutation_failures += s.ok ? 0 : 1;
      if (s.add) {
        add_ms = ms;
      } else if (add_ms >= 0.0) {
        res.mutation_ms.push_back(add_ms + ms);
        add_ms = -1.0;
      }
      continue;
    }
    ++res.queries;
    res.shed += s.shed ? 1 : 0;
    res.degraded += s.degraded ? 1 : 0;
    if (s.ok) {
      res.query_ms.push_back(ms);
    } else {
      ++res.query_failures;
      res.query_ms.push_back(std::max(ms, 2 * kSloMs));
    }
  }
  // A growing backlog: tickets still outstanding over the last third of the
  // arrivals exceed those over the first third by a clear margin.
  const size_t third = outstanding.size() / 3;
  if (third > 0) {
    double first = 0.0, last = 0.0;
    for (size_t i = 0; i < third; ++i) {
      first += outstanding[i];
      last += outstanding[outstanding.size() - 1 - i];
    }
    first /= third;
    last /= third;
    res.backlog_grew = last > 2.0 * first + 4.0;
  }
  return res;
}

/// Closed-loop serving capacity: `queries` submitted at once, no cache.
double ServingCapacity(QueryProcessor* proc, const QueryOptions& query,
                       uint32_t width, const std::vector<Graph>& queries,
                       Outcome* out) {
  ServingOptions so;
  so.num_threads = width;
  so.max_queue = queries.size();
  so.query = query;
  ServingCore core(proc, so);
  std::vector<QueryTicket> tickets;
  const Clock::time_point t0 = Clock::now();
  for (const Graph& q : queries) tickets.push_back(core.Submit(q));
  for (QueryTicket& t : tickets) {
    if (!t.Wait().status.ok()) {
      out->Fail("capacity query failed: " + t.Wait().status.ToString());
    }
  }
  return queries.size() / SecondsBetween(t0, Clock::now());
}

bool Passes(const PhaseResult& p) {
  return Percentile(p.query_ms, 99) <= kSloMs && !p.backlog_grew &&
         p.query_failures * 100 <= p.queries;
}

}  // namespace

Outcome RunServeChurn(const RunConfig& config) {
  namespace fs = std::filesystem;
  Outcome out;
  const SyntheticOptions data = PpiData(kGraphs, 6, config.seed);
  const std::vector<ProbabilisticGraph> db = MakeDatabase(data, &out);
  if (!out.correct) return out;
  const std::vector<Graph> pool =
      MakeQueries(db, kQueryEdges, kPool, config.seed + 1, &out);
  if (!out.correct) return out;
  Rng rng(config.seed + 2);
  std::vector<ProbabilisticGraph> adds;
  while (adds.size() < 64) {
    auto g = GenerateGraph(data, &rng);
    if (g.ok()) adds.push_back(std::move(g).value());
  }
  std::vector<double> zipf;
  for (size_t i = 0; i < pool.size(); ++i) {
    zipf.push_back(std::pow(i + 1.0, -kZipfExponent));
  }
  const uint32_t width = Width();
  const QueryOptions options = ChurnQuery();

  // Set-up: DurableDatabase::Create (PMI, filter, signatures, snapshot
  // generation 0) plus the serving core, several times; the last is kept.
  std::unique_ptr<ChurnServer> server;
  std::string dir;
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    server.reset();
    if (!dir.empty()) fs::remove_all(dir);
    dir = config.work_dir + "/db-" + std::to_string(i);
    fs::remove_all(dir);  // left over from an interrupted run
    const Clock::time_point t0 = Clock::now();
    auto ddb = DurableDatabase::Create(dir, db, PaperPmi());
    if (!ddb.ok()) {
      out.Fail("DurableDatabase::Create: " + ddb.status().ToString());
      return out;
    }
    server = std::make_unique<ChurnServer>(std::move(ddb).value(), options,
                                           width);
    setup.push_back(SecondsBetween(t0, Clock::now()));
  }
  Report& r = out.report;
  r.Set("setup_s", Percentile(setup, 50), "s");
  r.Set("setup.repeats", kSetupRepeats, "count");
  QueryProcessor& proc = server->db().processor();

  if (!config.trace) {
    std::vector<Graph> quality(pool.begin(), pool.begin() + kQualityQueries);
    MeasureAnswerQuality(proc, quality, options, &out);
  }

  // Closed-loop serving capacity (no cache, no churn) at the full width;
  // the traced run adds the 1/2/4 scaling curve, capped at the CPU count.
  const std::vector<Graph> capacity_set(pool.begin(),
                                        pool.begin() + kCapacityQueries);
  r.Set("qps", ServingCapacity(&proc, options, width, capacity_set, &out),
        "1/s");
  if (config.trace) {
    const std::vector<Graph> head(pool.begin(),
                                  pool.begin() + kScalingQueries);
    for (uint32_t w : {1u, 2u, 4u}) {
      if (w > HostCpus()) continue;
      r.Set("serve.capacity_qps_w" + std::to_string(w),
            ServingCapacity(&proc, options, w, head, &out), "1/s");
    }
  }

  // Reference rate: the end-to-end latencies and failure fraction.
  const double phase_seconds = config.trace ? config.seconds / 2 : config.seconds;
  const PhaseResult ref =
      server->RunPhase(kReferenceRate, phase_seconds, pool, zipf, adds, &rng);
  out.attempted += ref.queries + ref.mutations;
  out.failed += ref.query_failures + ref.mutation_failures;
  r.Set("peak_rss_mb", PeakRssMb(), "MiB");
  if (ref.mutation_failures > 0) out.Fail("a durable mutation failed");
  ReportLatency(ref.query_ms, &r);
  const double fail_frac = static_cast<double>(ref.query_failures) /
                           static_cast<double>(ref.queries);
  r.Set("ok_frac", 1.0 - fail_frac, "ratio");
  r.Set("serve.fail_frac", fail_frac, "ratio");
  r.Set("mutation.p50_ms", Percentile(ref.mutation_ms, 50), "ms");
  r.Set("mutation.p90_ms", Percentile(ref.mutation_ms, 90), "ms");
  r.Set("mutation.samples", ref.mutation_ms.size(), "count");
  r.Set("serve.reference_rate", kReferenceRate, "1/s");
  r.Set("serve.slo_ms", kSloMs, "ms");
  r.Set("serve.queue_depth_max", ref.queue_depth_max, "count");
  r.Set("serve.shed", ref.shed, "count");
  r.Set("serve.degraded", ref.degraded, "count");
  r.Set("serve.generator_late_ms", Percentile(ref.late_ms, 99), "ms");
  r.Set("serve.backlog_grew", ref.backlog_grew ? 1 : 0, "bool");

  // Checkpoint between the phases, so the ladder's mutations are the WAL
  // tail the reopen below replays.
  {
    const Clock::time_point t0 = Clock::now();
    const Status st = server->db().Checkpoint();
    r.Set("storage.checkpoint_ms", SecondsBetween(t0, Clock::now()) * 1e3,
          "ms");
    if (!st.ok()) out.Fail("Checkpoint: " + st.ToString());
  }

  // Offered-rate ladder: the highest rate whose p99 meets the limit with
  // under 1% failures and no growing backlog. Stops at the first miss.
  double max_rate = 0.0;
  for (double rate : kLadder) {
    const PhaseResult rung =
        server->RunPhase(rate, kRungSeconds, pool, zipf, adds, &rng);
    if (rung.mutation_failures > 0) out.Fail("a durable mutation failed");
    std::printf("  ladder rate %.0f/s: p99 %.2f ms, failures %zu/%zu, "
                "backlog %s\n",
                rate, Percentile(rung.query_ms, 99), rung.query_failures,
                rung.queries, rung.backlog_grew ? "growing" : "steady");
    if (!Passes(rung)) break;
    max_rate = rate;
  }
  r.Set("serve.max_qps_at_slo", max_rate, "1/s");

  const ServingStats ss = server->core().stats();
  r.Set("serve.waves", ss.waves, "count");
  const AnswerCacheStats cs = server->cache().stats();
  r.Set("answer_cache.hit_ratio",
        cs.hits + cs.misses > 0
            ? static_cast<double>(cs.hits) / (cs.hits + cs.misses)
            : 0.0,
        "ratio");
  r.Set("answer_cache.stale", cs.stale, "count");
  const std::vector<double> storage = server->storage_ms();
  r.Set("storage.mutation_ms", Percentile(storage, 50), "ms");

  // Reopen gate: the recovered database must answer a fixed probe set
  // exactly as the live one did just before shutdown.
  std::unique_ptr<DurableDatabase> live = server->Close();
  server.reset();
  const uint64_t pending = live->mutations_since_checkpoint();
  r.Set("storage.wal_bytes_per_mutation",
        pending > 0 ? static_cast<double>(live->wal_size_bytes()) / pending
                    : 0.0,
        "bytes");
  std::vector<std::vector<uint32_t>> before;
  for (size_t i = 0; i < kProbeQueries; ++i) {
    auto a = live->processor().Query(pool[i], options);
    before.push_back(a.ok() ? std::move(a).value() : std::vector<uint32_t>{});
  }
  live.reset();
  const Clock::time_point t0 = Clock::now();
  auto reopened = DurableDatabase::Open(dir);
  r.Set("storage.recovery_s", SecondsBetween(t0, Clock::now()), "s");
  if (!reopened.ok()) {
    out.Fail("DurableDatabase::Open: " + reopened.status().ToString());
    return out;
  }
  size_t answers = 0;
  for (size_t i = 0; i < kProbeQueries; ++i) {
    auto a = (*reopened)->processor().Query(pool[i], options);
    if (!a.ok() || *a != before[i]) {
      out.Fail("reopened database answers probe " + std::to_string(i) +
               " differently from the live one");
      break;
    }
    answers += a->size();
  }
  if (answers == 0) out.Fail("serve-churn probes returned 0 answers");

  if (config.trace) {
    std::unique_ptr<Engine> engine = BuildEngine(db, PaperPmi());
    ReportIndexBuilds({engine->times}, *engine, &r);
    TracedReplay(*engine, pool, options, config.seconds / 3,
                 config.trace_path, &out);
  }
  reopened->reset();
  fs::remove_all(dir);
  return out;
}

}  // namespace perfbench
