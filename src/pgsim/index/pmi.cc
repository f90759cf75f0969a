#include "pgsim/index/pmi.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>

#include "pgsim/common/thread_pool.h"
#include "pgsim/common/timer.h"
#include "pgsim/graph/io.h"
#include "pgsim/graph/vf2.h"
#include "pgsim/prob/dnf_exact.h"
#include "pgsim/storage/io_util.h"

namespace pgsim {

namespace {
// "PMI3": checksummed sections, atomic install, sip options persisted.
// Version 2 appends the cell-mode byte to the trailer; version 1 files
// predate exact cells and load as bound-only.
constexpr uint32_t kPmiMagic3 = 0x504d4933;
constexpr uint32_t kPmi3Version = 2;

// Node budget of one exact cell. It counts DNF search nodes, never time, so
// whether a cell is exact is a pure function of (graph, feature).
constexpr uint64_t kExactCellNodeBudget = 100'000;

// Cells are floats: round an exact SIP outward so the stored [lower, upper]
// still brackets the double the DNF engine computed.
float FloatBelow(double x) {
  const float f = static_cast<float>(x);
  return static_cast<double>(f) > x
             ? std::nextafter(f, -std::numeric_limits<float>::infinity())
             : f;
}
float FloatAbove(double x) {
  const float f = static_cast<float>(x);
  return static_cast<double>(f) < x
             ? std::nextafter(f, std::numeric_limits<float>::infinity())
             : f;
}

struct PmiColumn {
  std::vector<PmiEntry> entries;  // ascending feature id
  size_t exact_cells = 0;
  size_t fallback_cells = 0;
};

// Fills one graph's cells for `feature_ids` (ascending, each ⊆iso gc) —
// the one routine behind Build and AddGraph. Each feature's embeddings are
// enumerated once and handed to the exact DNF engine; only cells whose
// embedding list truncates or whose DNF exceeds the node budget (or every
// cell, in bound-only mode) get Section 4.1 bounds from one
// ComputeSipBoundsBatch call on `rng`, which is skipped when none do.
PmiColumn FillColumn(const ProbabilisticGraph& g,
                     const std::vector<uint32_t>& feature_ids,
                     const std::vector<Feature>& features,
                     const std::vector<MatchPlan>& plans,
                     const SipBoundOptions& sip, bool bound_only, Rng* rng) {
  PmiColumn column;
  column.entries.resize(feature_ids.size());
  std::vector<size_t> sampled;  // positions left to the bound machinery
  if (bound_only) {
    for (size_t k = 0; k < feature_ids.size(); ++k) sampled.push_back(k);
  } else {
    DnfExactOptions dnf;
    dnf.max_nodes = kExactCellNodeBudget;
    Vf2Scratch vf2;
    for (size_t k = 0; k < feature_ids.size(); ++k) {
      bool truncated = false;
      const std::vector<EdgeBitset> embeddings =
          EmbeddingEdgeSets(plans[feature_ids[k]], g.certain(),
                            sip.max_cut_embeddings, &truncated, &vf2);
      if (!truncated) {
        const Result<double> exact = ExactDnfProbability(g, embeddings, dnf);
        if (exact.ok()) {
          PmiEntry& e = column.entries[k];
          e.lower_opt = e.lower_simple = FloatBelow(*exact);
          e.upper_opt = e.upper_simple = FloatAbove(*exact);
          continue;
        }
      }
      sampled.push_back(k);
    }
    column.exact_cells = feature_ids.size() - sampled.size();
    column.fallback_cells = sampled.size();
  }
  if (!sampled.empty()) {
    std::vector<const Graph*> feature_graphs;
    std::vector<const MatchPlan*> feature_plans;
    feature_graphs.reserve(sampled.size());
    feature_plans.reserve(sampled.size());
    for (size_t k : sampled) {
      feature_graphs.push_back(&features[feature_ids[k]].graph);
      feature_plans.push_back(&plans[feature_ids[k]]);
    }
    const std::vector<SipBounds> bounds =
        ComputeSipBoundsBatch(g, feature_graphs, sip, rng, &feature_plans);
    for (size_t j = 0; j < sampled.size(); ++j) {
      PmiEntry& e = column.entries[sampled[j]];
      e.lower_opt = static_cast<float>(bounds[j].lower_opt);
      e.upper_opt = static_cast<float>(bounds[j].upper_opt);
      e.lower_simple = static_cast<float>(bounds[j].lower_simple);
      e.upper_simple = static_cast<float>(bounds[j].upper_simple);
    }
  }
  for (size_t k = 0; k < feature_ids.size(); ++k) {
    column.entries[k].feature_id = feature_ids[k];
  }
  return column;
}
}  // namespace

void ProbabilisticMatrixIndex::RebuildFeaturePlans() {
  feature_plans_.clear();
  feature_plans_.reserve(features_.size());
  for (const Feature& f : features_) {
    feature_plans_.push_back(CompileMatchPlan(f.graph));
  }
}

void ProbabilisticMatrixIndex::SetColumns(
    std::vector<std::vector<PmiEntry>>&& columns) {
  num_graphs_ = static_cast<uint32_t>(columns.size());
  num_alive_ = num_graphs_;
  alive_.assign(num_graphs_, 1);
  const size_t cells = features_.size() * static_cast<size_t>(num_graphs_);
  col_offsets_.assign(1, 0);
  col_offsets_.reserve(columns.size() + 1);
  col_features_.clear();
  lower_opt_.assign(cells, 0.0f);
  upper_opt_.assign(cells, 0.0f);
  lower_simple_.assign(cells, 0.0f);
  upper_simple_.assign(cells, 0.0f);
  present_.assign(cells, 0);
  stats_.num_entries = 0;
  for (uint32_t gi = 0; gi < columns.size(); ++gi) {
    for (const PmiEntry& e : columns[gi]) {
      const size_t idx = Flat(e.feature_id, gi);
      lower_opt_[idx] = e.lower_opt;
      upper_opt_[idx] = e.upper_opt;
      lower_simple_[idx] = e.lower_simple;
      upper_simple_[idx] = e.upper_simple;
      present_[idx] = 1;
      col_features_.push_back(e.feature_id);
    }
    col_offsets_.push_back(static_cast<uint32_t>(col_features_.size()));
    stats_.num_entries += columns[gi].size();
  }
}

void ProbabilisticMatrixIndex::RecomputeFrequencies() {
  const double denom = num_alive_ > 0 ? static_cast<double>(num_alive_) : 1.0;
  for (Feature& f : features_) {
    f.frequency = static_cast<double>(f.support.size()) / denom;
  }
}

PmiMaintenance ProbabilisticMatrixIndex::maintenance() const {
  PmiMaintenance m;
  m.epoch = epoch_;
  m.num_alive = num_alive_;
  m.num_tombstones = num_graphs_ - num_alive_;
  m.adds_since_build = adds_since_build_;
  m.removes_since_build = removes_since_build_;
  double min_freq = features_.empty() ? 0.0 : 1.0;
  for (const Feature& f : features_) min_freq = std::min(min_freq, f.frequency);
  m.min_feature_frequency = min_freq;
  m.remine_advised = !features_.empty() &&
                     (adds_since_build_ + removes_since_build_) > 0 &&
                     min_freq < beta_watermark_;
  return m;
}

std::vector<PmiEntry> ProbabilisticMatrixIndex::EntriesFor(
    uint32_t graph_id) const {
  std::vector<PmiEntry> entries;
  if (!IsAlive(graph_id)) return entries;  // tombstoned: no entries
  entries.reserve(col_offsets_[graph_id + 1] - col_offsets_[graph_id]);
  for (uint32_t k = col_offsets_[graph_id]; k < col_offsets_[graph_id + 1];
       ++k) {
    const uint32_t fi = col_features_[k];
    const size_t idx = Flat(fi, graph_id);
    PmiEntry e;
    e.feature_id = fi;
    e.lower_opt = lower_opt_[idx];
    e.upper_opt = upper_opt_[idx];
    e.lower_simple = lower_simple_[idx];
    e.upper_simple = upper_simple_[idx];
    entries.push_back(e);
  }
  return entries;
}

bool ProbabilisticMatrixIndex::Lookup(uint32_t graph_id, uint32_t feature_id,
                                      PmiEntry* out) const {
  if (graph_id >= num_graphs_ || feature_id >= features_.size()) return false;
  const size_t idx = Flat(feature_id, graph_id);
  if (present_[idx] == 0) return false;
  out->feature_id = feature_id;
  out->lower_opt = lower_opt_[idx];
  out->upper_opt = upper_opt_[idx];
  out->lower_simple = lower_simple_[idx];
  out->upper_simple = upper_simple_[idx];
  return true;
}

Result<ProbabilisticMatrixIndex> ProbabilisticMatrixIndex::Build(
    const std::vector<ProbabilisticGraph>& database,
    const PmiBuildOptions& options) {
  WallTimer total_timer;
  ProbabilisticMatrixIndex index;
  index.sip_options_ = options.sip;
  index.bound_only_cells_ = options.bound_only_cells;
  index.beta_watermark_ = options.miner.beta;

  // One pool serves the whole offline pipeline: candidate mining fan-out,
  // then the per-graph bound columns. 1 thread builds fully inline; the
  // index is bit-identical at every thread count (see parallel_build_test).
  const ScopedPool scoped_pool(options.num_threads, options.pool);
  ThreadPool* pool = scoped_pool.get();
  index.stats_.build_threads = scoped_pool.threads();

  std::vector<Graph> certain;
  certain.reserve(database.size());
  for (const ProbabilisticGraph& g : database) certain.push_back(g.certain());

  WallTimer mining_timer;
  FeatureMinerOptions miner_options = options.miner;
  if (miner_options.pool == nullptr && miner_options.num_threads == 0) {
    // Inherit the build pool only when the miner's own threading was left
    // at the default; an explicit miner.num_threads wins.
    miner_options.pool = pool;
    miner_options.num_threads = scoped_pool.threads();
  }
  PGSIM_ASSIGN_OR_RETURN(FeatureSet mined,
                         MineFeatures(certain, miner_options));
  index.stats_.mining_seconds = mining_timer.Seconds();
  index.features_ = std::move(mined.features);
  index.RebuildFeaturePlans();

  // Invert support lists: features present per graph.
  std::vector<std::vector<uint32_t>> features_of_graph(database.size());
  for (uint32_t fi = 0; fi < index.features_.size(); ++fi) {
    for (uint32_t gi : index.features_[fi].support) {
      features_of_graph[gi].push_back(fi);
    }
  }

  WallTimer bounds_timer;
  // Fork one RNG per non-empty column sequentially, in graph order — the
  // exact fork sequence of a sequential build — then fill columns in
  // parallel. Each task touches only its own column/RNG slot.
  Rng rng(options.seed);
  std::vector<PmiColumn> filled(database.size());
  std::vector<Rng> column_rngs(database.size(), Rng(0));
  for (uint32_t gi = 0; gi < database.size(); ++gi) {
    if (!features_of_graph[gi].empty()) column_rngs[gi] = rng.Fork();
  }
  ForEachIndex(pool, database.size(), 1, [&](size_t gi) {
    if (features_of_graph[gi].empty()) return;
    filled[gi] = FillColumn(database[gi], features_of_graph[gi],
                            index.features_, index.feature_plans_,
                            options.sip, index.bound_only_cells_,
                            &column_rngs[gi]);
  });
  std::vector<std::vector<PmiEntry>> columns(database.size());
  for (size_t gi = 0; gi < database.size(); ++gi) {
    index.stats_.exact_cells += filled[gi].exact_cells;
    index.stats_.fallback_cells += filled[gi].fallback_cells;
    columns[gi] = std::move(filled[gi].entries);
  }
  index.SetColumns(std::move(columns));
  index.stats_.bounds_seconds = bounds_timer.Seconds();
  index.stats_.total_seconds = total_timer.Seconds();
  index.stats_.num_features = index.features_.size();
  index.stats_.size_bytes = index.SizeBytes();
  return index;
}

Result<uint32_t> ProbabilisticMatrixIndex::AddGraph(
    const ProbabilisticGraph& graph, const SipBoundOptions& sip, uint64_t seed,
    std::vector<uint32_t>* contained) {
  const uint32_t graph_id = num_graphs_;
  const size_t num_features = features_.size();
  // Which existing features occur in the new graph's certain graph?
  std::vector<uint32_t> feature_ids;
  Vf2Scratch vf2;
  for (uint32_t fi = 0; fi < num_features; ++fi) {
    if (IsSubgraphIsomorphic(feature_plans_[fi], graph.certain(), &vf2)) {
      feature_ids.push_back(fi);
    }
  }
  Rng rng(seed);
  const PmiColumn column = FillColumn(graph, feature_ids, features_,
                                      feature_plans_, sip, bound_only_cells_,
                                      &rng);

  // Append one num_features-cell block per matrix in place; graph-major
  // layout means no existing cell moves, so the cost is O(|F|) regardless
  // of how many columns already exist (BM_Pmi_AddGraph pins this).
  const size_t new_cells = (static_cast<size_t>(graph_id) + 1) * num_features;
  lower_opt_.resize(new_cells, 0.0f);
  upper_opt_.resize(new_cells, 0.0f);
  lower_simple_.resize(new_cells, 0.0f);
  upper_simple_.resize(new_cells, 0.0f);
  present_.resize(new_cells, 0);
  for (const PmiEntry& e : column.entries) {
    const size_t idx = Flat(e.feature_id, graph_id);
    lower_opt_[idx] = e.lower_opt;
    upper_opt_[idx] = e.upper_opt;
    lower_simple_[idx] = e.lower_simple;
    upper_simple_[idx] = e.upper_simple;
    present_[idx] = 1;
    // graph_id exceeds every existing id, so the append keeps support sorted.
    features_[e.feature_id].support.push_back(graph_id);
  }
  // feature_ids was filled in ascending fi order: already CSR-sorted.
  col_features_.insert(col_features_.end(), feature_ids.begin(),
                       feature_ids.end());
  col_offsets_.push_back(static_cast<uint32_t>(col_features_.size()));
  alive_.push_back(1);
  ++num_graphs_;
  ++num_alive_;
  stats_.num_entries += feature_ids.size();
  stats_.exact_cells += column.exact_cells;
  stats_.fallback_cells += column.fallback_cells;
  ++epoch_;
  ++adds_since_build_;
  RecomputeFrequencies();
  stats_.size_bytes = SizeBytes();
  if (contained != nullptr) *contained = std::move(feature_ids);
  return graph_id;
}

Status ProbabilisticMatrixIndex::RemoveGraph(uint32_t graph_id) {
  if (graph_id >= num_graphs_) {
    return Status::InvalidArgument("RemoveGraph: graph id out of range");
  }
  if (alive_[graph_id] == 0) {
    return Status::InvalidArgument("RemoveGraph: graph already removed");
  }
  // Tombstone: clear the column's contiguous cell block so Lookup/Contains
  // report absent, drop the id from support lists, and mark it dead. Every
  // other graph id is untouched — ids are stable until Compact().
  const size_t num_features = features_.size();
  const size_t base = static_cast<size_t>(graph_id) * num_features;
  std::fill_n(lower_opt_.begin() + base, num_features, 0.0f);
  std::fill_n(upper_opt_.begin() + base, num_features, 0.0f);
  std::fill_n(lower_simple_.begin() + base, num_features, 0.0f);
  std::fill_n(upper_simple_.begin() + base, num_features, 0.0f);
  std::fill_n(present_.begin() + base, num_features, 0);
  // The CSR range [col_offsets_[g], col_offsets_[g+1]) goes stale here;
  // EntriesFor/Save skip dead columns, Compact() rebuilds the CSR.
  stats_.num_entries -= col_offsets_[graph_id + 1] - col_offsets_[graph_id];
  for (Feature& f : features_) {
    const auto it =
        std::lower_bound(f.support.begin(), f.support.end(), graph_id);
    if (it != f.support.end() && *it == graph_id) f.support.erase(it);
  }
  alive_[graph_id] = 0;
  --num_alive_;
  ++epoch_;
  ++removes_since_build_;
  RecomputeFrequencies();
  stats_.size_bytes = SizeBytes();
  return Status::OK();
}

void ProbabilisticMatrixIndex::Compact() {
  if (num_alive_ == num_graphs_) return;  // nothing to reclaim, epoch keeps
  // Old id -> new id for alive columns, in order: the only id renumbering
  // the index ever performs, and it bumps the epoch.
  std::vector<uint32_t> remap(num_graphs_, 0);
  std::vector<std::vector<PmiEntry>> columns;
  columns.reserve(num_alive_);
  for (uint32_t gi = 0; gi < num_graphs_; ++gi) {
    if (alive_[gi] == 0) continue;
    remap[gi] = static_cast<uint32_t>(columns.size());
    columns.push_back(EntriesFor(gi));
  }
  SetColumns(std::move(columns));
  for (Feature& f : features_) {
    for (uint32_t& gi : f.support) gi = remap[gi];
  }
  ++epoch_;
  stats_.size_bytes = SizeBytes();
}

size_t ProbabilisticMatrixIndex::SizeBytes() const {
  // PMI3 container: header + 3 section frames + footer, plus the feature
  // section's two leading counts.
  size_t bytes = 48;
  for (const Feature& f : features_) {
    bytes += GraphByteSize(f.graph) + 4 * f.support.size() + 24;
  }
  for (uint32_t gi = 0; gi < num_graphs_; ++gi) {
    const size_t column_size =
        IsAlive(gi) ? col_offsets_[gi + 1] - col_offsets_[gi] : 0;
    bytes += 4 + column_size * (4 + 4 * sizeof(float));
  }
  // Trailer: epoch + alive bytes + beta watermark + add/remove counts +
  // the 11 persisted sip-option scalars + the cell-mode byte.
  bytes += 8 + num_graphs_ + 8 + 16 + 88 + 1;
  return bytes;
}

Status ProbabilisticMatrixIndex::Save(const std::string& path) const {
  // PMI3: three checksummed sections (features, columns, trailer) inside the
  // footer-checksummed snapshot container, installed atomically. Failpoint
  // sites live under "snapshot.pmi.*".
  SnapshotWriter writer(kPmiMagic3, kPmi3Version);

  std::ostringstream feat;
  WriteU32(feat, static_cast<uint32_t>(features_.size()));
  WriteU32(feat, num_graphs_);
  for (const Feature& f : features_) {
    WriteGraph(feat, f.graph);
    WriteU32(feat, static_cast<uint32_t>(f.support.size()));
    for (uint32_t gi : f.support) WriteU32(feat, gi);
    WriteDouble(feat, f.frequency);
    WriteDouble(feat, f.discriminative);
    WriteU32(feat, f.level);
  }
  writer.AddSection(feat.str());

  std::ostringstream cols;
  for (uint32_t gi = 0; gi < num_graphs_; ++gi) {
    // A tombstoned column serializes as empty; its alive byte in the trailer
    // is what distinguishes it from a live graph with no features.
    const std::vector<PmiEntry> column = EntriesFor(gi);
    WriteU32(cols, static_cast<uint32_t>(column.size()));
    for (const PmiEntry& e : column) {
      WriteU32(cols, e.feature_id);
      WriteDouble(cols, e.lower_opt);
      WriteDouble(cols, e.upper_opt);
      WriteDouble(cols, e.lower_simple);
      WriteDouble(cols, e.upper_simple);
    }
  }
  writer.AddSection(cols.str());

  std::ostringstream tr;
  WriteU64(tr, epoch_);
  for (uint32_t gi = 0; gi < num_graphs_; ++gi) {
    tr.put(alive_[gi] ? '\1' : '\0');
  }
  WriteDouble(tr, beta_watermark_);
  WriteU64(tr, adds_since_build_);
  WriteU64(tr, removes_since_build_);
  // Sip options, persisted so a recovered server keeps adding graphs with
  // the build-time knobs.
  WriteU64(tr, sip_options_.max_embeddings);
  WriteU64(tr, sip_options_.max_cut_embeddings);
  WriteU64(tr, sip_options_.cuts.max_cuts);
  WriteU64(tr, sip_options_.cuts.max_cut_size);
  WriteU64(tr, sip_options_.cuts.max_nodes);
  WriteDouble(tr, sip_options_.mc.xi);
  WriteDouble(tr, sip_options_.mc.tau);
  WriteU64(tr, sip_options_.mc.min_samples);
  WriteU64(tr, sip_options_.mc.max_samples);
  WriteU64(tr, sip_options_.clique.exact_node_limit);
  WriteU64(tr, sip_options_.clique.max_bb_nodes);
  tr.put(bound_only_cells_ ? '\1' : '\0');
  writer.AddSection(tr.str());

  return writer.Commit(path, "snapshot.pmi");
}

Result<ProbabilisticMatrixIndex> ProbabilisticMatrixIndex::Load(
    const std::string& path) {
  PGSIM_ASSIGN_OR_RETURN(SnapshotReader snap,
                         SnapshotReader::Open(path, kPmiMagic3));
  if (snap.version() != 1 && snap.version() != kPmi3Version) {
    return Status::InvalidArgument("PMI Load: unsupported PMI3 version " +
                                   std::to_string(snap.version()));
  }
  if (snap.num_sections() != 3) {
    return Status::DataLoss("PMI Load: expected 3 sections, got " +
                            std::to_string(snap.num_sections()));
  }
  ProbabilisticMatrixIndex index;

  std::istringstream feat(snap.section(0));
  PGSIM_ASSIGN_OR_RETURN(const uint32_t num_features, ReadU32(feat));
  PGSIM_ASSIGN_OR_RETURN(const uint32_t num_graphs, ReadU32(feat));
  index.features_.reserve(num_features);
  for (uint32_t fi = 0; fi < num_features; ++fi) {
    Feature f;
    PGSIM_ASSIGN_OR_RETURN(f.graph, ReadGraph(feat));
    PGSIM_ASSIGN_OR_RETURN(const uint32_t support_size, ReadU32(feat));
    f.support.reserve(support_size);
    for (uint32_t i = 0; i < support_size; ++i) {
      PGSIM_ASSIGN_OR_RETURN(const uint32_t gi, ReadU32(feat));
      f.support.push_back(gi);
    }
    PGSIM_ASSIGN_OR_RETURN(f.frequency, ReadDouble(feat));
    PGSIM_ASSIGN_OR_RETURN(f.discriminative, ReadDouble(feat));
    PGSIM_ASSIGN_OR_RETURN(f.level, ReadU32(feat));
    index.features_.push_back(std::move(f));
  }

  std::istringstream cols(snap.section(1));
  std::vector<std::vector<PmiEntry>> columns(num_graphs);
  for (uint32_t gi = 0; gi < num_graphs; ++gi) {
    PGSIM_ASSIGN_OR_RETURN(const uint32_t column_size, ReadU32(cols));
    auto& column = columns[gi];
    column.reserve(column_size);
    for (uint32_t k = 0; k < column_size; ++k) {
      PmiEntry e;
      PGSIM_ASSIGN_OR_RETURN(e.feature_id, ReadU32(cols));
      if (e.feature_id >= num_features) {
        // The columnar rebuild indexes flat matrices by feature id, so a
        // malformed file must fail here rather than write out of range.
        return Status::InvalidArgument(
            "PMI Load: feature id out of range in " + path);
      }
      PGSIM_ASSIGN_OR_RETURN(const double lo, ReadDouble(cols));
      PGSIM_ASSIGN_OR_RETURN(const double uo, ReadDouble(cols));
      PGSIM_ASSIGN_OR_RETURN(const double ls, ReadDouble(cols));
      PGSIM_ASSIGN_OR_RETURN(const double us, ReadDouble(cols));
      e.lower_opt = static_cast<float>(lo);
      e.upper_opt = static_cast<float>(uo);
      e.lower_simple = static_cast<float>(ls);
      e.upper_simple = static_cast<float>(us);
      column.push_back(e);
    }
  }
  index.RebuildFeaturePlans();
  index.SetColumns(std::move(columns));

  std::istringstream tr(snap.section(2));
  PGSIM_ASSIGN_OR_RETURN(index.epoch_, ReadU64(tr));
  for (uint32_t gi = 0; gi < num_graphs; ++gi) {
    const int byte = tr.get();
    if (byte == std::char_traits<char>::eof()) {
      return Status::DataLoss("PMI Load: truncated alive bytes in " + path);
    }
    if (byte == 0) {
      // The serialized column was already empty; just mark it dead.
      index.alive_[gi] = 0;
      --index.num_alive_;
    }
  }
  PGSIM_ASSIGN_OR_RETURN(index.beta_watermark_, ReadDouble(tr));
  PGSIM_ASSIGN_OR_RETURN(index.adds_since_build_, ReadU64(tr));
  PGSIM_ASSIGN_OR_RETURN(index.removes_since_build_, ReadU64(tr));
  SipBoundOptions sip;
  PGSIM_ASSIGN_OR_RETURN(sip.max_embeddings, ReadU64(tr));
  PGSIM_ASSIGN_OR_RETURN(sip.max_cut_embeddings, ReadU64(tr));
  PGSIM_ASSIGN_OR_RETURN(sip.cuts.max_cuts, ReadU64(tr));
  PGSIM_ASSIGN_OR_RETURN(sip.cuts.max_cut_size, ReadU64(tr));
  PGSIM_ASSIGN_OR_RETURN(sip.cuts.max_nodes, ReadU64(tr));
  PGSIM_ASSIGN_OR_RETURN(sip.mc.xi, ReadDouble(tr));
  PGSIM_ASSIGN_OR_RETURN(sip.mc.tau, ReadDouble(tr));
  PGSIM_ASSIGN_OR_RETURN(sip.mc.min_samples, ReadU64(tr));
  PGSIM_ASSIGN_OR_RETURN(sip.mc.max_samples, ReadU64(tr));
  PGSIM_ASSIGN_OR_RETURN(sip.clique.exact_node_limit, ReadU64(tr));
  PGSIM_ASSIGN_OR_RETURN(sip.clique.max_bb_nodes, ReadU64(tr));
  index.sip_options_ = sip;
  index.bound_only_cells_ = true;  // version 1: sampled cells only
  if (snap.version() >= 2) {
    const int mode = tr.get();
    if (mode != 0 && mode != 1) {
      return Status::DataLoss("PMI Load: bad cell-mode byte in " + path);
    }
    index.bound_only_cells_ = mode == 1;
  }
  index.stats_.num_features = index.features_.size();
  index.stats_.size_bytes = index.SizeBytes();
  return index;
}

}  // namespace pgsim
