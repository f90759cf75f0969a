// Tests for the checksummed snapshot formats: the SnapshotWriter/Reader
// container, PMI3 and StructuralFilter round trips with byte-identical
// re-saves, legacy PMI2 loading, and — the robustness pin — a truncation
// sweep proving every proper prefix of every snapshot file is rejected with
// an error (never loaded as zeros), plus bit-flip detection.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "pgsim/datasets/synthetic.h"
#include "pgsim/graph/graph.h"
#include "pgsim/graph/io.h"
#include "pgsim/index/pmi.h"
#include "pgsim/query/structural_filter.h"
#include "pgsim/storage/io_util.h"

namespace pgsim {
namespace {

std::vector<ProbabilisticGraph> SmallDatabase(uint64_t seed, size_t n) {
  SyntheticOptions options;
  options.num_graphs = n;
  options.avg_vertices = 8;
  options.num_vertex_labels = 4;
  options.seed = seed;
  return GenerateDatabase(options).value();
}

PmiBuildOptions FastBuild() {
  PmiBuildOptions build;
  build.miner.beta = 0.2;
  build.miner.gamma = -1.0;
  build.miner.max_vertices = 3;
  build.sip.mc.min_samples = 1000;
  build.sip.mc.max_samples = 1000;
  return build;
}

std::string Slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SnapshotContainerTest, RoundTripsSections) {
  const std::string path = testing::TempDir() + "/pgsim_container.bin";
  SnapshotWriter writer(0x41424344u, 7);
  writer.AddSection("first");
  writer.AddSection("");  // empty sections are legal
  writer.AddSection(std::string("bin\0ary", 7));
  ASSERT_TRUE(writer.Commit(path, "snapshot.test").ok());

  auto reader = SnapshotReader::Open(path, 0x41424344u);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->version(), 7u);
  ASSERT_EQ(reader->num_sections(), 3u);
  EXPECT_EQ(reader->section(0), "first");
  EXPECT_EQ(reader->section(1), "");
  EXPECT_EQ(reader->section(2), std::string("bin\0ary", 7));

  // A different expected magic is InvalidArgument (wrong kind of file), not
  // DataLoss (damaged file).
  EXPECT_EQ(SnapshotReader::Open(path, 0x55555555u).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SnapshotContainerTest, EveryPrefixIsRejected) {
  const std::string path = testing::TempDir() + "/pgsim_container_trunc.bin";
  SnapshotWriter writer(0x41424344u, 1);
  writer.AddSection("some payload bytes");
  writer.AddSection("more payload");
  ASSERT_TRUE(writer.Commit(path, "snapshot.test").ok());
  const std::string full = Slurp(path);

  for (size_t cut = 0; cut < full.size(); ++cut) {
    Spit(path, full.substr(0, cut));
    auto reader = SnapshotReader::Open(path, 0x41424344u);
    ASSERT_FALSE(reader.ok()) << "prefix of " << cut << " bytes loaded";
  }
  std::remove(path.c_str());
}

TEST(SnapshotContainerTest, EveryBitFlipIsDetected) {
  const std::string path = testing::TempDir() + "/pgsim_container_flip.bin";
  SnapshotWriter writer(0x41424344u, 1);
  writer.AddSection("payload under test");
  ASSERT_TRUE(writer.Commit(path, "snapshot.test").ok());
  const std::string full = Slurp(path);

  for (size_t i = 0; i < full.size(); ++i) {
    std::string bad = full;
    bad[i] = static_cast<char>(bad[i] ^ 0x10);
    Spit(path, bad);
    auto reader = SnapshotReader::Open(path, 0x41424344u);
    EXPECT_FALSE(reader.ok()) << "flip at byte " << i << " loaded";
  }
  std::remove(path.c_str());
}

TEST(PmiSnapshotTest, TruncationSweepNeverLoads) {
  const auto db = SmallDatabase(9001, 5);
  auto pmi = ProbabilisticMatrixIndex::Build(db, FastBuild()).value();
  const std::string path = testing::TempDir() + "/pgsim_pmi_sweep.bin";
  ASSERT_TRUE(pmi.Save(path).ok());
  const std::string full = Slurp(path);
  ASSERT_TRUE(ProbabilisticMatrixIndex::Load(path).ok());

  // Every proper prefix must be an error — truncated bounds loaded as zeros
  // would silently pass wrong graphs through the pruning stage.
  for (size_t cut = 0; cut < full.size(); ++cut) {
    Spit(path, full.substr(0, cut));
    auto loaded = ProbabilisticMatrixIndex::Load(path);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << cut << " bytes loaded";
  }
  std::remove(path.c_str());
}

TEST(PmiSnapshotTest, BitFlipIsDataLoss) {
  const auto db = SmallDatabase(9011, 4);
  auto pmi = ProbabilisticMatrixIndex::Build(db, FastBuild()).value();
  const std::string path = testing::TempDir() + "/pgsim_pmi_flip.bin";
  ASSERT_TRUE(pmi.Save(path).ok());
  std::string bytes = Slurp(path);
  // Flip a byte in the middle of the column data.
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  Spit(path, bytes);
  auto loaded = ProbabilisticMatrixIndex::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(PmiSnapshotTest, TrailerBitFlipSweepIsDataLoss) {
  const auto db = SmallDatabase(9011, 4);
  auto pmi = ProbabilisticMatrixIndex::Build(db, FastBuild()).value();
  const std::string path = testing::TempDir() + "/pgsim_pmi_trailer.bin";
  ASSERT_TRUE(pmi.Save(path).ok());
  const std::string full = Slurp(path);
  auto snap = SnapshotReader::Open(path, 0x504d4933u);
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap->num_sections(), 3u);
  // The trailer section's frame and body (cell-mode byte last), then the
  // footer: every single-byte flip there must be detected.
  const size_t tail = 8 + snap->section(2).size() + 8;
  ASSERT_LT(tail, full.size());
  for (size_t i = full.size() - tail; i < full.size(); ++i) {
    std::string bad = full;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    Spit(path, bad);
    auto loaded = ProbabilisticMatrixIndex::Load(path);
    ASSERT_FALSE(loaded.ok()) << "flip at byte " << i << " loaded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << i;
  }
  std::remove(path.c_str());
}

// PMI3 version 1 predates the trailer's cell-mode byte: such a file loads
// as bound-only, so AddGraph keeps filling sampled cells.
TEST(PmiSnapshotTest, Version1FileLoadsAsBoundOnly) {
  const auto db = SmallDatabase(9013, 5);
  auto pmi = ProbabilisticMatrixIndex::Build(db, FastBuild()).value();
  ASSERT_FALSE(pmi.bound_only_cells());
  const std::string path = testing::TempDir() + "/pgsim_pmi_v1.bin";
  ASSERT_TRUE(pmi.Save(path).ok());
  auto snap = SnapshotReader::Open(path, 0x504d4933u);
  ASSERT_TRUE(snap.ok());
  const std::string& trailer = snap->section(2);
  ASSERT_EQ(trailer.back(), '\0');  // exact cells
  SnapshotWriter v1(0x504d4933u, 1);
  v1.AddSection(snap->section(0));
  v1.AddSection(snap->section(1));
  v1.AddSection(trailer.substr(0, trailer.size() - 1));
  ASSERT_TRUE(v1.Commit(path, "snapshot.pmi").ok());

  auto loaded = ProbabilisticMatrixIndex::Load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->bound_only_cells());
  for (uint32_t gi = 0; gi < pmi.num_graphs(); ++gi) {
    const auto a = pmi.EntriesFor(gi);
    const auto b = loaded->EntriesFor(gi);
    ASSERT_EQ(a.size(), b.size());
    for (size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].lower_opt, b[k].lower_opt);
      EXPECT_EQ(a[k].upper_opt, b[k].upper_opt);
    }
  }

  PmiBuildOptions bound_only = FastBuild();
  bound_only.bound_only_cells = true;
  auto reference = ProbabilisticMatrixIndex::Build(db, bound_only).value();
  const ProbabilisticGraph extra = SmallDatabase(9019, 1)[0];
  auto a = loaded->AddGraph(extra, loaded->sip_options(), 3);
  auto b = reference.AddGraph(extra, reference.sip_options(), 3);
  ASSERT_TRUE(a.ok() && b.ok());
  const auto ca = loaded->EntriesFor(*a);
  const auto cb = reference.EntriesFor(*b);
  ASSERT_EQ(ca.size(), cb.size());
  for (size_t k = 0; k < ca.size(); ++k) {
    EXPECT_EQ(ca[k].lower_opt, cb[k].lower_opt);
    EXPECT_EQ(ca[k].upper_opt, cb[k].upper_opt);
    EXPECT_EQ(ca[k].lower_simple, cb[k].lower_simple);
    EXPECT_EQ(ca[k].upper_simple, cb[k].upper_simple);
  }
  EXPECT_EQ(loaded->stats().exact_cells, 0u);
}

// Writes a legacy PMI2 file (flat stream: magic, counts, features, columns,
// epoch/alive/beta/adds/removes trailer — no checksums) equivalent to
// `pmi`'s state, byte-compatible with the pre-PMI3 Save.
void WriteLegacyPmi2(const std::string& path,
                     const ProbabilisticMatrixIndex& pmi, uint64_t epoch,
                     const std::vector<uint8_t>& alive) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  WriteU32(os, 0x504d4932u);  // "PMI2"
  WriteU32(os, static_cast<uint32_t>(pmi.features().size()));
  WriteU32(os, pmi.num_graphs());
  for (const Feature& f : pmi.features()) {
    WriteGraph(os, f.graph);
    WriteU32(os, static_cast<uint32_t>(f.support.size()));
    for (uint32_t gi : f.support) WriteU32(os, gi);
    WriteDouble(os, f.frequency);
    WriteDouble(os, f.discriminative);
    WriteU32(os, f.level);
  }
  for (uint32_t gi = 0; gi < pmi.num_graphs(); ++gi) {
    const auto column = pmi.EntriesFor(gi);
    WriteU32(os, static_cast<uint32_t>(column.size()));
    for (const PmiEntry& e : column) {
      WriteU32(os, e.feature_id);
      WriteDouble(os, e.lower_opt);
      WriteDouble(os, e.upper_opt);
      WriteDouble(os, e.lower_simple);
      WriteDouble(os, e.upper_simple);
    }
  }
  WriteU64(os, epoch);
  for (uint32_t gi = 0; gi < pmi.num_graphs(); ++gi) {
    os.put(alive[gi] ? '\1' : '\0');
  }
  WriteDouble(os, 0.2);
  WriteU64(os, 0);
  WriteU64(os, 0);
}

TEST(PmiSnapshotTest, LegacyPmi2StillLoads) {
  const auto db = SmallDatabase(9021, 4);
  auto pmi = ProbabilisticMatrixIndex::Build(db, FastBuild()).value();
  const std::string path = testing::TempDir() + "/pgsim_pmi2_legacy.bin";
  std::vector<uint8_t> alive(pmi.num_graphs(), 1);
  alive[2] = 0;
  WriteLegacyPmi2(path, pmi, /*epoch=*/5, alive);

  auto loaded = ProbabilisticMatrixIndex::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_graphs(), pmi.num_graphs());
  EXPECT_EQ(loaded->epoch(), 5u);
  EXPECT_TRUE(loaded->bound_only_cells());  // PMI2 predates exact cells
  EXPECT_FALSE(loaded->IsAlive(2));
  EXPECT_EQ(loaded->num_alive(), pmi.num_graphs() - 1);
  for (uint32_t gi = 0; gi < pmi.num_graphs(); ++gi) {
    if (gi == 2) continue;
    const auto a = pmi.EntriesFor(gi);
    const auto b = loaded->EntriesFor(gi);
    ASSERT_EQ(a.size(), b.size());
    for (size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].feature_id, b[k].feature_id);
      EXPECT_FLOAT_EQ(a[k].upper_opt, b[k].upper_opt);
    }
  }
  std::remove(path.c_str());
}

TEST(PmiSnapshotTest, LegacyPmi2TruncationSweepNeverLoads) {
  const auto db = SmallDatabase(9031, 3);
  auto pmi = ProbabilisticMatrixIndex::Build(db, FastBuild()).value();
  const std::string path = testing::TempDir() + "/pgsim_pmi2_sweep.bin";
  WriteLegacyPmi2(path, pmi, 0, std::vector<uint8_t>(pmi.num_graphs(), 1));
  const std::string full = Slurp(path);
  ASSERT_TRUE(ProbabilisticMatrixIndex::Load(path).ok());

  // Legacy files have no checksums, but truncation must still surface as an
  // error from the field readers — never as silently-zero trailing state.
  for (size_t cut = 0; cut < full.size(); ++cut) {
    Spit(path, full.substr(0, cut));
    auto loaded = ProbabilisticMatrixIndex::Load(path);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << cut << " bytes loaded";
  }
  std::remove(path.c_str());
}

struct FilterSetup {
  std::vector<ProbabilisticGraph> db;
  ProbabilisticMatrixIndex pmi;
  std::vector<Graph> certain;
  StructuralFilter filter;
};

FilterSetup BuildFilter(uint64_t seed, size_t n) {
  FilterSetup s;
  s.db = SmallDatabase(seed, n);
  s.pmi = ProbabilisticMatrixIndex::Build(s.db, FastBuild()).value();
  for (const auto& g : s.db) s.certain.push_back(g.certain());
  StructuralFilterOptions options;
  options.exact_check = true;
  s.filter = StructuralFilter::Build(s.certain, s.pmi.features(), options);
  return s;
}

TEST(FilterSnapshotTest, SaveLoadPreservesStateAndResaveIsByteIdentical) {
  FilterSetup s = BuildFilter(9041, 6);
  const std::string path1 = testing::TempDir() + "/pgsim_filter_1.bin";
  const std::string path2 = testing::TempDir() + "/pgsim_filter_2.bin";
  ASSERT_TRUE(s.filter.Save(path1).ok());

  auto loaded = StructuralFilter::Load(path1, s.certain, s.pmi.features());
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_graphs(), s.filter.num_graphs());
  EXPECT_EQ(loaded->num_alive(), s.filter.num_alive());
  ASSERT_EQ(loaded->num_features(), s.filter.num_features());
  for (uint32_t fi = 0; fi < s.filter.num_features(); ++fi) {
    for (uint32_t gi = 0; gi < s.filter.num_graphs(); ++gi) {
      EXPECT_EQ(loaded->CountAt(fi, gi), s.filter.CountAt(fi, gi))
          << "cell (" << fi << ", " << gi << ")";
    }
  }
  // The loaded filter filters identically.
  const Graph& q = s.certain[1];
  const std::vector<Graph> relaxed = {q};
  EXPECT_EQ(loaded->Filter(q, relaxed, 0), s.filter.Filter(q, relaxed, 0));

  ASSERT_TRUE(loaded->Save(path2).ok());
  EXPECT_EQ(Slurp(path1), Slurp(path2));
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(FilterSnapshotTest, TruncationSweepNeverLoads) {
  FilterSetup s = BuildFilter(9043, 4);
  const std::string path = testing::TempDir() + "/pgsim_filter_sweep.bin";
  ASSERT_TRUE(s.filter.Save(path).ok());
  const std::string full = Slurp(path);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    Spit(path, full.substr(0, cut));
    auto loaded = StructuralFilter::Load(path, s.certain, s.pmi.features());
    ASSERT_FALSE(loaded.ok()) << "prefix of " << cut << " bytes loaded";
  }
  std::remove(path.c_str());
}

TEST(FilterSnapshotTest, MismatchedDatabaseIsRejected) {
  FilterSetup s = BuildFilter(9047, 5);
  const std::string path = testing::TempDir() + "/pgsim_filter_mismatch.bin";
  ASSERT_TRUE(s.filter.Save(path).ok());
  // Wrong graph count: rebinding would index out of range.
  std::vector<Graph> fewer(s.certain.begin(), s.certain.end() - 1);
  auto loaded = StructuralFilter::Load(path, fewer, s.pmi.features());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  // Wrong feature count likewise.
  std::vector<Feature> fewer_features(s.pmi.features().begin(),
                                      s.pmi.features().end() - 1);
  auto loaded2 = StructuralFilter::Load(path, s.certain, fewer_features);
  ASSERT_FALSE(loaded2.ok());
  EXPECT_EQ(loaded2.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pgsim
