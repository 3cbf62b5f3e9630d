#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/file_util.h"
#include "common/rng.h"
#include "engine/access_engine.h"
#include "shard/wire.h"
#include "storage/snapshot_format.h"
#include "storage/snapshot_loader.h"
#include "storage/wal.h"
#include "synth/generators.h"
#include "tests/test_util.h"

namespace sargus {
namespace {

using storage::WalRecord;
using testing_util::MakeDiamond;

// ---- Scoped temp directory --------------------------------------------------

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/sargus_storage_test_XXXXXX";
    path_ = mkdtemp(tmpl);
    EXPECT_FALSE(path_.empty());
  }
  ~TempDir() {
    // Best-effort recursive cleanup (flat directories only).
    const std::string cmd = "rm -rf '" + path_ + "'";
    (void)system(cmd.c_str());
  }
  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// ---- Checksum golden values -------------------------------------------------

// Pinned against an independent FNV-1a-64 implementation. Both the wire
// protocol and the storage formats hash through common/checksum.h; these
// constants keep anyone from "fixing" the shared function in a way that
// silently invalidates every bundle and WAL on disk.
TEST(Checksum, GoldenValues) {
  EXPECT_EQ(Fnv1a64(nullptr, 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("hello", 5), 0xa430d84680aabd0bULL);
  EXPECT_EQ(Fnv1a64("sargus", 6), 0x6099bfb64f529ef2ULL);
  std::vector<uint8_t> all(256);
  for (size_t i = 0; i < 256; ++i) all[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Fnv1a64(all.data(), all.size()), 0x4242dc5249c33625ULL);
}

// The eight-lane striped variant bundle sections use is pinned the same
// way: these values freeze the lane interleave (byte i -> lane i % 8)
// and the little-endian digest-of-digests combine. A short input also
// pins the tail path, where fewer than eight lanes consume a byte.
TEST(Checksum, StripedGoldenValues) {
  EXPECT_EQ(StripedFnv1a64(nullptr, 0), 0xaf3449a2699d5925ULL);
  EXPECT_EQ(StripedFnv1a64("a", 1), 0xccbe2a2b8f6076f1ULL);
  EXPECT_EQ(StripedFnv1a64("sargus", 6), 0x31360b7e66d49632ULL);
  std::vector<uint8_t> all(256);
  for (size_t i = 0; i < 256; ++i) all[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(StripedFnv1a64(all.data(), all.size()), 0x86c25f65d9721d98ULL);
}

// The wire framing layer must keep using the same hash: its trailing
// checksum over the frame body equals common/checksum.h's answer.
TEST(Checksum, WireFramesUseTheSharedFnv) {
  wire::CheckRequest req;
  req.requester = 7;
  req.resource = 3;
  req.want_witness = 1;
  const std::vector<uint8_t> frame = wire::Encode(req);
  ASSERT_GT(frame.size(), 8u);
  const std::span<const uint8_t> body(frame.data(), frame.size() - 8);
  uint64_t trailer = 0;
  std::memcpy(&trailer, frame.data() + frame.size() - 8, 8);
  EXPECT_EQ(trailer, Fnv1a64(body));
}

// ---- WAL --------------------------------------------------------------------

std::vector<WalRecord> SampleRecords() {
  std::vector<WalRecord> recs;
  recs.push_back({WalRecord::Kind::kAddEdge, 1, 5, 10, 20, "friend"});
  recs.push_back({WalRecord::Kind::kRemoveEdge, 1, 6, 10, 20, "friend"});
  recs.push_back({WalRecord::Kind::kAddNode, 1, 7, 0, 0, ""});
  recs.push_back({WalRecord::Kind::kPolicyRefresh, 2, 0, 0, 0, ""});
  recs.push_back({WalRecord::Kind::kAddEdge, 2, 1, 3, 4, ""});  // empty label
  return recs;
}

void ExpectRecordsEq(const std::vector<WalRecord>& got,
                     const std::vector<WalRecord>& want, size_t want_count) {
  ASSERT_EQ(got.size(), want_count);
  for (size_t i = 0; i < want_count; ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind) << i;
    EXPECT_EQ(got[i].generation, want[i].generation) << i;
    EXPECT_EQ(got[i].overlay_version, want[i].overlay_version) << i;
    EXPECT_EQ(got[i].src, want[i].src) << i;
    EXPECT_EQ(got[i].dst, want[i].dst) << i;
    EXPECT_EQ(got[i].label, want[i].label) << i;
  }
}

TEST(Wal, RoundTrip) {
  TempDir dir;
  const std::string path = dir.File("wal.log");
  const auto recs = SampleRecords();
  {
    auto w = storage::WalWriter::Open(path);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    for (const auto& r : recs) ASSERT_TRUE(w->AppendBatch({&r, 1}).ok());
  }
  auto contents = storage::ReadWal(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_TRUE(contents->tail_status.ok());
  ExpectRecordsEq(contents->records, recs, recs.size());
}

TEST(Wal, MissingFileIsNotFound) {
  TempDir dir;
  auto contents = storage::ReadWal(dir.File("absent.log"));
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kNotFound);
}

TEST(Wal, TornTailIsTruncatedOnReopen) {
  TempDir dir;
  const std::string path = dir.File("wal.log");
  const auto recs = SampleRecords();
  {
    auto w = storage::WalWriter::Open(path);
    ASSERT_TRUE(w.ok());
    for (const auto& r : recs) ASSERT_TRUE(w->AppendBatch({&r, 1}).ok());
  }
  // Tear the last record: drop its final byte (the checksum's tail).
  auto bytes = ReadAll(path);
  bytes.pop_back();
  WriteAll(path, bytes);

  auto contents = storage::ReadWal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->tail_status.code(), StatusCode::kDataLoss);
  ExpectRecordsEq(contents->records, recs, recs.size() - 1);

  // A recovering writer resumes at valid_bytes; the torn bytes are gone
  // and a fresh append lands cleanly after the surviving prefix.
  auto w = storage::WalWriter::Open(path,
                                    static_cast<int64_t>(contents->valid_bytes));
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  ASSERT_TRUE(w->AppendBatch({&recs[0], 1}).ok());
  auto again = storage::ReadWal(path);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->tail_status.ok());
  ASSERT_EQ(again->records.size(), recs.size());
  EXPECT_EQ(again->records.back().label, recs[0].label);
}

TEST(Wal, HeaderDamageIsInvalidArgument) {
  TempDir dir;
  const std::string path = dir.File("wal.log");
  {
    auto w = storage::WalWriter::Open(path);
    ASSERT_TRUE(w.ok());
    const WalRecord rec = SampleRecords()[0];
    ASSERT_TRUE(w->AppendBatch({&rec, 1}).ok());
  }
  auto bytes = ReadAll(path);
  bytes[3] ^= 0x40;  // magic
  WriteAll(path, bytes);
  auto contents = storage::ReadWal(path);
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kInvalidArgument);
}

TEST(Wal, TruncateResetsToHeader) {
  TempDir dir;
  const std::string path = dir.File("wal.log");
  auto w = storage::WalWriter::Open(path);
  ASSERT_TRUE(w.ok());
  for (const auto& r : SampleRecords()) {
    ASSERT_TRUE(w->AppendBatch({&r, 1}).ok());
  }
  ASSERT_TRUE(w->Truncate().ok());
  EXPECT_EQ(w->size(), storage::kWalFileHeaderBytes);
  auto contents = storage::ReadWal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->tail_status.ok());
  EXPECT_TRUE(contents->records.empty());
}

// The WAL's single sync rule: one fdatasync per non-empty AppendBatch
// and none for an empty one. A batch's bytes are identical to the same
// records appended as one-record batches — record boundaries inside the
// batch are preserved.
TEST(Wal, AppendBatchRoundTripAndSyncCounters) {
  TempDir dir;
  const auto recs = SampleRecords();
  const std::string path = dir.File("batch.log");
  {
    auto w = storage::WalWriter::Open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->AppendBatch(recs).ok());
    EXPECT_EQ(w->append_count(), recs.size());
    EXPECT_EQ(w->sync_count(), 1u);
    const uint64_t size = w->size();
    ASSERT_TRUE(w->AppendBatch({}).ok());  // empty batch: no write, no sync
    EXPECT_EQ(w->append_count(), recs.size());
    EXPECT_EQ(w->sync_count(), 1u);
    EXPECT_EQ(w->size(), size);
  }
  auto contents = storage::ReadWal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->tail_status.ok());
  ExpectRecordsEq(contents->records, recs, recs.size());

  const std::string singles = dir.File("singles.log");
  {
    auto w = storage::WalWriter::Open(singles);
    ASSERT_TRUE(w.ok());
    for (const auto& r : recs) ASSERT_TRUE(w->AppendBatch({&r, 1}).ok());
    EXPECT_EQ(w->append_count(), recs.size());
    EXPECT_EQ(w->sync_count(), recs.size());  // one per non-empty batch
  }
  EXPECT_EQ(ReadAll(path), ReadAll(singles));
}

// A torn tail *inside* an AppendBatch truncates to the last whole
// record of the batch — a surviving batch prefix is safe because
// nothing was acknowledged before the full batch synced.
TEST(Wal, TornBatchTailTruncatesToLastWholeRecord) {
  TempDir dir;
  const std::string path = dir.File("wal.log");
  const auto recs = SampleRecords();
  {
    auto w = storage::WalWriter::Open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->AppendBatch(recs).ok());
  }
  // Chop the file mid-way into the batch's fourth record: the third
  // record's end is the last whole-record boundary.
  size_t third_end = storage::kWalFileHeaderBytes;
  for (int i = 0; i < 3; ++i) {
    third_end += storage::EncodeWalRecord(recs[i]).size();
  }
  auto bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), third_end + 4);
  bytes.resize(third_end + 4);  // a dangling length prefix, no payload
  WriteAll(path, bytes);

  auto contents = storage::ReadWal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_FALSE(contents->tail_status.ok());
  EXPECT_EQ(contents->valid_bytes, third_end);
  ExpectRecordsEq(contents->records, recs, 3);

  // A recovering writer resumes at the boundary and a fresh batch lands
  // cleanly after the surviving prefix.
  auto w = storage::WalWriter::Open(path,
                                    static_cast<int64_t>(contents->valid_bytes));
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  ASSERT_TRUE(w->AppendBatch(recs).ok());
  auto again = storage::ReadWal(path);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->tail_status.ok());
  EXPECT_EQ(again->records.size(), 3 + recs.size());
}

// ---- Bundle round trip ------------------------------------------------------

// Decision-level equality over every (requester, resource) pair: the
// recovered engine must answer byte-identically (grant bit, owner bit,
// matched rule) to the live one.
void ExpectDecisionEquivalence(const AccessControlEngine& live,
                               const AccessControlEngine& recovered,
                               size_t num_nodes, size_t num_resources) {
  for (NodeId v = 0; v < num_nodes; ++v) {
    for (ResourceId res = 0; res < num_resources; ++res) {
      auto a = live.CheckAccess({.requester = v, .resource = res});
      auto b = recovered.CheckAccess({.requester = v, .resource = res});
      ASSERT_EQ(a.ok(), b.ok()) << "v=" << v << " res=" << res;
      if (!a.ok()) continue;
      EXPECT_EQ(a->granted, b->granted) << "v=" << v << " res=" << res;
      EXPECT_EQ(a->owner_access, b->owner_access)
          << "v=" << v << " res=" << res;
      EXPECT_EQ(a->matched_rule, b->matched_rule)
          << "v=" << v << " res=" << res;
    }
  }
}

// The two configurations a bundle is saved and reopened under: the
// default (product walker only; no join sections) and kJoinIndex (the
// line-graph, oracle and cluster sections are saved, and OpenFromDir
// adopts them so the join answers without a rebuild).
struct BundleConfig {
  const char* name;
  EngineOptions options;
  bool join_built;
};
std::vector<BundleConfig> BundleConfigs() {
  EngineOptions join;
  join.evaluator = EvaluatorChoice::kJoinIndex;
  return {{"default", EngineOptions{}, false}, {"join", join, true}};
}

// The bundle's kFlagJoinBuilt must say whether the join sections are in it.
void ExpectJoinFlag(const std::string& bundle_path, bool join_built) {
  auto info = storage::ReadBundleInfo(bundle_path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ((info->flags & storage::kFlagJoinBuilt) != 0, join_built);
}

TEST(Bundle, RoundTripDiamondNoRebuild) {
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  const ResourceId photo = store.RegisterResource(0, "photo");
  ASSERT_TRUE(store.AddRuleFromPaths(photo, {"friend[1,2]/colleague[1]"}).ok());
  const ResourceId note = store.RegisterResource(2, "note");
  ASSERT_TRUE(store.AddRuleFromPaths(note, {"friend[1,3]"}).ok());

  for (const BundleConfig& config : BundleConfigs()) {
    SCOPED_TRACE(config.name);
    TempDir dir;
    AccessControlEngine engine(g, store, config.options);
    ASSERT_TRUE(engine.RebuildIndexes().ok());
    ASSERT_TRUE(engine.EnableDurability(dir.path()).ok());
    ExpectJoinFlag(dir.File(storage::kSnapshotFileName), config.join_built);

    SocialGraph g2;
    auto reopened = AccessControlEngine::OpenFromDir(dir.path(), &g2, store,
                                                     config.options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    // The whole point: the first CheckAccess works with no RebuildIndexes.
    EXPECT_TRUE((*reopened)->indexes_built());
    EXPECT_TRUE((*reopened)->durable());
    EXPECT_EQ((*reopened)->snapshot_generation(),
              engine.snapshot_generation());
    ExpectDecisionEquivalence(engine, **reopened, g.NumNodes(),
                              store.NumResources());
    // Under kJoinIndex the adopted join stack, not a fallback, answers a
    // grant (the overlay is empty).
    if (config.join_built) {
      bool join_granted = false;
      for (NodeId v = 0; v < g.NumNodes(); ++v) {
        auto r = (*reopened)->CheckAccess({.requester = v, .resource = photo});
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        if (r->granted && !r->owner_access) {
          EXPECT_EQ(r->evaluator_name, "join-index");
          join_granted = true;
        }
      }
      EXPECT_TRUE(join_granted);
    }
  }
}

TEST(Bundle, RoundTripPreservesWalTail) {
  TempDir dir;
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  const ResourceId photo = store.RegisterResource(0, "photo");
  ASSERT_TRUE(store.AddRuleFromPaths(photo, {"friend[1,2]/colleague[1]"}).ok());

  AccessControlEngine engine(g, store);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  ASSERT_TRUE(engine.EnableDurability(dir.path()).ok());

  // Mutations after the save live only in the WAL: a brand-new node
  // wired into the audience, an interned-later label, and a removal.
  auto n = engine.AddNode();
  ASSERT_TRUE(n.ok());
  ASSERT_TRUE(engine.AddEdge(2, *n, "colleague").ok());
  ASSERT_TRUE(engine.AddEdge(*n, 3, "mentor").ok());  // new label
  ASSERT_TRUE(engine.RemoveEdge(4, 3, "colleague").ok());
  EXPECT_GT(engine.wal_size_bytes(), storage::kWalFileHeaderBytes);

  SocialGraph g2;
  auto reopened = AccessControlEngine::OpenFromDir(dir.path(), &g2, store);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectDecisionEquivalence(engine, **reopened, g.NumNodes() + 1,
                            store.NumResources());

  // The recovered engine keeps logging: one more mutation, one more
  // reopen, still equivalent.
  ASSERT_TRUE((*reopened)->AddEdge(0, *n, "friend").ok());
  ASSERT_TRUE(engine.AddEdge(0, *n, "friend").ok());
  SocialGraph g3;
  auto again = AccessControlEngine::OpenFromDir(dir.path(), &g3, store);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ExpectDecisionEquivalence(engine, **again, g.NumNodes() + 1,
                            store.NumResources());
}

TEST(Bundle, ExplicitSaveTruncatesWal) {
  TempDir dir;
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  const ResourceId photo = store.RegisterResource(0, "photo");
  ASSERT_TRUE(store.AddRuleFromPaths(photo, {"friend[1]"}).ok());

  AccessControlEngine engine(g, store);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  ASSERT_TRUE(engine.EnableDurability(dir.path()).ok());
  ASSERT_TRUE(engine.AddEdge(0, 3, "friend").ok());
  EXPECT_GT(engine.wal_size_bytes(), storage::kWalFileHeaderBytes);
  ASSERT_TRUE(engine.SaveSnapshot().ok());
  EXPECT_EQ(engine.wal_size_bytes(), storage::kWalFileHeaderBytes);

  SocialGraph g2;
  auto reopened = AccessControlEngine::OpenFromDir(dir.path(), &g2, store);
  ASSERT_TRUE(reopened.ok());
  ExpectDecisionEquivalence(engine, **reopened, g.NumNodes(),
                            store.NumResources());
}

TEST(Bundle, MissingBundleIsNotFound) {
  TempDir dir;
  SocialGraph g;
  PolicyStore store;
  auto r = AccessControlEngine::OpenFromDir(dir.path(), &g, store);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// A bundle written under another format version must be refused, not
// misread: the header checksum is recomputed after the version edit so
// only the version check can catch it.
TEST(Bundle, OtherVersionIsDataLoss) {
  TempDir dir;
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  const ResourceId photo = store.RegisterResource(0, "photo");
  ASSERT_TRUE(store.AddRuleFromPaths(photo, {"friend[1,2]"}).ok());
  AccessControlEngine engine(g, store);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  ASSERT_TRUE(engine.EnableDurability(dir.path()).ok());

  const std::string bundle_path = dir.File(storage::kSnapshotFileName);
  auto info = storage::ReadBundleInfo(bundle_path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, storage::kBundleVersion);
  const std::vector<uint8_t> pristine = ReadAll(bundle_path);
  ASSERT_GE(pristine.size(), storage::kBundlePageSize);

  // Version 2 bundles predate the per-(node, label) CSR offsets.
  for (const uint32_t version :
       {uint32_t{1}, uint32_t{2}, storage::kBundleVersion + 1}) {
    std::vector<uint8_t> bytes = pristine;
    for (int i = 0; i < 4; ++i) {
      bytes[8 + i] = static_cast<uint8_t>(version >> (8 * i));
    }
    const uint64_t sum = Fnv1a64(bytes.data(), storage::kBundlePageSize - 8);
    for (int i = 0; i < 8; ++i) {
      bytes[storage::kBundlePageSize - 8 + i] =
          static_cast<uint8_t>(sum >> (8 * i));
    }
    WriteAll(bundle_path, bytes);

    auto read = storage::ReadBundleInfo(bundle_path);
    ASSERT_FALSE(read.ok()) << "version " << version;
    EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(read.status().ToString().find("unsupported version"),
              std::string::npos)
        << read.status().ToString();

    SocialGraph g2;
    auto opened = AccessControlEngine::OpenFromDir(dir.path(), &g2, store);
    ASSERT_FALSE(opened.ok()) << "version " << version;
    EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(opened.status().ToString().find("unsupported version"),
              std::string::npos)
        << opened.status().ToString();
  }
}

TEST(Bundle, OpenValidatesOptionsAgainstFlags) {
  TempDir dir;
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  // Save under the default configuration, which serves from the product
  // walker alone: no join stack is built or saved, and no closure.
  const EngineOptions online;
  auto idx = SnapshotIndexes::Build(g, online);
  ASSERT_TRUE(idx.ok());
  EXPECT_FALSE((*idx)->join_built);
  AccessControlEngine engine(g, store, online);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  ASSERT_TRUE(engine.EnableDurability(dir.path()).ok());
  auto info = storage::ReadBundleInfo(dir.File(storage::kSnapshotFileName));
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->flags & storage::kFlagJoinBuilt, 0u);

  SocialGraph g2;
  // kJoinIndex needs the join stack the bundle never built.
  EngineOptions join;
  join.evaluator = EvaluatorChoice::kJoinIndex;
  auto need_join =
      AccessControlEngine::OpenFromDir(dir.path(), &g2, store, join);
  ASSERT_FALSE(need_join.ok());
  EXPECT_EQ(need_join.status().code(), StatusCode::kFailedPrecondition);

  EngineOptions closure = online;
  closure.use_closure_prefilter = true;
  auto need_closure =
      AccessControlEngine::OpenFromDir(dir.path(), &g2, store, closure);
  ASSERT_FALSE(need_closure.ok());
  EXPECT_EQ(need_closure.status().code(), StatusCode::kFailedPrecondition);

  // The default configuration that saved it opens fine.
  auto ok = AccessControlEngine::OpenFromDir(dir.path(), &g2, store);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ExpectDecisionEquivalence(engine, **ok, g.NumNodes(), store.NumResources());
}

// Randomized equivalence across all three graph families: generate,
// attach policies, mutate (adds, removes, node growth), save at an
// arbitrary point, keep mutating so a WAL tail exists, reopen, compare
// every decision.
TEST(Bundle, RandomizedRoundTripEquivalence) {
  struct Case {
    std::string name;
    SocialGraph graph;
    BundleConfig config;
  };
  // Each configuration gets freshly generated graphs: the engine folds
  // compactions into the graph it was given.
  std::vector<Case> cases;
  for (const BundleConfig& config : BundleConfigs()) {
    const std::string suffix = std::string("/") + config.name;
    auto er = GenerateErdosRenyi(
        {.base = {.num_nodes = 120, .seed = 11}, .avg_out_degree = 3.0});
    ASSERT_TRUE(er.ok());
    cases.push_back({"er" + suffix, std::move(*er), config});
    auto ba = GenerateBarabasiAlbert(
        {.base = {.num_nodes = 100, .seed = 12}, .edges_per_node = 3});
    ASSERT_TRUE(ba.ok());
    cases.push_back({"ba" + suffix, std::move(*ba), config});
    auto ws = GenerateWattsStrogatz({.base = {.num_nodes = 100, .seed = 13},
                                     .neighbors_per_side = 2,
                                     .rewire_probability = 0.2});
    ASSERT_TRUE(ws.ok());
    cases.push_back({"ws" + suffix, std::move(*ws), config});
  }

  for (auto& c : cases) {
    SCOPED_TRACE(c.name);
    TempDir dir;
    PolicyStore store;
    const size_t n = c.graph.NumNodes();
    for (int i = 0; i < 4; ++i) {
      const ResourceId res =
          store.RegisterResource(static_cast<NodeId>(i * 7 % n), "res");
      ASSERT_TRUE(store
                      .AddRuleFromPaths(
                          res, {i % 2 == 0 ? "friend[1,2]"
                                           : "friend[1]/colleague[1,2]"})
                      .ok());
    }

    AccessControlEngine engine(c.graph, store, c.config.options);
    ASSERT_TRUE(engine.RebuildIndexes().ok());
    ASSERT_TRUE(engine.EnableDurability(dir.path()).ok());

    Rng rng(1000 + c.graph.NumEdges());
    const char* labels[] = {"friend", "colleague", "family"};
    auto mutate_once = [&](size_t logical_nodes) {
      const uint64_t pick = rng.NextBounded(10);
      const NodeId src = static_cast<NodeId>(rng.NextBounded(logical_nodes));
      const NodeId dst = static_cast<NodeId>(rng.NextBounded(logical_nodes));
      if (pick < 6) {
        ASSERT_TRUE(engine.AddEdge(src, dst, labels[rng.NextBounded(3)]).ok());
      } else if (pick < 8) {
        // Removal may legitimately miss; both engines see the same miss.
        (void)engine.RemoveEdge(src, dst, labels[rng.NextBounded(3)]);
      } else {
        auto added = engine.AddNode();
        ASSERT_TRUE(added.ok());
      }
    };

    size_t logical = n;
    for (int i = 0; i < 40; ++i) {
      mutate_once(logical);
      logical = engine.overlay().num_staged_nodes() + n;
    }
    ASSERT_TRUE(engine.SaveSnapshot().ok());  // bundle mid-sequence
    ExpectJoinFlag(dir.File(storage::kSnapshotFileName), c.config.join_built);
    for (int i = 0; i < 40; ++i) {
      mutate_once(logical);
      logical = engine.overlay().num_staged_nodes() + n;
    }
    engine.WaitForCompaction();  // quiesce before comparing writer state

    SocialGraph recovered_graph;
    auto reopened = AccessControlEngine::OpenFromDir(
        dir.path(), &recovered_graph, store, c.config.options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ExpectDecisionEquivalence(engine, **reopened, logical,
                              store.NumResources());
  }
}

// ---- Recovery ordering ------------------------------------------------------

// The crash window: a bundle is durably published but the process dies
// before the WAL truncation lands. Reopen must skip every covered record
// — double-applying the RemoveEdge below would fail (the logical edge is
// already gone) and double-applying the AddEdge would resurrect it.
TEST(Recovery, SkipsRecordsCoveredByTheBundle) {
  TempDir dir;
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  const ResourceId photo = store.RegisterResource(0, "photo");
  ASSERT_TRUE(store.AddRuleFromPaths(photo, {"friend[1,2]/colleague[1]"}).ok());

  AccessControlEngine engine(g, store);
  ASSERT_TRUE(engine.RebuildIndexes().ok());
  ASSERT_TRUE(engine.EnableDurability(dir.path()).ok());

  ASSERT_TRUE(engine.AddEdge(0, 3, "friend").ok());
  ASSERT_TRUE(engine.RemoveEdge(0, 3, "friend").ok());
  ASSERT_TRUE(engine.RemoveEdge(4, 3, "colleague").ok());
  // The records the next bundle covers, read before the save truncates
  // them away.
  const std::string wal_path = dir.File(storage::kWalFileName);
  auto covered = storage::ReadWal(wal_path);
  ASSERT_TRUE(covered.ok()) << covered.status().ToString();
  ASSERT_TRUE(engine.SaveSnapshot().ok());
  // Stamp a couple of uncovered records after the save.
  ASSERT_TRUE(engine.AddEdge(4, 3, "colleague").ok());
  ASSERT_TRUE(engine.AddEdge(1, 3, "colleague").ok());
  auto current = storage::ReadWal(wal_path);
  ASSERT_TRUE(current.ok()) << current.status().ToString();

  // Recreate the on-disk state of a crash between the bundle rename and
  // the WAL truncate: the new bundle beside a WAL that still holds the
  // covered records, followed by the uncovered ones.
  TempDir crashed;
  WriteAll(crashed.File(storage::kSnapshotFileName),
           ReadAll(dir.File(storage::kSnapshotFileName)));
  {
    auto w = storage::WalWriter::Open(crashed.File(storage::kWalFileName));
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    ASSERT_TRUE(w->AppendBatch(covered->records).ok());
    ASSERT_TRUE(w->AppendBatch(current->records).ok());
  }

  SocialGraph g2;
  auto reopened = AccessControlEngine::OpenFromDir(crashed.path(), &g2, store);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectDecisionEquivalence(engine, **reopened, g.NumNodes(),
                            store.NumResources());

  // Sanity on the oracle itself: the spliced WAL really does hold both
  // covered and uncovered records.
  auto wal = storage::ReadWal(crashed.File(storage::kWalFileName));
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal->records.size(), 5u);
}

// SIGKILL the WAL-appending process mid-stream, reopen, and verify the
// recovered engine agrees with a mirror engine driven by what an
// independent WAL read says survived. Every record the child saw
// acknowledged (each is appended as its own synced one-record batch)
// must be present.
TEST(Recovery, KillAndReopenReplaysAckedRecords) {
  TempDir dir;
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  const ResourceId photo = store.RegisterResource(0, "photo");
  ASSERT_TRUE(store.AddRuleFromPaths(photo, {"friend[1,3]"}).ok());

  storage::SnapshotStamp saved_stamp;
  {
    AccessControlEngine engine(g, store);
    ASSERT_TRUE(engine.RebuildIndexes().ok());
    ASSERT_TRUE(engine.EnableDurability(dir.path()).ok());
    saved_stamp = {engine.snapshot_generation(), engine.overlay_version()};
  }

  int pipefd[2];
  ASSERT_EQ(pipe(pipefd), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: append fsynced records forever, ack each on the pipe. The
    // parent SIGKILLs us mid-stream; no cleanup must be needed for the
    // log to stay recoverable.
    close(pipefd[0]);
    auto w = storage::WalWriter::Open(dir.File(storage::kWalFileName));
    if (!w.ok()) _exit(1);
    for (uint32_t i = 0;; ++i) {
      WalRecord rec;
      rec.kind = WalRecord::Kind::kAddEdge;
      rec.generation = saved_stamp.generation;
      rec.overlay_version = saved_stamp.overlay_version + 1 + i;
      rec.src = i % 6;
      rec.dst = (i + 2) % 6;
      rec.label = "friend";
      if (!w->AppendBatch({&rec, 1}).ok()) _exit(2);
      const char ack = 1;
      if (write(pipefd[1], &ack, 1) != 1) _exit(3);
    }
  }
  close(pipefd[1]);
  // Let a handful of acknowledged appends land, then kill mid-stream.
  char acks[8];
  size_t got = 0;
  while (got < sizeof(acks)) {
    const ssize_t n = read(pipefd[0], acks + got, sizeof(acks) - got);
    ASSERT_GT(n, 0);
    got += static_cast<size_t>(n);
  }
  ASSERT_EQ(kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  close(pipefd[0]);

  // Independent oracle: read the surviving log directly and drive a
  // plain in-memory engine with it.
  auto wal = storage::ReadWal(dir.File(storage::kWalFileName));
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_GE(wal->records.size(), got) << "an acked (fsynced) record is gone";

  SocialGraph mirror_graph = MakeDiamond();
  AccessControlEngine mirror(mirror_graph, store);
  ASSERT_TRUE(mirror.RebuildIndexes().ok());
  for (const auto& rec : wal->records) {
    ASSERT_TRUE(mirror.AddEdge(rec.src, rec.dst, rec.label).ok());
  }

  SocialGraph g2;
  auto reopened = AccessControlEngine::OpenFromDir(dir.path(), &g2, store);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectDecisionEquivalence(mirror, **reopened, mirror_graph.NumNodes(),
                            store.NumResources());
}

// The group-commit variant of the harness above: the child appends
// whole batches (AppendBatch — one fsync per batch)
// and acks per *batch*. SIGKILL can land mid-batch-write, leaving a
// torn batch tail; reopen must keep every acked batch intact and
// truncate the tail to the last whole record. A surviving prefix of the
// unacked batch is fine — nothing in it was acknowledged.
TEST(Recovery, KillAndReopenKeepsAckedGroupCommitBatches) {
  TempDir dir;
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  const ResourceId photo = store.RegisterResource(0, "photo");
  ASSERT_TRUE(store.AddRuleFromPaths(photo, {"friend[1,3]"}).ok());

  storage::SnapshotStamp saved_stamp;
  {
    AccessControlEngine engine(g, store);
    ASSERT_TRUE(engine.RebuildIndexes().ok());
    ASSERT_TRUE(engine.EnableDurability(dir.path()).ok());
    saved_stamp = {engine.snapshot_generation(), engine.overlay_version()};
  }

  constexpr uint32_t kBatchSize = 4;
  int pipefd[2];
  ASSERT_EQ(pipe(pipefd), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    close(pipefd[0]);
    auto w = storage::WalWriter::Open(dir.File(storage::kWalFileName));
    if (!w.ok()) _exit(1);
    for (uint32_t b = 0;; ++b) {
      std::vector<WalRecord> batch;
      for (uint32_t j = 0; j < kBatchSize; ++j) {
        const uint32_t i = b * kBatchSize + j;
        WalRecord rec;
        rec.kind = WalRecord::Kind::kAddEdge;
        rec.generation = saved_stamp.generation;
        rec.overlay_version = saved_stamp.overlay_version + 1 + i;
        rec.src = i % 6;
        rec.dst = (i + 2) % 6;
        rec.label = "friend";
        batch.push_back(rec);
      }
      if (!w->AppendBatch(batch).ok()) _exit(2);
      const char ack = 1;  // the whole batch is fsynced: ack it
      if (write(pipefd[1], &ack, 1) != 1) _exit(3);
    }
  }
  close(pipefd[1]);
  char acks[6];
  size_t acked_batches = 0;
  while (acked_batches < sizeof(acks)) {
    const ssize_t n =
        read(pipefd[0], acks + acked_batches, sizeof(acks) - acked_batches);
    ASSERT_GT(n, 0);
    acked_batches += static_cast<size_t>(n);
  }
  ASSERT_EQ(kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  close(pipefd[0]);

  // Every record of every acked batch survives; whatever follows is a
  // clean prefix of the next batch (possibly with a detected torn tail,
  // which a reopen truncates at valid_bytes — never mid-record).
  auto wal = storage::ReadWal(dir.File(storage::kWalFileName));
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_GE(wal->records.size(), acked_batches * kBatchSize)
      << "a record from an acked (group-committed) batch is gone";
  for (size_t i = 0; i < wal->records.size(); ++i) {
    EXPECT_EQ(wal->records[i].overlay_version,
              saved_stamp.overlay_version + 1 + i)
        << "surviving records are not a clean prefix";
  }

  SocialGraph mirror_graph = MakeDiamond();
  AccessControlEngine mirror(mirror_graph, store);
  ASSERT_TRUE(mirror.RebuildIndexes().ok());
  for (const auto& rec : wal->records) {
    ASSERT_TRUE(mirror.AddEdge(rec.src, rec.dst, rec.label).ok());
  }

  SocialGraph g2;
  auto reopened = AccessControlEngine::OpenFromDir(dir.path(), &g2, store);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectDecisionEquivalence(mirror, **reopened, mirror_graph.NumNodes(),
                            store.NumResources());
}

// ---- Corruption matrix ------------------------------------------------------

// Every single-bit flip over the bundle must surface as an explicit
// Status or leave the load byte-for-byte equivalent (flips in
// inter-section zero padding are outside every checksum and harmless) —
// never a crash, never silently different state.
TEST(Corruption, BundleBitFlipMatrix) {
  SocialGraph g = MakeDiamond();
  PolicyStore store;
  const ResourceId photo = store.RegisterResource(0, "photo");
  ASSERT_TRUE(store.AddRuleFromPaths(photo, {"friend[1,2]/colleague[1]"}).ok());
  // Under kJoinIndex the bundle also carries the line-graph, oracle and
  // cluster sections; their bytes must be covered and deterministic too.
  for (const BundleConfig& config : BundleConfigs()) {
    SCOPED_TRACE(config.name);
    TempDir dir;
    AccessControlEngine engine(g, store, config.options);
    ASSERT_TRUE(engine.RebuildIndexes().ok());
    ASSERT_TRUE(engine.EnableDurability(dir.path()).ok());

    const std::string bundle_path = dir.File(storage::kSnapshotFileName);
    ExpectJoinFlag(bundle_path, config.join_built);
    const std::vector<uint8_t> pristine = ReadAll(bundle_path);
    ASSERT_FALSE(pristine.empty());

    // Canonical re-serialization of the pristine load: the equivalence
    // oracle for flips that slip through (padding only).
    const std::string canon_path = dir.File("canon");
    {
      auto loaded = storage::LoadBundle(bundle_path);
      ASSERT_TRUE(loaded.ok());
      storage::BundlePayload payload;
      payload.graph = &loaded->graph;
      payload.indexes = loaded->indexes.get();
      payload.overlay = &loaded->overlay;
      payload.stamp = loaded->stamp;
      payload.compact_threshold = loaded->compact_threshold;
      ASSERT_TRUE(storage::WriteBundle(canon_path, payload).ok());
    }
    const std::vector<uint8_t> canon = ReadAll(canon_path);
    ASSERT_EQ(canon, pristine) << "serialization is not deterministic";

    // Every byte of the header page and of every section's byte range is
    // under a checksum; only inter-section zero padding is not.
    auto info = storage::ReadBundleInfo(bundle_path);
    ASSERT_TRUE(info.ok());
    auto covered = [&](size_t at) {
      if (at < storage::kBundlePageSize) return true;  // header + its checksum
      for (const auto& s : info->sections) {
        if (at >= s.offset && at < s.offset + s.size) return true;
      }
      return false;
    };

    const std::string corrupt_path = dir.File("corrupt");
    Rng rng(0xC0FFEE);
    int detected = 0, harmless = 0;
    constexpr int kFlips = 6000;
    for (int i = 0; i < kFlips; ++i) {
      std::vector<uint8_t> bytes = pristine;
      const size_t at = rng.NextBounded(bytes.size());
      bytes[at] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
      WriteAll(corrupt_path, bytes);
      auto loaded = storage::LoadBundle(corrupt_path);
      if (!loaded.ok()) {
        EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
            << "flip at byte " << at << ": " << loaded.status().ToString();
        ++detected;
        continue;
      }
      // The flip went undetected: it must have landed in padding, and the
      // loaded state must be byte-identical to the pristine one.
      EXPECT_FALSE(covered(at))
          << "flip at checksummed byte " << at << " loaded anyway";
      storage::BundlePayload payload;
      payload.graph = &loaded->graph;
      payload.indexes = loaded->indexes.get();
      payload.overlay = &loaded->overlay;
      payload.stamp = loaded->stamp;
      payload.compact_threshold = loaded->compact_threshold;
      ASSERT_TRUE(storage::WriteBundle(corrupt_path, payload).ok());
      EXPECT_EQ(ReadAll(corrupt_path), canon)
          << "undetected flip at byte " << at << " changed the loaded state";
      ++harmless;
    }
    EXPECT_GT(detected, 0);
    EXPECT_EQ(detected + harmless, kFlips);
  }
}

// WAL flips: every byte of the log is covered (header validation or a
// record checksum), so any flip must either fail the header check or
// shorten the clean prefix — the surviving records must be an exact
// prefix of the originals.
TEST(Corruption, WalBitFlipMatrix) {
  TempDir dir;
  const std::string path = dir.File("wal.log");
  std::vector<WalRecord> recs;
  {
    auto w = storage::WalWriter::Open(path);
    ASSERT_TRUE(w.ok());
    Rng seed_rng(7);
    for (int i = 0; i < 20; ++i) {
      WalRecord rec;
      rec.kind = static_cast<WalRecord::Kind>(1 + seed_rng.NextBounded(4));
      rec.generation = seed_rng.NextBounded(4);
      rec.overlay_version = i;
      if (rec.kind == WalRecord::Kind::kAddEdge ||
          rec.kind == WalRecord::Kind::kRemoveEdge) {
        // Only edge records carry endpoints; the codec drops them for
        // the other kinds, so only set them where they round-trip.
        rec.src = static_cast<NodeId>(seed_rng.NextBounded(100));
        rec.dst = static_cast<NodeId>(seed_rng.NextBounded(100));
        rec.label = seed_rng.NextBool(0.5) ? "friend" : "colleague";
      }
      ASSERT_TRUE(w->AppendBatch({&rec, 1}).ok());
      recs.push_back(rec);
    }
  }
  const std::vector<uint8_t> pristine = ReadAll(path);

  Rng rng(0xBADF00D);
  constexpr int kFlips = 5000;
  for (int i = 0; i < kFlips; ++i) {
    std::vector<uint8_t> bytes = pristine;
    const size_t at = rng.NextBounded(bytes.size());
    bytes[at] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
    WriteAll(path, bytes);
    auto contents = storage::ReadWal(path);
    if (!contents.ok()) {
      // Header damage only.
      EXPECT_LT(at, storage::kWalFileHeaderBytes) << "flip at byte " << at;
      EXPECT_EQ(contents.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    // Some record absorbed the flip: the scan must have stopped there.
    EXPECT_FALSE(contents->tail_status.ok()) << "flip at byte " << at;
    ASSERT_LT(contents->records.size(), recs.size());
    ExpectRecordsEq(contents->records, recs, contents->records.size());
  }
}

}  // namespace
}  // namespace sargus
