#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "graph/csr.h"
#include "graph/delta_overlay.h"
#include "storage/snapshot_format.h"
#include "storage/snapshot_loader.h"
#include "synth/generators.h"
#include "tests/test_util.h"

namespace sargus {
namespace {

TEST(CsrSnapshot, MirrorsLiveEdges) {
  SocialGraph g = testing_util::MakeDiamond();
  CsrSnapshot csr = CsrSnapshot::Build(g);
  EXPECT_EQ(csr.NumNodes(), g.NumNodes());
  EXPECT_EQ(csr.NumEdges(), g.NumEdges());

  // Node 0 has friend edges to 1 and 4.
  auto out0 = csr.Out(0);
  ASSERT_EQ(out0.size(), 2u);
  std::vector<NodeId> targets;
  for (const auto& e : out0) targets.push_back(e.other);
  std::sort(targets.begin(), targets.end());
  EXPECT_EQ(targets, (std::vector<NodeId>{1, 4}));

  // In-edges of 3: colleague from 2 and 4, friend from 5.
  EXPECT_EQ(csr.In(3).size(), 3u);
}

TEST(CsrSnapshot, LabelRanges) {
  SocialGraph g = testing_util::MakeDiamond();
  CsrSnapshot csr = CsrSnapshot::Build(g);
  const LabelId friend_l = g.labels().Lookup("friend");
  const LabelId colleague_l = g.labels().Lookup("colleague");

  EXPECT_EQ(csr.OutWithLabel(1, friend_l).size(), 1u);     // 1 -f-> 2
  EXPECT_EQ(csr.OutWithLabel(1, colleague_l).size(), 1u);  // 1 -c-> 5
  EXPECT_EQ(csr.InWithLabel(3, colleague_l).size(), 2u);   // from 2 and 4
  EXPECT_EQ(csr.InWithLabel(3, friend_l).size(), 1u);      // from 5
  EXPECT_TRUE(csr.OutWithLabel(3, friend_l).empty());
}

using Adj = std::vector<std::tuple<LabelId, NodeId, EdgeId>>;

Adj Sorted(std::span<const CsrSnapshot::Entry> entries) {
  Adj out;
  for (const auto& e : entries) out.emplace_back(e.label, e.other, e.edge);
  std::sort(out.begin(), out.end());
  return out;
}

/// Checks `csr` against the live edges of `g`, independently of the
/// CSR's offsets: every node's Out/In must hold exactly its edges, and
/// every OutWithLabel/InWithLabel (labels carried by no edge and labels
/// past NumLabels() included) exactly the label filter over Out/In.
void ExpectMatchesGraph(const CsrSnapshot& csr, const SocialGraph& g) {
  ASSERT_EQ(csr.NumNodes(), g.NumNodes());
  ASSERT_EQ(csr.NumEdges(), g.NumEdges());
  std::vector<Adj> want_out(g.NumNodes());
  std::vector<Adj> want_in(g.NumNodes());
  for (EdgeId e = 0; e < g.EdgeSlotCount(); ++e) {
    if (!g.IsLiveEdge(e)) continue;
    const Edge& rec = g.edge(e);
    want_out[rec.src].emplace_back(rec.label, rec.dst, e);
    want_in[rec.dst].emplace_back(rec.label, rec.src, e);
  }
  const LabelId probe = static_cast<LabelId>(g.labels().size() + 2);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    std::sort(want_out[v].begin(), want_out[v].end());
    std::sort(want_in[v].begin(), want_in[v].end());
    ASSERT_EQ(Sorted(csr.Out(v)), want_out[v]) << "node " << v;
    ASSERT_EQ(Sorted(csr.In(v)), want_in[v]) << "node " << v;
    for (LabelId l = 0; l < probe; ++l) {
      for (const bool out : {true, false}) {
        Adj want;
        for (const auto& t : out ? want_out[v] : want_in[v]) {
          if (std::get<0>(t) == l) want.push_back(t);
        }
        const auto got = out ? csr.OutWithLabel(v, l) : csr.InWithLabel(v, l);
        ASSERT_EQ(Sorted(got), want)
            << "node " << v << " label " << l << (out ? " out" : " in");
      }
    }
    EXPECT_TRUE(csr.OutWithLabel(v, kInvalidLabel).empty());
    EXPECT_TRUE(csr.InWithLabel(v, kInvalidLabel).empty());
  }
}

/// Tombstones every live edge carrying `label`, so the label stays
/// interned but no edge carries it.
void DropLabel(SocialGraph& g, LabelId label) {
  for (EdgeId e = 0; e < g.EdgeSlotCount(); ++e) {
    if (g.IsLiveEdge(e) && g.edge(e).label == label) {
      ASSERT_TRUE(g.RemoveEdge(e).ok());
    }
  }
}

TEST(CsrSnapshot, LabelRangesMatchFilterOnGeneratedGraphs) {
  ErdosRenyiSpec er;
  er.base.num_nodes = 400;
  er.base.seed = 7;
  er.base.labels = {"friend", "colleague", "family", "rival"};
  SocialGraph er_graph = std::move(GenerateErdosRenyi(er)).ValueOrDie();
  // A middle label no edge carries, and a trailing one (past the
  // largest label on any edge) that only the dictionary knows.
  DropLabel(er_graph, er_graph.labels().Lookup("colleague"));
  DropLabel(er_graph, er_graph.labels().Lookup("rival"));
  ExpectMatchesGraph(CsrSnapshot::Build(er_graph), er_graph);

  BarabasiAlbertSpec ba;
  ba.base.num_nodes = 400;
  ba.base.seed = 11;
  SocialGraph ba_graph = std::move(GenerateBarabasiAlbert(ba)).ValueOrDie();
  ExpectMatchesGraph(CsrSnapshot::Build(ba_graph), ba_graph);
}

TEST(CsrSnapshot, MergedBuildLabelRangesMatchFoldedGraph) {
  BarabasiAlbertSpec ba;
  ba.base.num_nodes = 300;
  ba.base.seed = 5;
  SocialGraph g = std::move(GenerateBarabasiAlbert(ba)).ValueOrDie();
  // Interned before the freeze, carried only by staged additions.
  const LabelId rival = g.labels().Intern("rival");
  const size_t base_nodes = g.NumNodes();

  DeltaOverlay overlay;
  for (int i = 0; i < 4; ++i) overlay.StageNode();
  const size_t logical_nodes = base_nodes + overlay.num_staged_nodes();
  Rng rng(99);
  for (EdgeId e = 0; e < g.EdgeSlotCount(); e += 7) {
    const Edge& rec = g.edge(e);
    overlay.StageRemove(rec.src, rec.dst, rec.label);
  }
  for (int i = 0; i < 200; ++i) {
    const NodeId src = static_cast<NodeId>(rng.NextBounded(logical_nodes));
    const NodeId dst = static_cast<NodeId>(rng.NextBounded(logical_nodes));
    const LabelId label =
        i % 3 == 0 ? rival : static_cast<LabelId>(rng.NextBounded(3));
    if (!g.FindEdge(src, dst, label).has_value()) {
      overlay.StageAdd(src, dst, label);
    }
  }
  // Staged nodes get edges in both directions.
  overlay.StageAdd(static_cast<NodeId>(base_nodes), 0, rival);
  overlay.StageAdd(1, static_cast<NodeId>(base_nodes + 3), 0);

  const CsrSnapshot merged = CsrSnapshot::Build(
      g, overlay, static_cast<EdgeId>(g.EdgeSlotCount()));
  SocialGraph folded = g;
  (void)folded.AddNodes(overlay.num_staged_nodes());
  overlay.ForEachRemoved([&](const DeltaOverlay::EdgeTriple& t) {
    (void)folded.RemoveEdge(*folded.FindEdge(t.src, t.dst, t.label));
  });
  overlay.ForEachAdded([&](const DeltaOverlay::EdgeTriple& t) {
    (void)folded.AddEdge(t.src, t.dst, t.label);
  });
  ExpectMatchesGraph(merged, folded);
  EXPECT_EQ(merged.NumLabels(), CsrSnapshot::Build(folded).NumLabels());
}

TEST(CsrSnapshot, LabelRangesSurviveBundleRoundTrip) {
  ErdosRenyiSpec er;
  er.base.num_nodes = 300;
  er.base.seed = 3;
  SocialGraph g = std::move(GenerateErdosRenyi(er)).ValueOrDie();
  DropLabel(g, g.labels().Lookup("colleague"));
  SnapshotIndexes idx;
  idx.csr = CsrSnapshot::Build(g);
  const DeltaOverlay overlay;

  char tmpl[] = "/tmp/sargus_csr_test_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string path = std::string(tmpl) + "/bundle";
  ASSERT_TRUE(storage::WriteBundle(
                  path, {.graph = &g, .indexes = &idx, .overlay = &overlay})
                  .ok());
  auto loaded = storage::LoadBundle(path);
  (void)std::system(("rm -rf '" + std::string(tmpl) + "'").c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const CsrSnapshot& csr = loaded->indexes->csr;
  EXPECT_EQ(csr.NumLabels(), idx.csr.NumLabels());
  ExpectMatchesGraph(csr, loaded->graph);
  ExpectMatchesGraph(csr, g);
}

TEST(CsrSnapshot, IgnoresTombstonedEdges) {
  SocialGraph g;
  g.AddNode();
  g.AddNode();
  const EdgeId e = *g.AddEdge(0, 1, "friend");
  (void)g.AddEdge(1, 0, "friend");
  ASSERT_TRUE(g.RemoveEdge(e).ok());
  CsrSnapshot csr = CsrSnapshot::Build(g);
  EXPECT_EQ(csr.NumEdges(), 1u);
  EXPECT_TRUE(csr.Out(0).empty());
  EXPECT_EQ(csr.Out(1).size(), 1u);
}

TEST(CsrSnapshot, SnapshotIsImmutable) {
  SocialGraph g;
  g.AddNode();
  g.AddNode();
  (void)g.AddEdge(0, 1, "friend");
  CsrSnapshot csr = CsrSnapshot::Build(g);
  (void)g.AddEdge(1, 0, "friend");  // mutate after snapshot
  EXPECT_EQ(csr.NumEdges(), 1u);    // snapshot unchanged
  EXPECT_EQ(g.NumEdges(), 2u);
}

TEST(CsrSnapshot, EmptyGraph) {
  SocialGraph g;
  CsrSnapshot csr = CsrSnapshot::Build(g);
  EXPECT_EQ(csr.NumNodes(), 0u);
  EXPECT_EQ(csr.NumEdges(), 0u);
}

}  // namespace
}  // namespace sargus
