#include "graph/csr.h"

#include <algorithm>
#include <string>

#include "graph/delta_overlay.h"

namespace sargus {

Status CsrSnapshot::CheckKeyBudget(size_t num_nodes, size_t num_labels) {
  if (num_labels == 0 || num_nodes <= kMaxKeys / num_labels) {
    return OkStatus();
  }
  return Status::ResourceExhausted(
      "csr: " + std::to_string(num_nodes) + " nodes x " +
      std::to_string(num_labels) + " labels exceeds the " +
      std::to_string(kMaxKeys) + " (node, label) key budget");
}

CsrSnapshot CsrSnapshot::FromEdgeList(size_t num_nodes,
                                      const std::vector<Edge>& logical,
                                      const std::vector<EdgeId>& ids) {
  CsrSnapshot snap;
  snap.num_nodes_ = num_nodes;
  for (const Edge& rec : logical) {
    snap.num_labels_ = std::max<size_t>(snap.num_labels_, rec.label + 1);
  }
  const size_t labels = snap.num_labels_;
  const size_t num_keys = num_nodes * labels;
  // Counting pass into off[key + 2], so that after the prefix sum
  // off[key + 1] is the start of key `key` and serves as its fill
  // cursor: once filled it has advanced to the start of key + 1, which
  // leaves the final offsets in place with no cursor copy.
  snap.out_offsets_.assign(num_keys + 2, 0);
  snap.in_offsets_.assign(num_keys + 2, 0);
  for (const Edge& rec : logical) {
    ++snap.out_offsets_[rec.src * labels + rec.label + 2];
    ++snap.in_offsets_[rec.dst * labels + rec.label + 2];
  }
  for (size_t k = 2; k < num_keys + 2; ++k) {
    snap.out_offsets_[k] += snap.out_offsets_[k - 1];
    snap.in_offsets_[k] += snap.in_offsets_[k - 1];
  }
  snap.out_entries_.resize(logical.size());
  snap.in_entries_.resize(logical.size());
  for (size_t i = 0; i < logical.size(); ++i) {
    const Edge& rec = logical[i];
    snap.out_entries_[snap.out_offsets_[rec.src * labels + rec.label + 1]++] =
        {rec.dst, rec.label, ids[i]};
    snap.in_entries_[snap.in_offsets_[rec.dst * labels + rec.label + 1]++] = {
        rec.src, rec.label, ids[i]};
  }
  snap.out_offsets_.pop_back();
  snap.in_offsets_.pop_back();

  // Sort each node's range by (label, endpoint), for determinism: one
  // sort per node rather than per (node, label) key keeps this pass
  // independent of the alphabet size.
  auto by_label_other = [](const Entry& a, const Entry& b) {
    return a.label != b.label ? a.label < b.label : a.other < b.other;
  };
  for (size_t n = 0; n < num_nodes; ++n) {
    const size_t lo = n * labels, hi = (n + 1) * labels;
    std::sort(snap.out_entries_.begin() + snap.out_offsets_[lo],
              snap.out_entries_.begin() + snap.out_offsets_[hi],
              by_label_other);
    std::sort(snap.in_entries_.begin() + snap.in_offsets_[lo],
              snap.in_entries_.begin() + snap.in_offsets_[hi], by_label_other);
  }
  return snap;
}

CsrSnapshot CsrSnapshot::Build(const SocialGraph& g) {
  std::vector<Edge> logical;
  std::vector<EdgeId> ids;
  logical.reserve(g.NumEdges());
  ids.reserve(g.NumEdges());
  for (EdgeId e = 0; e < g.EdgeSlotCount(); ++e) {
    if (!g.IsLiveEdge(e)) continue;
    logical.push_back(g.edge(e));
    ids.push_back(e);
  }
  return FromEdgeList(g.NumNodes(), logical, ids);
}

CsrSnapshot CsrSnapshot::Build(const SocialGraph& g,
                               const DeltaOverlay& overlay,
                               EdgeId first_new_edge) {
  // Materialize the logical edge list: surviving base edges keep their
  // slot ids; staged additions get the ids the fold will assign, in the
  // overlay's (stable for one frozen copy) iteration order.
  std::vector<Edge> logical;
  std::vector<EdgeId> ids;
  logical.reserve(g.NumEdges() + overlay.NumAdded());
  ids.reserve(g.NumEdges() + overlay.NumAdded());
  const bool check_removed = overlay.has_deletions();
  for (EdgeId e = 0; e < g.EdgeSlotCount(); ++e) {
    if (!g.IsLiveEdge(e)) continue;
    const Edge& rec = g.edge(e);
    if (check_removed && overlay.IsRemoved(rec.src, rec.dst, rec.label)) {
      continue;
    }
    logical.push_back(rec);
    ids.push_back(e);
  }
  EdgeId next = first_new_edge;
  overlay.ForEachAdded([&](const DeltaOverlay::EdgeTriple& t) {
    logical.push_back(Edge{t.src, t.dst, t.label});
    ids.push_back(next++);
  });
  return FromEdgeList(g.NumNodes() + overlay.num_staged_nodes(), logical,
                      ids);
}

}  // namespace sargus
