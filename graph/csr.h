#ifndef SARGUS_GRAPH_CSR_H_
#define SARGUS_GRAPH_CSR_H_

/// \file csr.h
/// \brief CsrSnapshot: an immutable compressed-sparse-row view of a
/// SocialGraph, in both directions.
///
/// This is the structure traversal-based evaluators run on. It is a value
/// type: Build() walks the live edges once and the result never observes
/// later mutations of the source graph. Entries are grouped by (node,
/// label) — sorted by label within a node's range, then by endpoint — and
/// one offset per (node, label) pair makes both a node's whole range and
/// one label's sub-range two array loads. The offsets cost 4 bytes per
/// (node, label) key and direction, so their size is nodes x labels, not
/// edges: kMaxKeys bounds it, and the engine's builds check the bound
/// first (CheckKeyBudget) so a graph past it fails with a status instead
/// of an allocation failure.

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "graph/social_graph.h"

namespace sargus {

class DeltaOverlay;

namespace storage {
struct StorageAccess;
}

class CsrSnapshot {
 public:
  /// One adjacency entry: the far endpoint plus the edge's label and slot.
  struct Entry {
    NodeId other = 0;
    LabelId label = kInvalidLabel;
    EdgeId edge = 0;
  };

  CsrSnapshot() = default;

  /// Most (node, label) keys a snapshot may index: 256 MiB of offsets
  /// per direction, e.g. 1M nodes x 64 labels or 64k nodes x 1024.
  static constexpr size_t kMaxKeys = size_t{1} << 26;

  /// kResourceExhausted when `num_nodes` x `num_labels` exceeds kMaxKeys.
  /// `num_labels` bounds the label ids on the edges (a dictionary size).
  static Status CheckKeyBudget(size_t num_nodes, size_t num_labels);

  /// Snapshots the live edges of `g`.
  static CsrSnapshot Build(const SocialGraph& g);

  /// Snapshots the *logical* graph g ⊕ overlay without mutating g: base
  /// live edges minus staged removals, plus staged additions and staged
  /// nodes. Staged additions get the edge ids the fold will assign —
  /// `first_new_edge + i` for the i-th triple of the overlay's added-set
  /// iteration order — so the result is bit-identical to Build(g) after
  /// the same overlay is folded into g (removals first, additions in
  /// that same iteration order). This is what lets a background
  /// compaction build indexes against a frozen overlay while the graph
  /// object stays untouched.
  static CsrSnapshot Build(const SocialGraph& g, const DeltaOverlay& overlay,
                           EdgeId first_new_edge);

  size_t NumNodes() const { return num_nodes_; }
  size_t NumEdges() const { return out_entries_.size(); }
  /// Label ids this snapshot indexes: one past the largest label on any
  /// of its edges. Larger label ids carry no edges here.
  size_t NumLabels() const { return num_labels_; }

  /// Outgoing entries of `node`, sorted by label.
  std::span<const Entry> Out(NodeId node) const {
    return Range(out_entries_, out_offsets_, node * num_labels_,
                 (node + size_t{1}) * num_labels_);
  }

  /// Incoming entries of `node` (Entry::other is the source), sorted by
  /// label.
  std::span<const Entry> In(NodeId node) const {
    return Range(in_entries_, in_offsets_, node * num_labels_,
                 (node + size_t{1}) * num_labels_);
  }

  /// Outgoing entries of `node` restricted to `label`; empty for a label
  /// at or past NumLabels().
  std::span<const Entry> OutWithLabel(NodeId node, LabelId label) const {
    if (label >= num_labels_) return {};
    const size_t key = node * num_labels_ + label;
    return Range(out_entries_, out_offsets_, key, key + 1);
  }
  std::span<const Entry> InWithLabel(NodeId node, LabelId label) const {
    if (label >= num_labels_) return {};
    const size_t key = node * num_labels_ + label;
    return Range(in_entries_, in_offsets_, key, key + 1);
  }

  size_t MemoryBytes() const {
    return (out_offsets_.capacity() + in_offsets_.capacity()) *
               sizeof(uint32_t) +
           (out_entries_.capacity() + in_entries_.capacity()) * sizeof(Entry);
  }

 private:
  friend struct storage::StorageAccess;

  /// Entries [offsets[lo], offsets[hi]) — the (node, label) keys lo..hi-1.
  static std::span<const Entry> Range(const std::vector<Entry>& entries,
                                      const std::vector<uint32_t>& offsets,
                                      size_t lo, size_t hi) {
    return {entries.data() + offsets[lo], offsets[hi] - offsets[lo]};
  }

  /// Shared core of both Build overloads: counting-sort the materialized
  /// logical edge list (record i gets slot id ids[i]) into per-(node,
  /// label) ranges. Keeping one copy is what guarantees the merged
  /// build stays bit-identical to a post-fold rebuild.
  static CsrSnapshot FromEdgeList(size_t num_nodes,
                                  const std::vector<Edge>& logical,
                                  const std::vector<EdgeId>& ids);

  size_t num_nodes_ = 0;
  size_t num_labels_ = 0;
  /// Prefix sums keyed by node * num_labels_ + label: the (node, label)
  /// range is [offsets[key], offsets[key + 1]). Size num_nodes_ *
  /// num_labels_ + 1.
  std::vector<uint32_t> out_offsets_{0};
  std::vector<Entry> out_entries_;
  std::vector<uint32_t> in_offsets_{0};
  std::vector<Entry> in_entries_;
};

}  // namespace sargus

#endif  // SARGUS_GRAPH_CSR_H_
