#ifndef SARGUS_GRAPH_DELTA_OVERLAY_H_
#define SARGUS_GRAPH_DELTA_OVERLAY_H_

/// \file delta_overlay.h
/// \brief DeltaOverlay: pending edge mutations layered over an immutable
/// CsrSnapshot, so queries see a live graph without paying a rebuild.
///
/// A CsrSnapshot never observes graph mutations; before this subsystem,
/// every AddEdge/RemoveEdge forced a full RebuildIndexes (the cost model
/// bench_dynamic.cc charts). The overlay closes that gap: it records the
/// *difference* between the snapshot and the logical graph as
/// per-(node, label) added and removed endpoint lists, kept in both
/// orientations, and the traversal evaluators merge it into neighbor
/// iteration on the fly (see ForEachNeighborEdge below). A mutation
/// updates one list per orientation; the snapshot is merged and rebuilt
/// only when the overlay exceeds a compaction threshold
/// (AccessControlEngine::Compact).
///
/// The overlay is *relative to one snapshot*: a staged add must not
/// duplicate a live base edge, and a staged remove must name a live base
/// edge. AccessControlEngine enforces both; direct users must do the
/// same, or neighbor iteration may yield duplicates (harmless for
/// reachability, wasteful) or no-op removals.
///
/// Node growth is staged too: StageNode() extends the *logical* node id
/// range past the snapshot without touching the SocialGraph — staged
/// node k gets id snapshot_nodes + k, the id the graph will assign when
/// compaction folds the nodes in, so ids are stable across the fold.
/// Endpoints of staged edges must be < snapshot NumNodes() +
/// num_staged_nodes(): walkers size their visited arrays to that
/// logical count (LogicalNumNodes below), and ForEachNeighborEdge
/// serves nodes at or past the snapshot from the overlay adjacency
/// alone (they have no base entries). Staged nodes have no attributes
/// until compaction, so attribute-filtered steps treat them as unset.
///
/// Copy-on-write sharing: the four adjacency maps (added/removed, out/in) are
/// each split into kShards copy-on-write shards held by shared_ptr.
/// Freeze() returns a copy that shares every shard — O(kShards)
/// pointer copies, independent of how much is staged — and leaves this
/// overlay owning none of them; the next mutation of a shard clones it
/// first (one flat copy of that shard's entries), so a frozen copy
/// never changes after Freeze() returns. A group-commit batch therefore
/// publishes in O(batch + kShards), not O(overlay).
///
/// Thread-safety and snapshot-consistency contract: the overlay is NOT
/// internally synchronized. Readers (evaluators mid-query) and writers
/// (Stage*/Unstage*/Clear/Freeze) of one DeltaOverlay object must be
/// externally serialized — a mutation racing a traversal is a data race,
/// and a mutation between two queries of one CheckAccess would make its
/// rule disjunction evaluate against two different logical graphs.
/// Distinct objects are independent even when they share shards: any
/// number of threads may read a frozen copy while its source keeps
/// staging, because the writer only ever writes shards it cloned after
/// the last Freeze(). `version()` increments on every successful staging
/// change, so callers can detect overlay churn between reads; generation
/// counters on the engine cover snapshot swaps.

#include <algorithm>
#include <array>
#include <bitset>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.h"
#include "graph/csr.h"

namespace sargus {

namespace storage {
struct StorageAccess;
}

class DeltaOverlay {
 public:
  /// One logical edge. The graph coalesces duplicate (src, dst, label)
  /// edges, so the triple identifies an edge without an EdgeId — which
  /// staged additions do not have yet.
  struct EdgeTriple {
    NodeId src = 0;
    NodeId dst = 0;
    LabelId label = kInvalidLabel;
    bool operator==(const EdgeTriple&) const = default;
  };

  DeltaOverlay() = default;
  DeltaOverlay(DeltaOverlay&&) noexcept = default;
  DeltaOverlay& operator=(DeltaOverlay&&) noexcept = default;
  /// Copies go through Freeze(), which must write the source.
  DeltaOverlay(const DeltaOverlay&) = delete;
  DeltaOverlay& operator=(const DeltaOverlay&) = delete;

  /// A copy sharing every shard with this overlay, which from here on
  /// clones a shard before its first write to it. The copy itself owns
  /// no shard either, so it never writes into one it shares.
  DeltaOverlay Freeze();

  // ---- Staging (engine-facing) --------------------------------------------

  /// Stages src -[label]-> dst as pending-added. Returns true when newly
  /// staged, false when it was already staged.
  bool StageAdd(NodeId src, NodeId dst, LabelId label);

  /// Withdraws a pending addition (the logical edge disappears again).
  /// Returns false when it was not staged.
  bool UnstageAdd(NodeId src, NodeId dst, LabelId label);

  /// Stages the *base* edge src -[label]-> dst as pending-removed.
  /// Returns true when newly staged.
  bool StageRemove(NodeId src, NodeId dst, LabelId label);

  /// Withdraws a pending removal (the base edge is visible again).
  /// Returns false when it was not staged.
  bool UnstageRemove(NodeId src, NodeId dst, LabelId label);

  /// Stages one node addition past the snapshot's id range; returns the
  /// zero-based index of the staged node (its logical id is the
  /// snapshot's NumNodes() + that index). Unlike edges, node additions
  /// never cancel: ids already handed out must stay valid.
  uint32_t StageNode() {
    ++version_;
    return staged_nodes_++;
  }

  bool IsStagedAdd(NodeId src, NodeId dst, LabelId label) const {
    return Contains(AddedOut(src, label), dst);
  }
  bool IsStagedRemove(NodeId src, NodeId dst, LabelId label) const {
    return IsRemoved(src, dst, label);
  }

  /// Drops every staged mutation (after the engine folded them into a
  /// fresh snapshot, or to abandon them).
  void Clear();

  // ---- Query side (the traversal hot path) --------------------------------

  /// True when the base edge src -[label]-> dst is pending-removed and
  /// must be skipped during neighbor iteration.
  bool IsRemoved(NodeId src, NodeId dst, LabelId label) const {
    return Contains(RemovedOut(src, label), dst);
  }

  /// Pending-added out-neighbors w of `node` (edges node -[label]-> w).
  /// Unordered; stable until the next staging change.
  std::span<const NodeId> AddedOut(NodeId node, LabelId label) const {
    return added_out_.Find(node, label);
  }

  /// Pending-added in-neighbors w of `node` (edges w -[label]-> node).
  std::span<const NodeId> AddedIn(NodeId node, LabelId label) const {
    return added_in_.Find(node, label);
  }

  /// Pending-removed base out-neighbors w of `node`.
  std::span<const NodeId> RemovedOut(NodeId node, LabelId label) const {
    return removed_out_.Find(node, label);
  }

  /// Pending-removed base in-neighbors w of `node`.
  std::span<const NodeId> RemovedIn(NodeId node, LabelId label) const {
    return removed_in_.Find(node, label);
  }

  // ---- Introspection / compaction -----------------------------------------

  size_t NumAdded() const { return num_added_; }
  size_t NumRemoved() const { return num_removed_; }
  /// Staged node additions past the snapshot (see StageNode).
  size_t num_staged_nodes() const { return staged_nodes_; }
  /// Total staged mutations — the compaction-threshold metric.
  size_t size() const { return NumAdded() + NumRemoved() + staged_nodes_; }
  bool empty() const { return size() == 0; }

  /// Any pending additions? While true, "index says unreachable" proofs
  /// over the base snapshot are invalid (an added edge may connect).
  bool has_insertions() const { return NumAdded() != 0; }
  /// Any pending removals? While true, "index says reachable" proofs
  /// over the base snapshot are invalid (the witness path may be gone).
  bool has_deletions() const { return NumRemoved() != 0; }

  /// Monotonic counter, bumped by every successful staging change and by
  /// Clear() on a non-empty overlay.
  uint64_t version() const { return version_; }

  /// Enumeration for compaction; fn(const EdgeTriple&). The order is
  /// arbitrary but fixed for one object that is not mutated, which is
  /// what lets a build predict the edge ids a later fold assigns.
  template <typename Fn>
  void ForEachAdded(Fn&& fn) const {
    added_out_.ForEach(fn);
  }
  template <typename Fn>
  void ForEachRemoved(Fn&& fn) const {
    removed_out_.ForEach(fn);
  }

 private:
  static constexpr int kShardBits = 6;
  static constexpr size_t kShards = size_t{1} << kShardBits;

  /// One shard of a (node, label) -> endpoint-list map, laid out flat so
  /// a copy-on-write clone is a few contiguous copies: the keys in
  /// ascending order and each key's endpoint list packed back to back,
  /// list i ending at ends[i]. `filter` holds one bit per key hash, so a
  /// lookup of an absent key — nearly every lookup — stops at one word
  /// instead of searching `keys`.
  struct Shard {
    std::array<uint64_t, 8> filter{};
    std::vector<uint64_t> keys;
    std::vector<uint32_t> ends;
    std::vector<NodeId> ids;

    static uint32_t FilterBit(uint64_t key) {
      return static_cast<uint32_t>((key * 0xff51afd7ed558ccdULL) >> 55);
    }
    bool MayHold(uint64_t key) const {
      const uint32_t bit = FilterBit(key);
      return ((filter[bit >> 6] >> (bit & 63)) & 1) != 0;
    }
    void Mark(uint64_t key) {
      const uint32_t bit = FilterBit(key);
      filter[bit >> 6] |= uint64_t{1} << (bit & 63);
    }
  };

  /// A sharded adjacency map. A null shard is empty; `owned` marks the
  /// shards this object may write in place (cloned since the last
  /// Freeze, so no other object shares them).
  struct ShardedAdj {
    std::array<std::shared_ptr<Shard>, kShards> shards;
    std::bitset<kShards> owned;

    std::span<const NodeId> Find(NodeId node, LabelId label) const;
    /// Appends `other` to (node, label)'s list unless already present.
    bool Insert(NodeId node, LabelId label, NodeId other);
    /// Erases `other` from (node, label)'s list; false when absent.
    bool Erase(NodeId node, LabelId label, NodeId other);
    /// Shard `s`, cloned first unless owned.
    Shard& Writable(size_t s);
    /// A map sharing every shard; this one then owns none of them.
    ShardedAdj Share();

    template <typename Fn>
    void ForEach(Fn& fn) const {
      for (const auto& shard : shards) {
        if (shard == nullptr) continue;
        uint32_t begin = 0;
        for (size_t i = 0; i < shard->keys.size(); ++i) {
          const auto node = static_cast<NodeId>(shard->keys[i] >> 16);
          const auto label = static_cast<LabelId>(shard->keys[i] & 0xffff);
          for (uint32_t j = begin; j < shard->ends[i]; ++j) {
            fn(EdgeTriple{node, shard->ids[j], label});
          }
          begin = shard->ends[i];
        }
      }
    }
  };

  static uint64_t AdjKey(NodeId node, LabelId label) {
    return (static_cast<uint64_t>(node) << 16) | label;
  }
  /// Node-based shard choice (Fibonacci hashing), so every label of one
  /// node lands in one shard.
  static size_t ShardOf(NodeId node) {
    return static_cast<uint32_t>(node * 0x9e3779b9u) >> (32 - kShardBits);
  }
  static bool Contains(std::span<const NodeId> list, NodeId w) {
    return std::find(list.begin(), list.end(), w) != list.end();
  }

  // The counters come first: empty() runs once per neighbor expansion,
  // and here it reads one cache line.
  size_t num_added_ = 0;
  size_t num_removed_ = 0;
  uint32_t staged_nodes_ = 0;
  uint64_t version_ = 0;
  ShardedAdj added_out_;
  ShardedAdj added_in_;
  ShardedAdj removed_out_;
  ShardedAdj removed_in_;

  friend class AccessControlEngine;  // version continuity across compaction
  friend struct storage::StorageAccess;
};

/// Node ids a traversal over (csr, overlay) may legally touch: the
/// snapshot's range plus any staged node additions. This is the size
/// every walker's visited/parent arrays must cover.
inline size_t LogicalNumNodes(const CsrSnapshot& csr,
                              const DeltaOverlay* overlay) {
  return csr.NumNodes() +
         (overlay == nullptr ? 0 : overlay->num_staged_nodes());
}

/// Merged neighbor iteration: the one place base entries and overlay
/// deltas combine, shared by every traversal (ProductWalker steps,
/// bidirectional seeds and backward expansion).
///
/// With backward == false, visits every w such that the logical graph has
/// node -[label]-> w; with backward == true, every w with
/// w -[label]-> node. Base entries pending removal are skipped, then
/// staged additions are appended. `fn(NodeId w)` returns true to stop
/// early; the function returns true when a callback stopped it. A null or
/// empty overlay adds one branch, no per-edge cost.
template <typename Fn>
inline bool ForEachNeighborEdge(const CsrSnapshot& csr,
                                const DeltaOverlay* overlay, NodeId node,
                                LabelId label, bool backward, Fn&& fn) {
  if (node >= csr.NumNodes()) {
    // A staged node: no base entries, overlay adjacency only. (Callers
    // validate node < LogicalNumNodes, so overlay is non-null here.)
    if (overlay == nullptr) return false;
    const auto added = backward ? overlay->AddedIn(node, label)
                                : overlay->AddedOut(node, label);
    for (NodeId w : added) {
      if (fn(w)) return true;
    }
    return false;
  }
  const auto entries =
      backward ? csr.InWithLabel(node, label) : csr.OutWithLabel(node, label);
  if (overlay == nullptr || overlay->empty()) {
    for (const CsrSnapshot::Entry& e : entries) {
      if (fn(e.other)) return true;
    }
    return false;
  }
  // One removed-list lookup per expansion, not a probe per base edge.
  const auto removed = backward ? overlay->RemovedIn(node, label)
                                : overlay->RemovedOut(node, label);
  for (const CsrSnapshot::Entry& e : entries) {
    if (!removed.empty() &&
        std::find(removed.begin(), removed.end(), e.other) != removed.end()) {
      continue;
    }
    if (fn(e.other)) return true;
  }
  const auto added =
      backward ? overlay->AddedIn(node, label) : overlay->AddedOut(node, label);
  for (NodeId w : added) {
    if (fn(w)) return true;
  }
  return false;
}

}  // namespace sargus

#endif  // SARGUS_GRAPH_DELTA_OVERLAY_H_
