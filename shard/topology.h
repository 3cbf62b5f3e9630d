#ifndef SARGUS_SHARD_TOPOLOGY_H_
#define SARGUS_SHARD_TOPOLOGY_H_

/// \file topology.h
/// \brief The immutable shard map: node -> shard assignment and the cut
/// edge table.
///
/// A ShardTopology is copy-on-write state shared between the router and
/// every shard engine's readers. The router mutates a private clone
/// (cut-edge add/remove, node growth) and republishes it behind a
/// mutex-guarded shared_ptr with a bumped epoch; readers pin whatever
/// version was current when they started and never see it change. This
/// mirrors the engine's own read-view discipline (engine/read_view.h) so
/// a CheckAccess in flight during an AddEdge sees one coherent pair of
/// (graph view, topology) snapshots.

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace sargus {

/// A cut edge as seen from its source: the destination and the label.
struct CutArc {
  NodeId other = 0;
  LabelId label = kInvalidLabel;
  bool operator==(const CutArc&) const = default;
};

struct ShardTopology {
  uint32_t num_shards = 1;
  /// node -> owning shard; size is the logical node count this topology
  /// version covers (nodes added later belong to a newer topology).
  std::vector<uint32_t> shard_of;
  /// Cut edges by src. The router consults it to tell whether a write
  /// changed the cut set, which is what triggers a republish.
  std::unordered_map<NodeId, std::vector<CutArc>> cut_out;
  /// Bumped on every republish; purely diagnostic.
  uint64_t epoch = 0;

  std::span<const CutArc> CutOut(NodeId node) const {
    const auto it = cut_out.find(node);
    if (it == cut_out.end()) return {};
    return it->second;
  }
};

}  // namespace sargus

#endif  // SARGUS_SHARD_TOPOLOGY_H_
