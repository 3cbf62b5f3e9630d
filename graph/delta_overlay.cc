#include "graph/delta_overlay.h"

#include <algorithm>

namespace sargus {

// ---- ShardedAdj -------------------------------------------------------------

std::span<const NodeId> DeltaOverlay::ShardedAdj::Find(NodeId node,
                                                       LabelId label) const {
  const Shard* shard = shards[ShardOf(node)].get();
  if (shard == nullptr) return {};
  const uint64_t key = AdjKey(node, label);
  if (!shard->MayHold(key)) return {};
  const auto it = std::lower_bound(shard->keys.begin(), shard->keys.end(), key);
  if (it == shard->keys.end() || *it != key) return {};
  const size_t i = static_cast<size_t>(it - shard->keys.begin());
  const uint32_t begin = i == 0 ? 0 : shard->ends[i - 1];
  return {shard->ids.data() + begin, shard->ends[i] - begin};
}

DeltaOverlay::Shard& DeltaOverlay::ShardedAdj::Writable(size_t s) {
  if (!owned[s]) {
    // Not make_shared: the refcount every Freeze bumps would then share
    // a cache line with the vectors every reader loads.
    shards[s] = shards[s] == nullptr
                    ? std::shared_ptr<Shard>(new Shard)
                    : std::shared_ptr<Shard>(new Shard(*shards[s]));
    owned.set(s);
  }
  return *shards[s];
}

bool DeltaOverlay::ShardedAdj::Insert(NodeId node, LabelId label,
                                      NodeId other) {
  if (Contains(Find(node, label), other)) return false;
  Shard& shard = Writable(ShardOf(node));
  const uint64_t key = AdjKey(node, label);
  const auto it = std::lower_bound(shard.keys.begin(), shard.keys.end(), key);
  const size_t i = static_cast<size_t>(it - shard.keys.begin());
  if (it == shard.keys.end() || *it != key) {
    shard.keys.insert(it, key);
    shard.ends.insert(shard.ends.begin() + i, i == 0 ? 0 : shard.ends[i - 1]);
    shard.Mark(key);
  }
  shard.ids.insert(shard.ids.begin() + shard.ends[i], other);
  for (size_t j = i; j < shard.ends.size(); ++j) ++shard.ends[j];
  return true;
}

bool DeltaOverlay::ShardedAdj::Erase(NodeId node, LabelId label,
                                     NodeId other) {
  const std::span<const NodeId> list = Find(node, label);
  const auto pos = std::find(list.begin(), list.end(), other);
  if (pos == list.end()) return false;
  const size_t offset = static_cast<size_t>(pos - list.begin());
  const size_t s = ShardOf(node);
  Shard& shard = Writable(s);
  const uint64_t key = AdjKey(node, label);
  const size_t i = static_cast<size_t>(
      std::lower_bound(shard.keys.begin(), shard.keys.end(), key) -
      shard.keys.begin());
  const uint32_t begin = i == 0 ? 0 : shard.ends[i - 1];
  // Move the list's last endpoint into the hole, then drop the last slot.
  shard.ids[begin + offset] = shard.ids[shard.ends[i] - 1];
  shard.ids.erase(shard.ids.begin() + (shard.ends[i] - 1));
  for (size_t j = i; j < shard.ends.size(); ++j) --shard.ends[j];
  if (shard.ends[i] == begin) {
    shard.keys.erase(shard.keys.begin() + i);
    shard.ends.erase(shard.ends.begin() + i);
    shard.filter = {};  // a filter bit cannot be unset on its own
    for (const uint64_t k : shard.keys) shard.Mark(k);
    if (shard.keys.empty()) {
      // Drop it, so freezing an overlay that churned back to empty (an
      // undone write episode) shares no shard.
      shards[s].reset();
      owned.reset(s);
    }
  }
  return true;
}

DeltaOverlay::ShardedAdj DeltaOverlay::ShardedAdj::Share() {
  ShardedAdj copy;
  copy.shards = shards;
  owned.reset();
  return copy;
}

// ---- DeltaOverlay -----------------------------------------------------------

DeltaOverlay DeltaOverlay::Freeze() {
  DeltaOverlay copy;
  copy.num_added_ = num_added_;
  copy.num_removed_ = num_removed_;
  copy.added_out_ = added_out_.Share();
  copy.added_in_ = added_in_.Share();
  copy.removed_out_ = removed_out_.Share();
  copy.removed_in_ = removed_in_.Share();
  copy.staged_nodes_ = staged_nodes_;
  copy.version_ = version_;
  return copy;
}

bool DeltaOverlay::StageAdd(NodeId src, NodeId dst, LabelId label) {
  if (!added_out_.Insert(src, label, dst)) return false;
  added_in_.Insert(dst, label, src);
  ++num_added_;
  ++version_;
  return true;
}

bool DeltaOverlay::UnstageAdd(NodeId src, NodeId dst, LabelId label) {
  if (!added_out_.Erase(src, label, dst)) return false;
  added_in_.Erase(dst, label, src);
  --num_added_;
  ++version_;
  return true;
}

bool DeltaOverlay::StageRemove(NodeId src, NodeId dst, LabelId label) {
  if (!removed_out_.Insert(src, label, dst)) return false;
  removed_in_.Insert(dst, label, src);
  ++num_removed_;
  ++version_;
  return true;
}

bool DeltaOverlay::UnstageRemove(NodeId src, NodeId dst, LabelId label) {
  if (!removed_out_.Erase(src, label, dst)) return false;
  removed_in_.Erase(dst, label, src);
  --num_removed_;
  ++version_;
  return true;
}

void DeltaOverlay::Clear() {
  const uint64_t version = empty() ? version_ : version_ + 1;
  *this = DeltaOverlay();
  version_ = version;
}

}  // namespace sargus
