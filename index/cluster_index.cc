#include "index/cluster_index.h"

#include <algorithm>

namespace sargus {

Result<ClusterJoinIndex> ClusterJoinIndex::Build(
    const LineGraph& lg, const LineReachabilityOracle& oracle) {
  ClusterJoinIndex idx;
  idx.num_nodes_ = lg.NumGraphNodes();
  size_t max_label = 0;
  for (LineVertexId v = 0; v < lg.NumVertices(); ++v) {
    max_label = std::max<size_t>(max_label, lg.vertex(v).label);
  }
  idx.num_oriented_labels_ = lg.NumVertices() ? 2 * (max_label + 1) : 0;
  const size_t num_buckets = idx.num_oriented_labels_ * idx.num_nodes_;
  if (oracle.scc().component_of.size() != lg.NumVertices()) {
    return Status::InvalidArgument(
        "ClusterJoinIndex::Build: oracle was built over a different line "
        "graph");
  }

  // Counting sort into (oriented label, tail) buckets.
  idx.offsets_.assign(num_buckets + 1, 0);
  for (LineVertexId v = 0; v < lg.NumVertices(); ++v) {
    const LineGraph::Vertex& lv = lg.vertex(v);
    ++idx.offsets_[idx.BucketIndex(lv.label, lv.backward, lv.tail) + 1];
  }
  for (size_t i = 0; i < num_buckets; ++i) {
    idx.offsets_[i + 1] += idx.offsets_[i];
  }
  idx.members_.resize(lg.NumVertices());
  std::vector<uint32_t> cursor(idx.offsets_.begin(), idx.offsets_.end() - 1);
  for (LineVertexId v = 0; v < lg.NumVertices(); ++v) {
    const LineGraph::Vertex& lv = lg.vertex(v);
    idx.members_[cursor[idx.BucketIndex(lv.label, lv.backward, lv.tail)]++] =
        v;
  }
  for (size_t b = 0; b < num_buckets; ++b) {
    if (idx.offsets_[b + 1] > idx.offsets_[b]) {
      ++idx.num_centers_;
      idx.centers_.push_back(idx.members_[idx.offsets_[b]]);
    }
  }

  // Label-pair reachability: for each oriented label, BFS over the DAG
  // from every component containing that label; intersect the reached set
  // with every other label's component membership.
  const size_t ol_count = idx.num_oriented_labels_;
  const Dag& dag = oracle.dag();
  const size_t c = dag.NumVertices();
  // Membership: one byte vector per oriented label, indexed by
  // component (1 when some line vertex of that label lies in it).
  std::vector<std::vector<uint8_t>> label_comps(ol_count,
                                                std::vector<uint8_t>(c, 0));
  for (LineVertexId v = 0; v < lg.NumVertices(); ++v) {
    const LineGraph::Vertex& lv = lg.vertex(v);
    const size_t ol = 2 * static_cast<size_t>(lv.label) + (lv.backward);
    label_comps[ol][oracle.ComponentOf(v)] = 1;
  }
  idx.label_reach_.assign(ol_count * ol_count, 0);
  std::vector<uint8_t> reached(c);
  std::vector<uint32_t> queue;
  for (size_t ol = 0; ol < ol_count; ++ol) {
    std::fill(reached.begin(), reached.end(), 0);
    queue.clear();
    for (uint32_t comp = 0; comp < c; ++comp) {
      if (label_comps[ol][comp]) {
        reached[comp] = 1;
        queue.push_back(comp);
      }
    }
    if (queue.empty()) continue;
    for (size_t head = 0; head < queue.size(); ++head) {
      for (uint32_t w : dag.Out(queue[head])) {
        if (!reached[w]) {
          reached[w] = 1;
          queue.push_back(w);
        }
      }
    }
    for (size_t other = 0; other < ol_count; ++other) {
      bool any = false;
      for (uint32_t comp = 0; comp < c && !any; ++comp) {
        any = reached[comp] && label_comps[other][comp];
      }
      idx.label_reach_[ol * ol_count + other] = any;
    }
  }
  return idx;
}

std::span<const LineVertexId> ClusterJoinIndex::Cluster(LabelId label,
                                                        bool backward,
                                                        NodeId node) const {
  const size_t ol = 2 * static_cast<size_t>(label) + (backward ? 1 : 0);
  if (label == kInvalidLabel || ol >= num_oriented_labels_ ||
      node >= num_nodes_) {
    return {};
  }
  const size_t b = BucketIndex(label, backward, node);
  return {members_.data() + offsets_[b], offsets_[b + 1] - offsets_[b]};
}

bool ClusterJoinIndex::LabelPairReachable(LabelId a, bool a_backward,
                                          LabelId b, bool b_backward) const {
  const size_t ola = 2 * static_cast<size_t>(a) + (a_backward ? 1 : 0);
  const size_t olb = 2 * static_cast<size_t>(b) + (b_backward ? 1 : 0);
  if (ola >= num_oriented_labels_ || olb >= num_oriented_labels_) {
    return false;
  }
  return label_reach_[ola * num_oriented_labels_ + olb] != 0;
}

}  // namespace sargus
