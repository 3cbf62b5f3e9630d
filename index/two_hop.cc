#include "index/two_hop.h"

#include <algorithm>
#include <numeric>

namespace sargus {
namespace {

/// Pruned landmark sweep in the given vertex order. Produces per-vertex
/// hub lists containing hub *ranks* (position in `order`), which keeps the
/// lists sorted by insertion and makes intersection a sorted merge.
struct SweepResult {
  std::vector<std::vector<uint32_t>> out_hubs;  // hubs x with v ->* x
  std::vector<std::vector<uint32_t>> in_hubs;   // hubs x with x ->* v
};

bool HubQuery(const SweepResult& r, uint32_t u, uint32_t v) {
  if (u == v) return true;
  const auto& a = r.out_hubs[u];
  const auto& b = r.in_hubs[v];
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

SweepResult PrunedSweep(const Dag& dag, const std::vector<uint32_t>& order) {
  const size_t n = dag.NumVertices();
  SweepResult r;
  r.out_hubs.resize(n);
  r.in_hubs.resize(n);
  std::vector<uint32_t> queue;
  std::vector<uint8_t> seen(n, 0);
  std::vector<uint32_t> touched;

  for (uint32_t rank = 0; rank < n; ++rank) {
    const uint32_t hub = order[rank];

    // Forward BFS from hub: vertices v with hub ->* v get hub in Lin(v),
    // unless an earlier hub already certifies hub ->* v.
    auto sweep = [&](bool forward) {
      queue.clear();
      touched.clear();
      queue.push_back(hub);
      seen[hub] = 1;
      touched.push_back(hub);
      for (size_t head = 0; head < queue.size(); ++head) {
        const uint32_t v = queue[head];
        // Pruning: if existing labels already witness the hub-v relation,
        // neither v nor anything below it needs this hub.
        if (v != hub) {
          const bool covered = forward ? HubQuery(r, hub, v)
                                       : HubQuery(r, v, hub);
          if (covered) continue;
          if (forward) {
            r.in_hubs[v].push_back(rank);
          } else {
            r.out_hubs[v].push_back(rank);
          }
        }
        for (uint32_t w : forward ? dag.Out(v) : dag.In(v)) {
          if (!seen[w]) {
            seen[w] = 1;
            touched.push_back(w);
            queue.push_back(w);
          }
        }
      }
      for (uint32_t v : touched) seen[v] = 0;
    };
    sweep(/*forward=*/true);
    sweep(/*forward=*/false);
    // The hub reaches itself both ways.
    r.out_hubs[hub].push_back(rank);
    r.in_hubs[hub].push_back(rank);
  }
  return r;
}

}  // namespace

Result<TwoHopLabeling> TwoHopLabeling::Build(const Dag& dag,
                                             TwoHopOptions options) {
  const size_t n = dag.NumVertices();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  if (options.strategy == TwoHopStrategy::kPrunedLandmark) {
    // Rank by degree sum, descending — a cheap centrality proxy.
    std::vector<uint64_t> score(n);
    for (uint32_t v = 0; v < n; ++v) {
      score[v] = dag.Out(v).size() + dag.In(v).size();
    }
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return score[a] > score[b];
    });
  } else {
    if (n > options.max_vertices_for_greedy) {
      return Status::ResourceExhausted(
          "greedy max-cover 2-hop: DAG has " + std::to_string(n) +
          " vertices, cap is " +
          std::to_string(options.max_vertices_for_greedy));
    }
    // Exact |descendants| x |ancestors| scores via bitset closure in
    // reverse topological order.
    const size_t words = (n + 63) / 64;
    std::vector<uint64_t> desc(n * words, 0);
    std::vector<uint64_t> anc(n * words, 0);
    const auto& topo = dag.TopoOrder();
    for (size_t i = topo.size(); i-- > 0;) {
      const uint32_t v = topo[i];
      desc[v * words + v / 64] |= uint64_t{1} << (v % 64);
      for (uint32_t w : dag.Out(v)) {
        for (size_t k = 0; k < words; ++k) {
          desc[v * words + k] |= desc[w * words + k];
        }
      }
    }
    for (const uint32_t v : topo) {
      anc[v * words + v / 64] |= uint64_t{1} << (v % 64);
      for (uint32_t w : dag.In(v)) {
        for (size_t k = 0; k < words; ++k) {
          anc[v * words + k] |= anc[w * words + k];
        }
      }
    }
    std::vector<uint64_t> score(n);
    for (uint32_t v = 0; v < n; ++v) {
      uint64_t d = 0, a = 0;
      for (size_t k = 0; k < words; ++k) {
        d += static_cast<uint64_t>(__builtin_popcountll(desc[v * words + k]));
        a += static_cast<uint64_t>(__builtin_popcountll(anc[v * words + k]));
      }
      score[v] = d * a;
    }
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return score[a] > score[b];
    });
  }

  SweepResult r = PrunedSweep(dag, order);

  TwoHopLabeling lab;
  lab.vertex_of_ = order;
  lab.rank_of_.resize(n);
  for (uint32_t rank = 0; rank < n; ++rank) lab.rank_of_[order[rank]] = rank;
  lab.Flatten(r.out_hubs, r.in_hubs);
  return lab;
}

void TwoHopLabeling::Flatten(
    const std::vector<std::vector<uint32_t>>& out_hubs,
    const std::vector<std::vector<uint32_t>>& in_hubs) {
  const size_t n = out_hubs.size();
  out_offsets_.assign(n + 1, 0);
  in_offsets_.assign(n + 1, 0);
  for (size_t v = 0; v < n; ++v) {
    out_offsets_[v + 1] =
        out_offsets_[v] + static_cast<uint32_t>(out_hubs[v].size());
    in_offsets_[v + 1] =
        in_offsets_[v] + static_cast<uint32_t>(in_hubs[v].size());
  }
  out_hubs_.clear();
  in_hubs_.clear();
  out_hubs_.reserve(out_offsets_.back());
  in_hubs_.reserve(in_offsets_.back());
  for (size_t v = 0; v < n; ++v) {
    out_hubs_.insert(out_hubs_.end(), out_hubs[v].begin(), out_hubs[v].end());
    in_hubs_.insert(in_hubs_.end(), in_hubs[v].begin(), in_hubs[v].end());
  }
}

namespace {

/// Common hub with rank strictly below `limit` in two rank-sorted lists —
/// the prefix coverage test the resumed sweeps prune on.
bool PrefixCovered(const std::vector<uint32_t>& a,
                   const std::vector<uint32_t>& b, uint32_t limit) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size() && a[i] < limit && b[j] < limit) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

/// Inserts `rank` into a rank-sorted hub list; returns false when it was
/// already present.
bool InsertSorted(std::vector<uint32_t>& hubs, uint32_t rank) {
  auto it = std::lower_bound(hubs.begin(), hubs.end(), rank);
  if (it != hubs.end() && *it == rank) return false;
  hubs.insert(it, rank);
  return true;
}

}  // namespace

TwoHopLabeling TwoHopLabeling::PatchInsertions(
    const TwoHopLabeling& prev, const Dag& new_dag, uint32_t old_num_vertices,
    std::span<const std::pair<uint32_t, uint32_t>> new_arcs) {
  const size_t n = new_dag.NumVertices();

  // Unpack into per-vertex lists; new vertices rank after every old one
  // (worst priority — they cannot displace established canonical hubs)
  // and start with their self-entries.
  std::vector<std::vector<uint32_t>> out_h(n);
  std::vector<std::vector<uint32_t>> in_h(n);
  for (uint32_t v = 0; v < old_num_vertices; ++v) {
    out_h[v].assign(prev.out_hubs_.begin() + prev.out_offsets_[v],
                    prev.out_hubs_.begin() + prev.out_offsets_[v + 1]);
    in_h[v].assign(prev.in_hubs_.begin() + prev.in_offsets_[v],
                   prev.in_hubs_.begin() + prev.in_offsets_[v + 1]);
  }
  TwoHopLabeling lab;
  lab.rank_of_ = prev.rank_of_;
  lab.vertex_of_ = prev.vertex_of_;
  lab.rank_of_.resize(n);
  lab.vertex_of_.resize(n);
  for (uint32_t v = old_num_vertices; v < n; ++v) {
    lab.rank_of_[v] = v;
    lab.vertex_of_[v] = v;
    out_h[v].push_back(v);
    in_h[v].push_back(v);
  }

  // One resumed, prefix-pruned BFS per (new arc, incident hub). Visiting
  // order over arcs and hubs does not affect correctness (see header):
  // every prune is justified by a strictly lower-ranked certificate,
  // whose existence would contradict the canonical hub's minimality.
  std::vector<uint8_t> seen(n, 0);
  std::vector<uint32_t> queue;
  std::vector<uint32_t> touched;
  std::vector<uint32_t> hubs;
  for (const auto& [x, y] : new_arcs) {
    auto resume = [&](bool forward) {
      const uint32_t start = forward ? y : x;
      // Snapshot: the pass below may grow other vertices' lists but
      // never this one's (that would require a cycle through the arc).
      hubs = forward ? in_h[x] : out_h[y];
      for (const uint32_t h : hubs) {
        const uint32_t hv = lab.vertex_of_[h];
        queue.clear();
        touched.clear();
        // The start vertex is enqueued unconditionally; coverage is
        // checked when dequeued, like every other vertex.
        queue.push_back(start);
        seen[start] = 1;
        touched.push_back(start);
        for (size_t head = 0; head < queue.size(); ++head) {
          const uint32_t v = queue[head];
          const bool covered =
              forward ? PrefixCovered(out_h[hv], in_h[v], h)
                      : PrefixCovered(out_h[v], in_h[hv], h);
          if (covered) continue;  // prune: no entry, no descent
          // Insert (a duplicate means another pass already carried this
          // hub here; keep descending — its descent may have been
          // resumed from a different frontier).
          (void)InsertSorted(forward ? in_h[v] : out_h[v], h);
          for (uint32_t w : forward ? new_dag.Out(v) : new_dag.In(v)) {
            if (!seen[w]) {
              seen[w] = 1;
              touched.push_back(w);
              queue.push_back(w);
            }
          }
        }
        for (uint32_t v : touched) seen[v] = 0;
      }
    };
    resume(/*forward=*/true);
    resume(/*forward=*/false);
  }

  lab.Flatten(out_h, in_h);
  return lab;
}

bool TwoHopLabeling::Reachable(uint32_t u, uint32_t v) const {
  if (u == v) return true;
  const uint32_t* a = out_hubs_.data() + out_offsets_[u];
  const uint32_t* a_end = out_hubs_.data() + out_offsets_[u + 1];
  const uint32_t* b = in_hubs_.data() + in_offsets_[v];
  const uint32_t* b_end = in_hubs_.data() + in_offsets_[v + 1];
  while (a != a_end && b != b_end) {
    if (*a == *b) return true;
    if (*a < *b) {
      ++a;
    } else {
      ++b;
    }
  }
  return false;
}

}  // namespace sargus
