#ifndef SARGUS_INDEX_TWO_HOP_H_
#define SARGUS_INDEX_TWO_HOP_H_

/// \file two_hop.h
/// \brief Exact 2-hop reachability labels over the condensation DAG.
///
/// Every vertex u stores Lout(u) = {hubs x : u ->* x} and
/// Lin(u) = {hubs x : x ->* u}; then u ->* v iff u == v or
/// Lout(u) ∩ Lin(v) ≠ ∅. Two construction strategies, ablated in
/// bench_ablation.cc:
///
///  * kPrunedLandmark — pruned landmark labeling (Akiba-style): sweep
///    vertices in a degree-driven order, BFS forward/backward, prune any
///    vertex whose reachability is already witnessed by earlier hubs.
///    Scales to every graph the suite generates.
///  * kGreedyMaxCover — Cheng-style greedy cover approximation: computes
///    exact descendant/ancestor counts via bitset closure (hence the
///    max_vertices_for_greedy guard) and runs the pruned sweep in
///    decreasing |ancestors|x|descendants| order, the classic max-cover
///    surrogate. Smaller labelings, much costlier construction.
///
/// The labeling also supports **incremental insertion maintenance**
/// (PatchInsertions): when the DAG grows by appended vertices and arcs —
/// the shape an insertion-only overlay compaction produces — the labels
/// are patched with resumed, prefix-pruned BFS passes instead of a full
/// re-sweep. Correctness rests on the canonical-hub invariant the
/// pruned sweep establishes: for every reachable pair (u, v), the
/// minimum-rank vertex m on any u→v path satisfies m ∈ Lout(u) ∩
/// Lin(v). Each new arc (x, y) resumes one BFS per hub of Lin(x)
/// forward from y (adding the hub to Lin of everything reached) and per
/// hub of Lout(y) backward from x, pruning a branch only when a
/// *strictly lower-ranked* common hub already certifies the pair — the
/// same prefix rule the static sweep applies implicitly, which is what
/// preserves the invariant (a prune below the canonical hub m would
/// exhibit a path vertex ranked below m, contradicting minimality).
/// New vertices are ranked after all existing ones and seeded with
/// self-entries. Deletions are not patchable (reachability shrinks;
/// labels only over-approximate) — callers fall back to Build.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "index/scc.h"

namespace sargus {

namespace storage {
struct StorageAccess;
}

enum class TwoHopStrategy { kPrunedLandmark, kGreedyMaxCover };

struct TwoHopOptions {
  TwoHopStrategy strategy = TwoHopStrategy::kPrunedLandmark;
  /// kGreedyMaxCover materializes an n^2-bit closure; refuse beyond this.
  size_t max_vertices_for_greedy = 16384;
};

class TwoHopLabeling {
 public:
  static Result<TwoHopLabeling> Build(const Dag& dag,
                                      TwoHopOptions options = {});

  /// Patched copy of `prev` covering `new_dag` = prev's DAG plus
  /// appended vertices (ids ≥ old_num_vertices) and `new_arcs` (each
  /// must be a new_dag arc; duplicates tolerated). `new_dag` must still
  /// be acyclic and must preserve the old vertex ids — the shape
  /// LineReachabilityOracle::BuildIncremental produces. Exact (see file
  /// comment); cost scales with the affected region, not the DAG.
  static TwoHopLabeling PatchInsertions(
      const TwoHopLabeling& prev, const Dag& new_dag,
      uint32_t old_num_vertices,
      std::span<const std::pair<uint32_t, uint32_t>> new_arcs);

  /// Exact DAG reachability: u ->* v.
  bool Reachable(uint32_t u, uint32_t v) const;

  /// Total number of label entries (sum of |Lin| + |Lout|).
  uint64_t LabelingSize() const { return out_hubs_.size() + in_hubs_.size(); }

  size_t MemoryBytes() const {
    return (out_offsets_.capacity() + in_offsets_.capacity() +
            rank_of_.capacity() + vertex_of_.capacity()) *
               sizeof(uint32_t) +
           (out_hubs_.capacity() + in_hubs_.capacity()) * sizeof(uint32_t);
  }

 private:
  friend struct storage::StorageAccess;

  /// Rebuilds the CSR arrays from per-vertex hub lists.
  void Flatten(const std::vector<std::vector<uint32_t>>& out_hubs,
               const std::vector<std::vector<uint32_t>>& in_hubs);

  // CSR label storage; hub lists are sorted by hub rank so Reachable is a
  // sorted-merge intersection.
  std::vector<uint32_t> out_offsets_{0};
  std::vector<uint32_t> out_hubs_;
  std::vector<uint32_t> in_offsets_{0};
  std::vector<uint32_t> in_hubs_;
  // Rank permutation, kept so PatchInsertions can resume hub sweeps
  // (hub lists store ranks, not vertex ids).
  std::vector<uint32_t> rank_of_;    // vertex -> rank
  std::vector<uint32_t> vertex_of_;  // rank -> vertex
};

}  // namespace sargus

#endif  // SARGUS_INDEX_TWO_HOP_H_
