#ifndef SARGUS_INDEX_LINE_ORACLE_H_
#define SARGUS_INDEX_LINE_ORACLE_H_

/// \file line_oracle.h
/// \brief LineReachabilityOracle: constant-ish-time reachability between
/// line-graph vertices.
///
/// Pipeline (the paper's §4 construction, one stage per bench in
/// bench_index_build.cc):
///
///   line graph --SCC--> condensation DAG --> interval labels (GRAIL)
///                                        \-> 2-hop labels (pruned landmark)
///
/// Queries map both line vertices to their DAG components and answer
/// within-component immediately; across components either the 2-hop labels
/// (exact, default) or interval-filtered pruned DFS (exact; fast negatives)
/// decide, selected by OracleMode per call so the ablation bench can pit
/// them against each other on identical structures.

#include <cstdint>
#include <memory>

#include "common/result.h"
#include "graph/line_graph.h"
#include "index/intervals.h"
#include "index/scc.h"
#include "index/two_hop.h"

namespace sargus {

namespace storage {
struct StorageAccess;
}

enum class OracleMode { kTwoHop, kIntervals };

class LineReachabilityOracle {
 public:
  struct Options {
    TwoHopOptions two_hop;
    uint64_t interval_seed = 0x5eed;
  };

  /// Builds the full SCC -> DAG -> (intervals, 2-hop) stack over `lg`.
  static Result<LineReachabilityOracle> Build(const LineGraph& lg,
                                              Options options);
  static Result<LineReachabilityOracle> Build(const LineGraph& lg) {
    return Build(lg, Options{});
  }

  /// Exact line-graph reachability u ->* v (u == v counts as reachable).
  bool Reachable(LineVertexId u, LineVertexId v) const {
    return ReachableVia(u, v, OracleMode::kTwoHop);
  }

  bool ReachableVia(LineVertexId u, LineVertexId v, OracleMode mode) const;

  /// Component-level reachability (cu, cv are DAG vertices).
  bool ComponentReachable(uint32_t cu, uint32_t cv, OracleMode mode) const;

  uint32_t ComponentOf(LineVertexId v) const {
    return scc_.component_of[v];
  }

  const SccResult& scc() const { return scc_; }
  const Dag& dag() const { return dag_; }
  const TwoHopLabeling* two_hop() const { return &two_hop_; }
  const IntervalIndex* intervals() const { return &intervals_; }

  size_t MemoryBytes() const {
    return scc_.component_of.capacity() * sizeof(uint32_t) +
           dag_.MemoryBytes() + intervals_.MemoryBytes() +
           two_hop_.MemoryBytes();
  }

 private:
  friend struct storage::StorageAccess;

  SccResult scc_;
  Dag dag_;
  IntervalIndex intervals_;
  TwoHopLabeling two_hop_;
};

}  // namespace sargus

#endif  // SARGUS_INDEX_LINE_ORACLE_H_
