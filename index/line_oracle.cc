#include "index/line_oracle.h"

#include <utility>
#include <vector>

namespace sargus {

Result<LineReachabilityOracle> LineReachabilityOracle::Build(
    const LineGraph& lg, Options options) {
  LineReachabilityOracle oracle;
  oracle.scc_ = ComputeScc(lg);
  oracle.dag_ = BuildCondensation(oracle.scc_, lg);
  oracle.intervals_ = IntervalIndex::Build(oracle.dag_, options.interval_seed);
  auto two_hop = TwoHopLabeling::Build(oracle.dag_, options.two_hop);
  if (!two_hop.ok()) return two_hop.status();
  oracle.two_hop_ = std::move(*two_hop);
  return oracle;
}

bool LineReachabilityOracle::ReachableVia(LineVertexId u, LineVertexId v,
                                          OracleMode mode) const {
  if (u >= scc_.component_of.size() || v >= scc_.component_of.size()) {
    return false;
  }
  return ComponentReachable(scc_.component_of[u], scc_.component_of[v], mode);
}

bool LineReachabilityOracle::ComponentReachable(uint32_t cu, uint32_t cv,
                                                OracleMode mode) const {
  if (cu == cv) return true;
  if (mode == OracleMode::kTwoHop) {
    return two_hop_.Reachable(cu, cv);
  }
  // Interval mode: GRAIL containment is a necessary condition, so a failed
  // check is a certain negative; otherwise run a DFS over the DAG pruning
  // every subtree whose interval cannot contain the target.
  const IntervalLabeling& fwd = intervals_.forward;
  if (!fwd.MayReach(cu, cv)) return false;
  std::vector<uint32_t> stack{cu};
  std::vector<uint8_t> visited(dag_.NumVertices(), 0);
  visited[cu] = 1;
  while (!stack.empty()) {
    const uint32_t x = stack.back();
    stack.pop_back();
    if (x == cv) return true;
    for (uint32_t w : dag_.Out(x)) {
      if (!visited[w] && fwd.MayReach(w, cv)) {
        visited[w] = 1;
        stack.push_back(w);
      }
    }
  }
  return false;
}

}  // namespace sargus
