#ifndef SARGUS_SHARD_ROUTER_H_
#define SARGUS_SHARD_ROUTER_H_

/// \file router.h
/// \brief ShardRouter: the sharded serving tier's front door.
///
/// Build() partitions the master graph (shard/partitioner.h), extracts
/// one shard-local graph per shard (graph/subgraph.h), stands up one
/// ShardEngine per shard, and publishes the initial ShardTopology. From
/// then on the router exposes the same CheckAccess / CheckAccessBatch /
/// AddEdge / RemoveEdge / AddNode surface as a single
/// AccessControlEngine — decisions agree exactly with a single engine
/// over the unpartitioned graph — while all real work happens inside
/// the shards, reached only through the wire messages of shard/wire.h.
///
/// Decision procedure for a non-owner check (see DecideMultiImpl):
///
///   1. *Local phase*: ask the resource owner's shard directly. Its
///      reply is authoritative when it grants (shard-local edges are a
///      subset of global edges) or when the topology has no cut edges
///      (no walk can then leave the owner's shard, so the local answer
///      is the global one; this covers N = 1, where one ShardEngine
///      wraps the caller's graph and store in place). Otherwise each
///      rule path runs a phase-one walk on the owner's shard; its deny
///      is authoritative only if the walk's export set is empty (no
///      configuration escaped the shard).
///   2. *Frontier exchange*: two-phase rounds shipping (node, state,
///      residual-hops) frontiers to the owning shards until acceptance
///      or a global fixpoint. Exact, and it reads the shards' current
///      views, so every write is visible to the very next check.
///
/// Mutations route to the owning shard — both owners for a cut edge —
/// preserving each engine's single-writer contract, and republish a
/// copy-on-write topology when the cut set or node count changes. The
/// router's write path must itself be externally serialized (one writer
/// at a time), mirroring the engine contract; reads are concurrent.
///
/// Robustness: every data-plane shard call goes through a
/// ShardTransport (shard/transport.h) under a retry / deadline /
/// circuit-breaker policy (RouterRobustnessOptions). When an owner
/// shard is unreachable, every non-owner check fails with an explicit
/// kUnavailable or kDeadlineExceeded — a completed decision is always
/// exact, a non-answer is always an error, and a silently wrong grant
/// or deny is never returned. Owner access is answered without the
/// data plane. Control-plane operations (Build, AddNode, CompactAll,
/// stamp reads) stay direct in-process calls: they model cluster
/// management, which a real deployment runs over a reliable
/// coordination channel, not the request path.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/access_engine.h"
#include "shard/partitioner.h"
#include "shard/shard_engine.h"
#include "shard/topology.h"
#include "shard/transport.h"
#include "shard/wire.h"

namespace sargus {

/// Retry / deadline / circuit-breaker policy for the router's data-
/// plane calls (see docs/ARCHITECTURE.md, "Failure model & explicit
/// errors"). Every transport call gets a per-attempt deadline; failed
/// attempts retry with exponential backoff + deterministic jitter under
/// a per-operation budget; a shard that keeps failing trips a breaker
/// and fails fast until a half-open probe succeeds.
struct RouterRobustnessOptions {
  /// Per-attempt deadline, ms (0 = none).
  uint32_t call_deadline_ms = 50;
  /// Total time budget for one logical shard operation including
  /// retries and backoff, ms (0 = none).
  uint32_t op_budget_ms = 250;
  /// Attempts per logical call (1 = no retries).
  uint32_t max_attempts = 3;
  /// Backoff before retry k (0-based) is
  /// min(backoff_base_ms << k, backoff_max_ms), stretched by up to
  /// backoff_jitter of itself (deterministic per-call jitter).
  uint32_t backoff_base_ms = 1;
  uint32_t backoff_max_ms = 32;
  double backoff_jitter = 0.5;
  /// Consecutive transport failures that open a shard's breaker.
  uint32_t breaker_failure_threshold = 3;
  /// How long an open breaker fails fast before allowing one half-open
  /// probe, ms.
  uint32_t breaker_open_ms = 100;
  /// Seed for the deterministic backoff jitter.
  uint64_t jitter_seed = 0x5eedULL;
};

struct RouterOptions {
  PartitionOptions partition;
  EngineOptions engine;
  /// Retry / deadline / breaker policy.
  RouterRobustnessOptions robustness;
  /// Wraps the router's InProcessTransport at Build() — the seam the
  /// fault-injection tests use (wrap it in a FaultInjectionTransport).
  std::function<std::unique_ptr<ShardTransport>(
      std::unique_ptr<ShardTransport>)>
      transport_decorator;
};

/// Monotonic router-level counters (relaxed atomics; read with
/// counters()). The benches derive the cross-shard share and the
/// fallback rounds per check from these.
struct RouterCounters {
  uint64_t checks = 0;
  /// Checks that needed the cross-shard machinery (not answered by
  /// owner access or by an authoritative owner-shard reply).
  uint64_t cross_shard_checks = 0;
  /// Checks answered by the owner shard's local engine: a grant, or
  /// any reply while the topology has no cut edges.
  uint64_t local_conclusive = 0;
  /// Cross-shard checks whose phase-one walks exported nothing, so no
  /// frontier exchange ran.
  uint64_t phase_one_resolved = 0;
  /// Frontier-exchange walks run (per path evaluation).
  uint64_t fallback_walks = 0;
  /// Cross-shard checks that needed at least one frontier exchange.
  uint64_t cross_fallback_walks = 0;
  /// Total frontier-exchange rounds across all fallback walks.
  uint64_t fallback_rounds = 0;
  /// Transport-call re-attempts (attempt 2+ of a logical call).
  uint64_t retries = 0;
  /// Transport attempts that ended kDeadlineExceeded.
  uint64_t timeouts = 0;
  /// Circuit-breaker open transitions (closed->open and re-opens).
  uint64_t breaker_opens = 0;
  /// Checks that returned kUnavailable / kDeadlineExceeded.
  uint64_t unavailable_errors = 0;
};

class ShardRouter {
 public:
  /// `graph` and `store` must outlive the router. For num_shards == 1
  /// the router serves `graph` in place; otherwise it owns per-shard
  /// copies and `graph` becomes the frozen master (the router never
  /// mutates it beyond label interning in AddEdge-by-name).
  ShardRouter(SocialGraph& graph, const PolicyStore& store,
              RouterOptions options = {});

  /// Partitions, extracts, builds every shard engine, and publishes the
  /// initial topology.
  Status Build();

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  const GraphPartition& partition() const { return partition_; }
  ShardEngine& shard(uint32_t id) { return *shards_[id]; }
  const ShardEngine& shard(uint32_t id) const { return *shards_[id]; }
  std::shared_ptr<const ShardTopology> topology() const;

  /// The data-plane transport built at Build() (after decoration).
  /// Valid only after Build().
  ShardTransport& transport() const { return *transport_; }
  /// The per-shard circuit breaker. Valid only after Build().
  ShardHealthTracker& health() const { return *health_; }

  // ---- Read path (thread-safe; concurrent with one writer) ----------------

  Result<AccessDecision> CheckAccess(const AccessRequest& request) const;

  /// Positional batch. Requests are grouped by resource-owner shard and
  /// decided with one shard-local batch per group; only slots a
  /// shard-local batch cannot settle authoritatively (non-grants while
  /// the topology has cut edges) escalate to the per-request cross-shard
  /// procedure.
  std::vector<Result<AccessDecision>> CheckAccessBatch(
      std::span<const AccessRequest> requests) const;

  /// Sum of the per-shard view stamps: changes whenever any shard's
  /// published state changes, so it orders router-level decisions the
  /// way a single engine's (generation, version) pair does.
  wire::Stamp Stamp() const;

  RouterCounters counters() const;

  // ---- Write path (thread-safe: router-level mutations serialize on an
  // internal lock, then flow through each shard's MutationQueue) ------------
  //
  // AddEdge/RemoveEdge/AddNode may be called from any number of threads
  // concurrently. An internal write lock makes each call's multi-shard
  // protocol atomic with respect to other router mutations — the
  // cut-edge both-shards sequence (apply s1, apply s2, roll back s1 on
  // transport failure) and the AddNode all-shards id-alignment round
  // never interleave — while inside each shard the mutation rides the
  // engine's queue like any other producer's. Fail-stop-before-apply
  // on transport mutations (PR 7/8) is unchanged.

  Status AddEdge(NodeId src, NodeId dst, const std::string& label);
  Status AddEdge(NodeId src, NodeId dst, LabelId label);
  Status RemoveEdge(NodeId src, NodeId dst, const std::string& label);
  Status RemoveEdge(NodeId src, NodeId dst, LabelId label);

  /// Adds one node to every shard (ids stay aligned across shards) and
  /// assigns it to the least-loaded shard in a republished topology.
  /// The all-shards round fans out through the per-shard queues
  /// (ShardEngine::SubmitMutate) and gathers the tickets, so N shards
  /// assign the id concurrently, not serially.
  Result<NodeId> AddNode();

  /// No-op kept for source compatibility with callers from when the
  /// router cached boundary summaries; there is nothing to refresh.
  Status RefreshSummaries() { return OkStatus(); }

  /// Compacts every shard, waiting each out.
  Status CompactAll();

 private:
  struct RouterResource {
    NodeId owner = 0;
    std::vector<RuleId> rules;
  };
  struct RouterPath {
    Status bind_status = OkStatus();
    std::shared_ptr<const BoundPathExpression> bound;
  };
  /// Per-evaluation bookkeeping threaded through the cross-shard path.
  struct CrossStats {
    uint64_t pairs_visited = 0;
    bool used_fallback = false;
  };

  void PublishTopology(std::shared_ptr<const ShardTopology> topo);

  /// Full decision procedure (file comment, steps 1-2),
  /// plus retry / breaker handling. Wrapped by DecideMulti, which
  /// maintains the robustness counters.
  Result<AccessDecision> DecideMultiImpl(const AccessRequest& request) const;
  Result<AccessDecision> DecideMulti(const AccessRequest& request) const;

  /// Does a path from `owner` to `requester` matching (rule, path)
  /// exist in the global graph? Exact.
  Result<bool> PathReaches(const ShardTopology& topo, RuleId rule,
                           uint32_t path, NodeId owner, NodeId requester,
                           CrossStats& stats) const;

  /// Step 2: two-phase frontier-exchange rounds from `seeds`.
  Result<bool> FallbackWalk(const ShardTopology& topo, RuleId rule,
                            uint32_t path, NodeId owner, NodeId requester,
                            std::span<const wire::FrontierEntry> seeds,
                            CrossStats& stats) const;

  /// One robust logical transport call: per-attempt deadlines, bounded
  /// retries with jittered exponential backoff, and circuit-breaker
  /// consultation. `call` runs one attempt given its
  /// TransportCallOptions. `salt` feeds the jitter hash and must be
  /// derived from the call's CONTENT (shard, request identity), never
  /// shared mutable state, so concurrent retries jitter
  /// deterministically regardless of interleaving.
  template <typename Reply, typename Fn>
  Result<Reply> CallShard(uint32_t shard, uint64_t salt, Fn&& call) const;

  Result<wire::MutateReply> CallMutate(uint32_t shard,
                                       const wire::MutateRequest& req);

  /// Resolved-label mutation bodies; caller holds write_mu_ (the public
  /// by-name overloads resolve/pre-intern the label, then delegate).
  Status AddEdgeImpl(NodeId src, NodeId dst, LabelId label);
  Status RemoveEdgeImpl(NodeId src, NodeId dst, LabelId label);

  SocialGraph* master_graph_;
  const PolicyStore* master_store_;
  RouterOptions options_;

  GraphPartition partition_;
  std::vector<std::unique_ptr<ShardEngine>> shards_;
  /// Data-plane road to the shards (InProcessTransport, possibly
  /// decorated). Null until Build().
  std::unique_ptr<ShardTransport> transport_;
  std::unique_ptr<ShardHealthTracker> health_;
  /// Owner + rule mirror of the master store (resource-id indexed).
  std::vector<RouterResource> resources_;
  /// Router-side binds against the master dictionaries (rule-id
  /// indexed; ids identical in every shard).
  std::vector<std::vector<RouterPath>> paths_;
  bool built_ = false;

  mutable std::mutex topo_mu_;
  std::shared_ptr<const ShardTopology> topo_;

  /// Serializes router-level mutation protocols (cut-edge both-shards
  /// sequences, the AddNode fan-out, label pre-interning) against each
  /// other so concurrent callers cannot interleave their multi-shard
  /// steps. Per-shard serialization happens in the shard engines'
  /// MutationQueues; this lock only orders the router's own protocol.
  std::mutex write_mu_;
  /// Writer-side per-shard node loads, for AddNode placement. Guarded
  /// by write_mu_.
  std::vector<size_t> loads_;

  struct AtomicCounters {
    std::atomic<uint64_t> checks{0};
    std::atomic<uint64_t> cross_shard_checks{0};
    std::atomic<uint64_t> local_conclusive{0};
    std::atomic<uint64_t> phase_one_resolved{0};
    std::atomic<uint64_t> fallback_walks{0};
    std::atomic<uint64_t> cross_fallback_walks{0};
    std::atomic<uint64_t> fallback_rounds{0};
    std::atomic<uint64_t> retries{0};
    std::atomic<uint64_t> timeouts{0};
    std::atomic<uint64_t> unavailable_errors{0};
    // breaker_opens lives on the ShardHealthTracker.
  };
  mutable AtomicCounters counters_;
};

}  // namespace sargus

#endif  // SARGUS_SHARD_ROUTER_H_
