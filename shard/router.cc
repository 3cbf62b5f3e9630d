#include "shard/router.h"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>

#include "graph/subgraph.h"

namespace sargus {
namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

uint64_t ConfigKey(const wire::FrontierEntry& e) {
  return (static_cast<uint64_t>(e.node) << 32) | e.state;
}

/// splitmix64 finalizer: the deterministic hash behind backoff jitter.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool IsTransportError(const Status& s) {
  return s.code() == StatusCode::kUnavailable ||
         s.code() == StatusCode::kDeadlineExceeded;
}

/// Router decisions carry the router stamp (the sum over shards), not
/// the answering shard's own.
Result<AccessDecision> Stamped(Result<AccessDecision> d,
                               const wire::Stamp& stamp) {
  if (d.ok()) {
    d->snapshot_generation = stamp.snapshot_generation;
    d->overlay_version = stamp.overlay_version;
  }
  return d;
}

bool HasCutArc(const ShardTopology& topo, NodeId src, NodeId dst,
               LabelId label) {
  for (const CutArc& a : topo.CutOut(src)) {
    if (a.other == dst && a.label == label) return true;
  }
  return false;
}

void EraseCutArc(std::unordered_map<NodeId, std::vector<CutArc>>& map,
                 NodeId key, NodeId other, LabelId label) {
  const auto it = map.find(key);
  if (it == map.end()) return;
  auto& arcs = it->second;
  for (auto a = arcs.begin(); a != arcs.end(); ++a) {
    if (a->other == other && a->label == label) {
      arcs.erase(a);
      break;
    }
  }
  if (arcs.empty()) map.erase(it);
}

}  // namespace

ShardRouter::ShardRouter(SocialGraph& graph, const PolicyStore& store,
                         RouterOptions options)
    : master_graph_(&graph),
      master_store_(&store),
      options_(std::move(options)) {}

Status ShardRouter::Build() {
  SARGUS_ASSIGN_OR_RETURN(
      partition_, GraphPartitioner::Partition(*master_graph_, options_.partition));

  shards_.clear();
  if (partition_.num_shards == 1) {
    // One shard: the engine serves the caller's graph + store in place.
    shards_.push_back(std::make_unique<ShardEngine>(
        0, *master_graph_, *master_store_, options_.engine));
  } else {
    for (uint32_t s = 0; s < partition_.num_shards; ++s) {
      SARGUS_ASSIGN_OR_RETURN(
          SocialGraph sub,
          ExtractShardGraph(*master_graph_, partition_.shard_of, s));
      SARGUS_ASSIGN_OR_RETURN(PolicyStore cloned,
                              ClonePolicyStore(*master_store_));
      shards_.push_back(std::make_unique<ShardEngine>(
          s, std::make_unique<SocialGraph>(std::move(sub)),
          std::make_unique<PolicyStore>(std::move(cloned)), options_.engine));
    }
  }
  for (auto& shard : shards_) {
    SARGUS_RETURN_IF_ERROR(shard->Build());
  }

  // Stand up the data-plane transport (decorated when the caller
  // installed a fault seam) and the per-shard circuit breaker.
  std::vector<ShardEngine*> raw;
  raw.reserve(shards_.size());
  for (auto& shard : shards_) raw.push_back(shard.get());
  auto base = std::make_unique<InProcessTransport>(std::move(raw));
  transport_ = options_.transport_decorator
                   ? options_.transport_decorator(std::move(base))
                   : std::move(base);
  if (transport_ == nullptr) {
    return Status::InvalidArgument(
        "ShardRouter: transport_decorator returned null");
  }
  health_ = std::make_unique<ShardHealthTracker>(
      partition_.num_shards, options_.robustness.breaker_failure_threshold,
      options_.robustness.breaker_open_ms);

  resources_.clear();
  resources_.reserve(master_store_->NumResources());
  for (ResourceId r = 0; r < master_store_->NumResources(); ++r) {
    const PolicyStore::Resource& res = master_store_->resource(r);
    resources_.push_back(RouterResource{res.owner, res.rules});
  }
  paths_.assign(master_store_->NumRules(), {});
  for (RuleId id = 0; id < master_store_->NumRules(); ++id) {
    for (const PathExpression& expr : master_store_->rule(id).paths) {
      RouterPath rp;
      Result<BoundPathExpression> bound =
          BoundPathExpression::Bind(expr, *master_graph_);
      if (bound.ok()) {
        rp.bound =
            std::make_shared<const BoundPathExpression>(std::move(*bound));
      } else {
        rp.bind_status = bound.status();
      }
      paths_[id].push_back(std::move(rp));
    }
  }

  auto topo = std::make_shared<ShardTopology>();
  topo->num_shards = partition_.num_shards;
  topo->shard_of = partition_.shard_of;
  for (const Edge& e : partition_.cut_edges) {
    topo->cut_out[e.src].push_back({e.dst, e.label});
  }
  topo->epoch = 1;
  PublishTopology(std::move(topo));

  loads_.assign(partition_.num_shards, 0);
  for (uint32_t s = 0; s < partition_.num_shards; ++s) {
    loads_[s] = partition_.members[s].size();
  }

  built_ = true;
  return OkStatus();
}

void ShardRouter::PublishTopology(std::shared_ptr<const ShardTopology> topo) {
  {
    std::lock_guard<std::mutex> lock(topo_mu_);
    topo_ = topo;
  }
  for (auto& shard : shards_) shard->SetTopology(topo);
}

std::shared_ptr<const ShardTopology> ShardRouter::topology() const {
  std::lock_guard<std::mutex> lock(topo_mu_);
  return topo_;
}

wire::Stamp ShardRouter::Stamp() const {
  wire::Stamp total;
  for (const auto& shard : shards_) {
    const wire::Stamp s = shard->ViewStamp();
    total.snapshot_generation += s.snapshot_generation;
    total.overlay_version += s.overlay_version;
  }
  return total;
}

RouterCounters ShardRouter::counters() const {
  RouterCounters c;
  c.checks = counters_.checks.load(kRelaxed);
  c.cross_shard_checks = counters_.cross_shard_checks.load(kRelaxed);
  c.local_conclusive = counters_.local_conclusive.load(kRelaxed);
  c.phase_one_resolved = counters_.phase_one_resolved.load(kRelaxed);
  c.fallback_walks = counters_.fallback_walks.load(kRelaxed);
  c.cross_fallback_walks = counters_.cross_fallback_walks.load(kRelaxed);
  c.fallback_rounds = counters_.fallback_rounds.load(kRelaxed);
  c.retries = counters_.retries.load(kRelaxed);
  c.timeouts = counters_.timeouts.load(kRelaxed);
  c.breaker_opens = health_ == nullptr ? 0 : health_->opens();
  c.unavailable_errors = counters_.unavailable_errors.load(kRelaxed);
  return c;
}

template <typename Reply, typename Fn>
Result<Reply> ShardRouter::CallShard(uint32_t shard, uint64_t salt,
                                     Fn&& call) const {
  const RouterRobustnessOptions& rb = options_.robustness;
  const uint64_t start = transport_->NowMs();
  const uint64_t budget_deadline =
      rb.op_budget_ms == 0 ? 0 : start + rb.op_budget_ms;
  const uint32_t attempts = std::max<uint32_t>(1, rb.max_attempts);
  Status last = OkStatus();
  auto last_attempt = [&last]() -> std::string {
    return last.ok() ? "" : " (last attempt: " + last.ToString() + ")";
  };
  for (uint32_t attempt = 0; attempt < attempts; ++attempt) {
    const uint64_t now = attempt == 0 ? start : transport_->NowMs();
    if (attempt > 0 && budget_deadline != 0 && now > budget_deadline) {
      counters_.timeouts.fetch_add(1, kRelaxed);
      return Status::DeadlineExceeded("shard " + std::to_string(shard) +
                                      ": operation budget exhausted" +
                                      last_attempt());
    }
    if (!health_->AllowCall(shard, now)) {
      return Status::Unavailable("shard " + std::to_string(shard) +
                                 ": circuit breaker open" + last_attempt());
    }
    if (attempt > 0) counters_.retries.fetch_add(1, kRelaxed);
    TransportCallOptions opts;
    opts.deadline_ms = budget_deadline;
    if (rb.call_deadline_ms != 0 &&
        (budget_deadline == 0 || now + rb.call_deadline_ms < budget_deadline)) {
      opts.deadline_ms = now + rb.call_deadline_ms;
    }
    Result<Reply> r = call(opts);
    if (r.ok()) {
      // The transport worked; an in-band reply status is an answer,
      // not an infrastructure failure.
      health_->RecordSuccess(shard);
      return r;
    }
    health_->RecordFailure(shard, transport_->NowMs());
    if (r.status().code() == StatusCode::kDeadlineExceeded) {
      counters_.timeouts.fetch_add(1, kRelaxed);
    }
    last = r.status();
    if (attempt + 1 < attempts) {
      uint64_t backoff = std::min<uint64_t>(
          uint64_t{rb.backoff_base_ms} << attempt, rb.backoff_max_ms);
      if (backoff > 0 && rb.backoff_jitter > 0) {
        // Deterministic jitter: a hash of (seed, shard, attempt, call
        // salt). The salt is content-derived, so concurrent retry
        // storms jitter identically no matter how they interleave —
        // yet distinct calls never lockstep.
        const uint64_t h = Mix64(rb.jitter_seed ^ (uint64_t{shard} << 40) ^
                                 (uint64_t{attempt} << 32) ^ Mix64(salt));
        const double frac = static_cast<double>(h >> 11) * 0x1.0p-53;
        backoff += static_cast<uint64_t>(static_cast<double>(backoff) *
                                         rb.backoff_jitter * frac);
      }
      if (backoff > 0) transport_->SleepMs(static_cast<uint32_t>(backoff));
    }
  }
  return last;
}

Result<wire::MutateReply> ShardRouter::CallMutate(
    uint32_t shard, const wire::MutateRequest& req) {
  const uint64_t salt = (uint64_t{static_cast<uint8_t>(req.op)} << 56) ^
                        (uint64_t{req.src} << 28) ^ (uint64_t{req.dst} << 8) ^
                        req.label;
  return CallShard<wire::MutateReply>(
      shard, salt, [&](const TransportCallOptions& opts) {
        return transport_->Mutate(shard, req, opts);
      });
}

Result<AccessDecision> ShardRouter::CheckAccess(
    const AccessRequest& request) const {
  if (!built_) {
    return Status::FailedPrecondition("ShardRouter: Build() not called");
  }
  counters_.checks.fetch_add(1, kRelaxed);
  return DecideMulti(request);
}

Result<AccessDecision> ShardRouter::DecideMulti(
    const AccessRequest& request) const {
  Result<AccessDecision> d = DecideMultiImpl(request);
  if (!d.ok() && IsTransportError(d.status())) {
    counters_.unavailable_errors.fetch_add(1, kRelaxed);
  }
  return d;
}

Result<AccessDecision> ShardRouter::DecideMultiImpl(
    const AccessRequest& request) const {
  const auto topo = topology();
  if (request.resource >= resources_.size()) {
    return Status::NotFound("ShardRouter: unknown resource " +
                            std::to_string(request.resource));
  }
  if (request.requester >= topo->shard_of.size()) {
    return Status::InvalidArgument("ShardRouter: requester " +
                                   std::to_string(request.requester) +
                                   " out of range");
  }
  const RouterResource& res = resources_[request.resource];
  const wire::Stamp stamp = Stamp();

  if (request.requester == res.owner) {
    AccessDecision d;
    d.granted = true;
    d.owner_access = true;
    d.requester = request.requester;
    d.resource = request.resource;
    d.evaluator_name = "shard-owner";
    d.snapshot_generation = stamp.snapshot_generation;
    d.overlay_version = stamp.overlay_version;
    return d;
  }

  // Step 1 (local phase): the owner shard decides over its local edges.
  // A grant is authoritative — local edges are a subset of global edges
  // — and carries the witness when one was requested. With no cut edge
  // anywhere no walk can leave the owner's shard, so any reply is.
  const uint32_t owner_shard = topo->shard_of[res.owner];
  const uint64_t check_salt =
      (uint64_t{request.requester} << 32) ^ request.resource;
  const Result<wire::CheckReply> local_r = CallShard<wire::CheckReply>(
      owner_shard, check_salt, [&](const TransportCallOptions& opts) {
        return transport_->Check(owner_shard, ToWire(request), opts);
      });
  // An unreachable owner shard (retries and breaker already consulted)
  // is an explicit error: every path starts there, so nothing else can
  // conclude the check exactly.
  if (!local_r.ok()) return local_r.status();
  const wire::CheckReply& local = *local_r;
  if ((local.status_code == 0 && local.granted != 0) ||
      topo->cut_out.empty()) {
    counters_.local_conclusive.fetch_add(1, kRelaxed);
    return Stamped(FromWire(local, request.requester, request.resource),
                   stamp);
  }
  if (request.evaluator_override.has_value() && local.status_code != 0) {
    // Evaluator overrides are a shard-local concern (the cross-shard
    // procedure has its own fixed strategy); surface the shard's error
    // the way a single engine would.
    return wire::UnpackStatus(local.status_code, local.error);
  }

  // Step 2: per rule path, exact global reachability. Disjunction
  // semantics mirror the engine: first error is remembered and surfaced
  // only when nothing grants.
  counters_.cross_shard_checks.fetch_add(1, kRelaxed);
  CrossStats cross;
  cross.pairs_visited = local.pairs_visited;
  std::optional<Status> first_error;
  std::optional<RuleId> matched;
  for (const RuleId rule : res.rules) {
    for (uint32_t p = 0; p < paths_[rule].size() && !matched; ++p) {
      const RouterPath& rp = paths_[rule][p];
      if (!rp.bind_status.ok()) {
        if (!first_error.has_value()) first_error = rp.bind_status;
        continue;
      }
      Result<bool> reached =
          PathReaches(*topo, rule, p, res.owner, request.requester, cross);
      if (!reached.ok()) {
        if (!first_error.has_value()) first_error = reached.status();
        continue;
      }
      if (*reached) matched = rule;
    }
    if (matched.has_value()) break;
  }
  if (cross.used_fallback) {
    counters_.cross_fallback_walks.fetch_add(1, kRelaxed);
  } else {
    counters_.phase_one_resolved.fetch_add(1, kRelaxed);
  }
  if (!matched.has_value() && first_error.has_value()) return *first_error;

  AccessDecision d;
  d.granted = matched.has_value();
  d.requester = request.requester;
  d.resource = request.resource;
  d.matched_rule = matched;
  d.stats.pairs_visited = cross.pairs_visited;
  d.evaluator_name = cross.used_fallback ? "shard-frontier" : "shard-local";
  d.snapshot_generation = stamp.snapshot_generation;
  d.overlay_version = stamp.overlay_version;
  return d;
}

Result<bool> ShardRouter::PathReaches(const ShardTopology& topo, RuleId rule,
                                      uint32_t path, NodeId owner,
                                      NodeId requester,
                                      CrossStats& stats) const {
  // Phase one: walk the owner's shard from the automaton start closure.
  wire::WalkRequest phase1;
  phase1.rule = rule;
  phase1.path = path;
  phase1.requester = requester;
  phase1.seed = wire::WalkSeed::kOwnerStarts;
  phase1.owner = owner;
  const uint32_t owner_shard = topo.shard_of[owner];
  const uint64_t walk_salt = (uint64_t{rule} << 48) ^ (uint64_t{path} << 40) ^
                             (uint64_t{owner} << 20) ^ requester;
  const Result<wire::WalkReply> r1r = CallShard<wire::WalkReply>(
      owner_shard, walk_salt, [&](const TransportCallOptions& opts) {
        return transport_->ExpandFrontier(owner_shard, phase1, opts);
      });
  if (!r1r.ok()) return r1r.status();
  const wire::WalkReply& r1 = *r1r;
  if (r1.status_code != 0) {
    return wire::UnpackStatus(r1.status_code, r1.error);
  }
  stats.pairs_visited += r1.pairs_visited;
  if (r1.accepted != 0) return true;
  // Nothing escaped the shard: the deny is global.
  if (r1.exports.empty()) return false;
  return FallbackWalk(topo, rule, path, owner, requester, r1.exports, stats);
}

Result<bool> ShardRouter::FallbackWalk(
    const ShardTopology& topo, RuleId rule, uint32_t path, NodeId owner,
    NodeId requester, std::span<const wire::FrontierEntry> seeds,
    CrossStats& stats) const {
  stats.used_fallback = true;
  counters_.fallback_walks.fetch_add(1, kRelaxed);
  const uint64_t base_salt = 0xFA11ULL ^ (uint64_t{rule} << 48) ^
                             (uint64_t{path} << 40) ^ (uint64_t{owner} << 20) ^
                             requester;

  // Two-phase rounds: every shard with pending entries walks once per
  // round, in ascending shard order, and fresh exports only enter the
  // NEXT round's pending sets — so a round's walks are independent of
  // each other's results, and the round runs to its end even after an
  // acceptance or a failure. The global processed set makes each
  // (node, state) configuration cross a shard boundary at most once,
  // which bounds the rounds.
  std::unordered_set<uint64_t> processed;
  std::vector<std::vector<wire::FrontierEntry>> pending(shards_.size());
  auto enqueue = [&](const wire::FrontierEntry& e,
                     std::vector<std::vector<wire::FrontierEntry>>& dest) {
    if (processed.insert(ConfigKey(e)).second) {
      dest[topo.shard_of[e.node]].push_back(e);
    }
  };
  for (const wire::FrontierEntry& e : seeds) enqueue(e, pending);
  auto idle = [&pending] {
    return std::all_of(pending.begin(), pending.end(),
                       [](const auto& p) { return p.empty(); });
  };

  uint64_t rounds = 0;
  bool accepted = false;
  std::optional<Status> failure;
  while (!accepted && !failure.has_value() && !idle()) {
    ++rounds;
    std::vector<std::vector<wire::FrontierEntry>> next(shards_.size());
    for (uint32_t s = 0; s < shards_.size(); ++s) {
      if (pending[s].empty()) continue;
      wire::WalkRequest wr;
      wr.rule = rule;
      wr.path = path;
      wr.requester = requester;
      wr.seed = wire::WalkSeed::kFrontier;
      wr.owner = owner;
      wr.frontier = std::move(pending[s]);
      const Result<wire::WalkReply> rr = CallShard<wire::WalkReply>(
          s, base_salt ^ (rounds << 8), [&](const TransportCallOptions& opts) {
            return transport_->ExpandFrontier(s, wr, opts);
          });
      const Status st = rr.ok()
                            ? wire::UnpackStatus(rr->status_code, rr->error)
                            : rr.status();
      if (!st.ok()) {
        if (!failure.has_value()) failure = st;
        continue;
      }
      stats.pairs_visited += rr->pairs_visited;
      if (rr->accepted != 0) {
        accepted = true;
      } else {
        for (const wire::FrontierEntry& e : rr->exports) enqueue(e, next);
      }
    }
    pending = std::move(next);
  }
  counters_.fallback_rounds.fetch_add(rounds, kRelaxed);
  if (accepted) return true;  // a live walk's accept is exact even if a
                              // sibling shard faulted this round
  if (failure.has_value()) return *failure;
  return false;
}

std::vector<Result<AccessDecision>> ShardRouter::CheckAccessBatch(
    std::span<const AccessRequest> requests) const {
  if (!built_) {
    std::vector<Result<AccessDecision>> out;
    out.reserve(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      out.emplace_back(
          Status::FailedPrecondition("ShardRouter: Build() not called"));
    }
    return out;
  }
  counters_.checks.fetch_add(requests.size(), kRelaxed);

  const auto topo = topology();
  const wire::Stamp stamp = Stamp();
  const bool cut_free = topo->cut_out.empty();
  std::vector<std::optional<Result<AccessDecision>>> slots(requests.size());

  // Group by resource-owner shard; one shard-local batch per group.
  // Authoritative replies (see DecideMultiImpl) settle their slots;
  // everything else escalates.
  std::vector<std::vector<uint32_t>> groups(shards_.size());
  for (uint32_t i = 0; i < requests.size(); ++i) {
    const AccessRequest& r = requests[i];
    if (r.resource >= resources_.size()) {
      slots[i] = Status::NotFound("ShardRouter: unknown resource " +
                                  std::to_string(r.resource));
      continue;
    }
    if (r.requester >= topo->shard_of.size()) {
      slots[i] = Status::InvalidArgument("ShardRouter: requester " +
                                         std::to_string(r.requester) +
                                         " out of range");
      continue;
    }
    groups[topo->shard_of[resources_[r.resource].owner]].push_back(i);
  }
  for (uint32_t s = 0; s < groups.size(); ++s) {
    if (groups[s].empty()) continue;
    wire::BatchCheckRequest batch;
    batch.requests.reserve(groups[s].size());
    for (uint32_t i : groups[s]) batch.requests.push_back(ToWire(requests[i]));
    const wire::CheckRequest& head = batch.requests.front();
    const uint64_t salt = 0xBA7CULL ^ (uint64_t{s} << 48) ^
                          (batch.requests.size() << 36) ^
                          (uint64_t{head.requester} << 18) ^ head.resource;
    const Result<wire::BatchCheckReply> replies_r =
        CallShard<wire::BatchCheckReply>(
            s, salt, [&](const TransportCallOptions& opts) {
              return transport_->CheckBatch(s, batch, opts);
            });
    // A transport failure (or short reply) escalates every slot of the
    // group to the per-request procedure, which carries its own retry
    // handling.
    if (!replies_r.ok()) continue;
    const wire::BatchCheckReply& replies = *replies_r;
    if (replies.replies.size() != groups[s].size()) continue;  // escalate all
    for (size_t k = 0; k < groups[s].size(); ++k) {
      const uint32_t i = groups[s][k];
      const wire::CheckReply& reply = replies.replies[k];
      if (!cut_free && (reply.status_code != 0 || reply.granted == 0)) {
        continue;
      }
      counters_.local_conclusive.fetch_add(1, kRelaxed);
      slots[i] = Stamped(
          FromWire(reply, requests[i].requester, requests[i].resource), stamp);
    }
  }

  std::vector<Result<AccessDecision>> out;
  out.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (slots[i].has_value()) {
      out.push_back(std::move(*slots[i]));
    } else {
      out.push_back(DecideMulti(requests[i]));
    }
  }
  return out;
}

Status ShardRouter::AddEdge(NodeId src, NodeId dst, const std::string& label) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (!built_) {
    return Status::FailedPrecondition("ShardRouter: Build() not called");
  }
  const auto topo = topology();
  if (src >= topo->shard_of.size() || dst >= topo->shard_of.size()) {
    return Status::InvalidArgument("AddEdge: endpoint out of range");
  }
  // Pre-intern the name everywhere (master first) so the id every shard
  // resolves is identical — the invariant wire frontiers rely on.
  const LabelId id = master_graph_->labels().Intern(label);
  for (auto& shard : shards_) {
    if (shard->InternLabel(label) != id) {
      return Status::Internal("AddEdge: label dictionaries diverged");
    }
  }
  return AddEdgeImpl(src, dst, id);
}

Status ShardRouter::AddEdge(NodeId src, NodeId dst, LabelId label) {
  std::lock_guard<std::mutex> lock(write_mu_);
  return AddEdgeImpl(src, dst, label);
}

Status ShardRouter::AddEdgeImpl(NodeId src, NodeId dst, LabelId label) {
  if (!built_) {
    return Status::FailedPrecondition("ShardRouter: Build() not called");
  }
  const auto topo = topology();
  if (src >= topo->shard_of.size() || dst >= topo->shard_of.size()) {
    return Status::InvalidArgument("AddEdge: endpoint out of range");
  }
  const uint32_t s1 = topo->shard_of[src];
  const uint32_t s2 = topo->shard_of[dst];

  wire::MutateRequest req;
  req.op = wire::MutateOp::kAddEdge;
  req.src = src;
  req.dst = dst;
  req.label = label;
  // Transport mutations are fail-stop-before-apply (shard/transport.h):
  // a transport error here means shard s1 never saw the edge.
  const Result<wire::MutateReply> r1 = CallMutate(s1, req);
  if (!r1.ok()) return r1.status();
  Status st = wire::UnpackStatus(r1->status_code, r1->error);
  if (s2 != s1) {
    const Result<wire::MutateReply> r2 = CallMutate(s2, req);
    if (!r2.ok()) {
      // s1 already applied its half of the cut edge. Compensate with a
      // direct engine rollback — the in-process control plane stays
      // reliable even when the data-plane transport is faulting — so a
      // torn cut edge is never observable.
      if (st.ok()) {
        const Status undo = shards_[s1]->engine().RemoveEdge(src, dst, label);
        if (!undo.ok()) {
          return Status::Internal(
              "AddEdge: rollback after partial apply failed: " +
              undo.ToString() + " (original: " + r2.status().ToString() + ")");
        }
      }
      return r2.status();
    }
    const Status st2 = wire::UnpackStatus(r2->status_code, r2->error);
    if (st.ok() != st2.ok()) {
      return Status::Internal("AddEdge: shards disagree (" + st.ToString() +
                              " vs " + st2.ToString() + ")");
    }
  }
  if (!st.ok()) return st;
  if (s1 != s2 && !HasCutArc(*topo, src, dst, label)) {
    auto next = std::make_shared<ShardTopology>(*topo);
    next->cut_out[src].push_back({dst, label});
    ++next->epoch;
    PublishTopology(std::move(next));
  }
  return OkStatus();
}

Status ShardRouter::RemoveEdge(NodeId src, NodeId dst,
                               const std::string& label) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (!built_) {
    return Status::FailedPrecondition("ShardRouter: Build() not called");
  }
  const LabelId id = master_graph_->labels().Lookup(label);
  if (id == kInvalidLabel) {
    return Status::NotFound("RemoveEdge: unknown label '" + label + "'");
  }
  return RemoveEdgeImpl(src, dst, id);
}

Status ShardRouter::RemoveEdge(NodeId src, NodeId dst, LabelId label) {
  std::lock_guard<std::mutex> lock(write_mu_);
  return RemoveEdgeImpl(src, dst, label);
}

Status ShardRouter::RemoveEdgeImpl(NodeId src, NodeId dst, LabelId label) {
  if (!built_) {
    return Status::FailedPrecondition("ShardRouter: Build() not called");
  }
  const auto topo = topology();
  if (src >= topo->shard_of.size() || dst >= topo->shard_of.size()) {
    return Status::InvalidArgument("RemoveEdge: endpoint out of range");
  }
  const uint32_t s1 = topo->shard_of[src];
  const uint32_t s2 = topo->shard_of[dst];

  wire::MutateRequest req;
  req.op = wire::MutateOp::kRemoveEdge;
  req.src = src;
  req.dst = dst;
  req.label = label;
  const Result<wire::MutateReply> r1 = CallMutate(s1, req);
  if (!r1.ok()) return r1.status();
  Status st = wire::UnpackStatus(r1->status_code, r1->error);
  if (s2 != s1) {
    const Result<wire::MutateReply> r2 = CallMutate(s2, req);
    if (!r2.ok()) {
      // Mirror of the AddEdge compensation: restore s1's half so the
      // cut edge is not half-removed.
      if (st.ok()) {
        const Status undo = shards_[s1]->engine().AddEdge(src, dst, label);
        if (!undo.ok()) {
          return Status::Internal(
              "RemoveEdge: rollback after partial apply failed: " +
              undo.ToString() + " (original: " + r2.status().ToString() + ")");
        }
      }
      return r2.status();
    }
    const Status st2 = wire::UnpackStatus(r2->status_code, r2->error);
    if (st.ok() != st2.ok()) {
      return Status::Internal("RemoveEdge: shards disagree (" + st.ToString() +
                              " vs " + st2.ToString() + ")");
    }
  }
  if (!st.ok()) return st;
  if (s1 != s2 && HasCutArc(*topo, src, dst, label)) {
    auto next = std::make_shared<ShardTopology>(*topo);
    EraseCutArc(next->cut_out, src, dst, label);
    ++next->epoch;
    PublishTopology(std::move(next));
  }
  return OkStatus();
}

Result<NodeId> ShardRouter::AddNode() {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (!built_) {
    return Status::FailedPrecondition("ShardRouter: Build() not called");
  }
  const auto topo = topology();
  // Every shard keeps the full node id space, so the node is added to
  // ALL shards (the ids must come back aligned); the topology then
  // assigns ownership to the least-loaded shard. This is a cluster-
  // membership operation, so it goes over the direct control plane, not
  // the faultable transport: a partial AddNode would misalign node ids
  // across shards permanently, which no retry could repair.
  const NodeId expected = static_cast<NodeId>(topo->shard_of.size());
  wire::MutateRequest req;
  req.op = wire::MutateOp::kAddNode;
  // Fan the round out through the per-shard mutation queues and gather
  // the tickets: N shards assign the id concurrently. write_mu_ keeps
  // any other router AddNode from interleaving its submissions, so each
  // shard sees exactly one AddNode and alignment still holds.
  std::vector<WriteTicket> tickets;
  tickets.reserve(shards_.size());
  for (auto& shard : shards_) tickets.push_back(shard->SubmitMutate(req));
  Status failed = OkStatus();
  for (const WriteTicket& ticket : tickets) {
    const wire::MutateReply reply =
        ShardEngine::ReplyFromOutcome(req, ticket.Wait());
    const Status st = wire::UnpackStatus(reply.status_code, reply.error);
    if (!st.ok()) {
      // Drain every ticket before failing — no abandoned futures.
      if (failed.ok()) failed = st;
      continue;
    }
    if (failed.ok() && reply.new_node != expected) {
      failed = Status::Internal(
          "AddNode: shard node ids diverged (got " +
          std::to_string(reply.new_node) + ", expected " +
          std::to_string(expected) + ")");
    }
  }
  SARGUS_RETURN_IF_ERROR(failed);
  uint32_t target = 0;
  for (uint32_t s = 1; s < loads_.size(); ++s) {
    if (loads_[s] < loads_[target]) target = s;
  }
  ++loads_[target];
  auto next = std::make_shared<ShardTopology>(*topo);
  next->shard_of.push_back(target);
  ++next->epoch;
  PublishTopology(std::move(next));
  return expected;
}

Status ShardRouter::CompactAll() {
  if (!built_) {
    return Status::FailedPrecondition("ShardRouter: Build() not called");
  }
  for (auto& shard : shards_) {
    SARGUS_RETURN_IF_ERROR(shard->engine().Compact());
    shard->engine().WaitForCompaction();
  }
  return OkStatus();
}

}  // namespace sargus
