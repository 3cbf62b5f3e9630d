/// B11 -- Sharded serving tier.
///
/// Drives ShardRouter end to end over Zipf-skewed request mixes (hot
/// owners dominate, the way social traffic does) and reports, next to
/// the latency series, the router's own counters:
///
///  * cross_share — fraction of checks that needed the cross-shard
///    machinery at all (the rest were answered owner-locally).
///  * phase_one_share — fraction of cross-shard checks the owner shard's
///    phase-one walk settled alone (nothing escaped the shard), so no
///    frontier exchange ran.
///  * fallback_rounds_per_check / fallback_rounds_per_walk — mean
///    frontier-exchange rounds per check, and per exchange that ran.
///
/// BM_ShardCheckAccess / BM_ShardCheckBatch price reads on a static
/// graph; BM_ShardDirtyChurn interleaves router writes with the reads.
/// Every call reaches its shard through the one serial
/// InProcessTransport. At 1 shard the topology has no cut edges, so the
/// owner shard's reply settles every check (cross_share is 0) and the
/// series prices the router and transport over a single engine.
///
/// Robustness series: BM_ShardDirectCall / BM_ShardTransportCall price
/// the fault-free transport seam (the acceptance bar is the transport
/// staying within ~5% of direct engine calls), and
/// BM_ShardFaultInjection runs the full retry / breaker machinery under
/// a seeded fault storm, reporting the robustness counters next to the
/// latency.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "shard/router.h"
#include "shard/transport.h"
#include "shard/wire.h"

namespace sargus {
namespace bench {
namespace {

constexpr size_t kNodes = 2000;
constexpr size_t kResources = 64;
constexpr double kTheta = 0.8;

struct ShardedFixture {
  std::unique_ptr<SocialGraph> graph;
  std::unique_ptr<PolicyStore> store;
  std::unique_ptr<ShardRouter> router;
  std::vector<ResourceId> resources;
};

std::unique_ptr<ShardedFixture> MakeFixture(
    uint32_t shards, FaultInjectionTransport** fault = nullptr) {
  auto f = std::make_unique<ShardedFixture>();
  f->graph = std::make_unique<SocialGraph>(
      MakeGraph(GraphKind::kBarabasiAlbert, kNodes, 3, /*seed=*/17));
  f->store = std::make_unique<PolicyStore>();
  // Hot owners: resource ownership is itself Zipf-skewed over the node
  // space, so the request mix concentrates on a few popular owners.
  ZipfSampler owners(kNodes, kTheta, 99);
  const std::vector<std::vector<std::string>> rule_sets = {
      {"friend[1,2]"},
      {"friend[1,2]/colleague[1]"},
      {"colleague[1,3]"},
  };
  for (size_t i = 0; i < kResources; ++i) {
    const ResourceId r = f->store->RegisterResource(
        static_cast<NodeId>(owners.Next()), "res" + std::to_string(i));
    if (!f->store->AddRuleFromPaths(r, rule_sets[i % rule_sets.size()]).ok()) {
      return nullptr;
    }
    f->resources.push_back(r);
  }
  RouterOptions opts;
  opts.partition.num_shards = shards;
  // Contiguous ranges ignore community structure on purpose: they cut
  // straight through the BA core, which is what makes the cross-shard
  // machinery actually carry traffic here.
  opts.partition.strategy = PartitionStrategy::kContiguous;
  if (fault != nullptr) {
    opts.transport_decorator =
        [fault](std::unique_ptr<ShardTransport> inner)
        -> std::unique_ptr<ShardTransport> {
      auto t =
          std::make_unique<FaultInjectionTransport>(std::move(inner), 0xFA17);
      *fault = t.get();
      return t;
    };
  }
  f->router = std::make_unique<ShardRouter>(*f->graph, *f->store, opts);
  if (!f->router->Build().ok()) return nullptr;
  return f;
}

void ReportCounters(benchmark::State& state, const RouterCounters& before,
                    const RouterCounters& after) {
  const double cross =
      static_cast<double>(after.cross_shard_checks - before.cross_shard_checks);
  const double checks = static_cast<double>(after.checks - before.checks);
  const double phase_one = static_cast<double>(after.phase_one_resolved -
                                               before.phase_one_resolved);
  const double walks =
      static_cast<double>(after.fallback_walks - before.fallback_walks);
  const double rounds =
      static_cast<double>(after.fallback_rounds - before.fallback_rounds);
  state.counters["cross_share"] = checks > 0 ? cross / checks : 0.0;
  state.counters["phase_one_share"] = cross > 0 ? phase_one / cross : 0.0;
  state.counters["fallback_rounds_per_check"] =
      checks > 0 ? rounds / checks : 0.0;
  state.counters["fallback_rounds_per_walk"] = walks > 0 ? rounds / walks : 0.0;
  // Robustness counters (all zero on a fault-free transport).
  state.counters["retries"] =
      static_cast<double>(after.retries - before.retries);
  state.counters["timeouts"] =
      static_cast<double>(after.timeouts - before.timeouts);
  state.counters["breaker_opens"] =
      static_cast<double>(after.breaker_opens - before.breaker_opens);
  state.counters["unavailable_errors"] =
      static_cast<double>(after.unavailable_errors - before.unavailable_errors);
}

void BM_ShardCheckAccess(benchmark::State& state) {
  const auto shards = static_cast<uint32_t>(state.range(0));
  auto f = MakeFixture(shards);
  if (f == nullptr) {
    state.SkipWithError("fixture build failed");
    return;
  }
  ZipfSampler requesters(kNodes, kTheta, 7);
  ZipfSampler targets(kResources, kTheta, 8);
  const RouterCounters before = f->router->counters();
  for (auto _ : state) {
    AccessRequest req;
    req.requester = static_cast<NodeId>(requesters.Next());
    req.resource = f->resources[targets.Next()];
    auto d = f->router->CheckAccess(req);
    benchmark::DoNotOptimize(d);
  }
  ReportCounters(state, before, f->router->counters());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardCheckAccess)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ShardCheckBatch(benchmark::State& state) {
  const auto shards = static_cast<uint32_t>(state.range(0));
  constexpr size_t kBatch = 64;
  auto f = MakeFixture(shards);
  if (f == nullptr) {
    state.SkipWithError("fixture build failed");
    return;
  }
  ZipfSampler requesters(kNodes, kTheta, 7);
  ZipfSampler targets(kResources, kTheta, 8);
  std::vector<AccessRequest> batch(kBatch);
  const RouterCounters before = f->router->counters();
  for (auto _ : state) {
    for (auto& req : batch) {
      req.requester = static_cast<NodeId>(requesters.Next());
      req.resource = f->resources[targets.Next()];
    }
    auto decisions = f->router->CheckAccessBatch(batch);
    benchmark::DoNotOptimize(decisions);
  }
  ReportCounters(state, before, f->router->counters());
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_ShardCheckBatch)->Arg(1)->Arg(4)->Arg(8);

/// Churn series: a router write every k checks (a random friend edge,
/// intra-shard or cut), so reads run against shards whose overlays keep
/// growing and a topology that keeps republishing.
void BM_ShardDirtyChurn(benchmark::State& state) {
  const auto checks_per_mutation = static_cast<size_t>(state.range(0));
  auto f = MakeFixture(4);
  if (f == nullptr) {
    state.SkipWithError("fixture build failed");
    return;
  }
  ZipfSampler requesters(kNodes, kTheta, 7);
  ZipfSampler targets(kResources, kTheta, 8);
  Rng rng(21);
  const RouterCounters before = f->router->counters();
  size_t since_mutation = 0;
  for (auto _ : state) {
    if (++since_mutation >= checks_per_mutation) {
      since_mutation = 0;
      const NodeId a = static_cast<NodeId>(rng.NextBounded(kNodes));
      const NodeId b = static_cast<NodeId>(rng.NextBounded(kNodes));
      if (a != b) (void)f->router->AddEdge(a, b, "friend");
    }
    AccessRequest req;
    req.requester = static_cast<NodeId>(requesters.Next());
    req.resource = f->resources[targets.Next()];
    auto d = f->router->CheckAccess(req);
    benchmark::DoNotOptimize(d);
  }
  ReportCounters(state, before, f->router->counters());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardDirtyChurn)->Arg(16)->Arg(256);

/// Fault-free transport overhead pair. Both series drive the same
/// single-shard engine with the same Zipf request stream; the only
/// difference is whether the call goes straight into ShardEngine::Check
/// or through the InProcessTransport seam (virtual dispatch + deadline
/// bookkeeping, no framing). Acceptance bar for the seam:
/// BM_ShardTransportCall stays within ~5% of BM_ShardDirectCall.
void BM_ShardDirectCall(benchmark::State& state) {
  auto f = MakeFixture(1);
  if (f == nullptr) {
    state.SkipWithError("fixture build failed");
    return;
  }
  ZipfSampler requesters(kNodes, kTheta, 7);
  ZipfSampler targets(kResources, kTheta, 8);
  for (auto _ : state) {
    wire::CheckRequest req;
    req.requester = static_cast<NodeId>(requesters.Next());
    req.resource = f->resources[targets.Next()];
    auto reply = f->router->shard(0).Check(req);
    benchmark::DoNotOptimize(reply);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardDirectCall);

void BM_ShardTransportCall(benchmark::State& state) {
  auto f = MakeFixture(1);
  if (f == nullptr) {
    state.SkipWithError("fixture build failed");
    return;
  }
  InProcessTransport transport({&f->router->shard(0)});
  const TransportCallOptions no_deadline;
  ZipfSampler requesters(kNodes, kTheta, 7);
  ZipfSampler targets(kResources, kTheta, 8);
  for (auto _ : state) {
    wire::CheckRequest req;
    req.requester = static_cast<NodeId>(requesters.Next());
    req.resource = f->resources[targets.Next()];
    auto reply = transport.Check(0, req, no_deadline);
    benchmark::DoNotOptimize(reply);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardTransportCall);

/// The robust path under a seeded probabilistic fault storm: every
/// shard's transport randomly delays, drops, errors, or corrupts.
/// Latency here includes retries and backoff (all sleeps and delays
/// land on the decorator's virtual clock, so wall time measures real
/// work, not waiting). The robustness counters
/// from ReportCounters show what the storm cost; refused_share is the
/// fraction of checks that ended in an explicit transport error rather
/// than an exact answer.
void BM_ShardFaultInjection(benchmark::State& state) {
  FaultInjectionTransport* fault = nullptr;
  auto f = MakeFixture(4, &fault);
  if (f == nullptr || fault == nullptr) {
    state.SkipWithError("fixture build failed");
    return;
  }
  ShardFaultProfile storm;
  storm.delay_probability = 0.05;
  storm.drop_probability = 0.02;
  storm.error_probability = 0.01;
  storm.corrupt_probability = 0.01;
  storm.delay_min_ms = 1;
  storm.delay_max_ms = 10;
  for (uint32_t s = 0; s < 4; ++s) fault->SetProfile(s, storm);
  ZipfSampler requesters(kNodes, kTheta, 7);
  ZipfSampler targets(kResources, kTheta, 8);
  const RouterCounters before = f->router->counters();
  uint64_t refused = 0;
  for (auto _ : state) {
    AccessRequest req;
    req.requester = static_cast<NodeId>(requesters.Next());
    req.resource = f->resources[targets.Next()];
    auto d = f->router->CheckAccess(req);
    if (!d.ok()) ++refused;
    benchmark::DoNotOptimize(d);
  }
  ReportCounters(state, before, f->router->counters());
  state.counters["refused_share"] =
      state.iterations() > 0
          ? static_cast<double>(refused) / static_cast<double>(state.iterations())
          : 0.0;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardFaultInjection);

}  // namespace
}  // namespace bench
}  // namespace sargus

BENCHMARK_MAIN();
