#include "workloads.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "graph/csr.h"
#include "graph/line_graph.h"
#include "index/base_tables.h"
#include "index/cluster_index.h"
#include "index/line_oracle.h"
#include "shard/router.h"
#include "storage/snapshot_format.h"
#include "storage/snapshot_loader.h"
#include "storage/wal.h"
#include "synth/generators.h"
#include "trace.h"

namespace sargus::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr double kMiB = 1024.0 * 1024.0;

/// Reopens before the timed ones: in one process the first reopens run
/// slower, then settle (by about 2x for the small shard bundles), and the
/// median should not depend on where that drift ends.
constexpr int kWarmupReopens = 5;

/// An untraced run sets up at least kSetups times and for at least
/// kSetupSeconds in total; setup_s is the median. The first set-up of a
/// process faults in fresh memory and runs slower than the rest, and a
/// 0.1 s set-up needs more repeats than a 3 s one to give a steady median.
constexpr int kSetups = 5;
constexpr double kSetupSeconds = 1.0;

/// A setup or infrastructure failure: no result can be reported.
[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

template <typename T>
T Take(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what, r.status());
  return std::move(r).ValueOrDie();
}

void Must(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what, s);
}

/// " v1 v2 ..." with `digits` decimals, for progress lines.
std::string List(const std::vector<double>& values, int digits) {
  std::string out;
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof buf, " %.*f", digits, v);
    out += buf;
  }
  return out;
}

// ---- Workload definitions --------------------------------------------------

using RuleSets = std::vector<std::vector<std::string>>;

struct Spec {
  const char* name;
  size_t nodes;
  size_t resources;
  RuleSets rule_sets;
  PoolSpec pool;
  /// Pool entries checked against the audience oracle.
  size_t gate_sample;
  int read_clients;
  /// Open-loop writes run beside the readers (churn_mixed phase a)
  /// instead of after them.
  bool churn;
  /// Open-loop writes per second: a thirtieth of the lowest rate at
  /// which the backlog grew in a sweep of this workload (see LAYERS.md).
  double write_rate;
  /// Open-loop shape. churn_mixed: one continuous schedule of --seconds,
  /// percentiles over every write. Others: write_episodes episodes of
  /// write_episode_s, each undone before the next, percentiles as medians
  /// across the episodes.
  int write_episodes;
  double write_episode_s;
  size_t burst_ops;  // per pipelined burst
  int bursts;
  size_t tail_ops;  // WAL tail after SaveSnapshot
  int reopens;
  /// Seed of the graph and policies; 0 means --seed. Requests and writes
  /// always follow --seed.
  uint64_t world_seed;
};

const RuleSets kCheapRules = {
    {"friend[1]"},
    {"friend[1,2]"},
    {"colleague[1]", "family[1]"},
    {"friend[1]{age>=30}"},
    {"family[1,2]"},
};

const RuleSets kChurnRules = {
    {"friend[1,2]"},
    {"friend[1]/colleague[1]"},
    {"colleague[1,2]"},
    {"friend[1]{trust>=50}"},
};

const RuleSets kShardRules = {
    {"friend[1,2]"},
    {"friend[1,2]/colleague[1]"},
    {"colleague[1,3]"},
};

Spec ReadHot() {
  Spec s{};
  s.name = "read_hot";
  s.nodes = 65536;
  s.resources = 4096;
  s.rule_sets = kCheapRules;
  s.pool = {size_t{1} << 16, 0.99, 0.99};
  s.gate_sample = 8192;
  s.read_clients = 3;
  s.churn = false;
  s.write_rate = 4000;  // backlog grew at 120000/s
  s.write_episodes = 24;
  s.write_episode_s = 0.25;
  s.burst_ops = 10000;
  s.bursts = 9;
  s.tail_ops = 4096;
  s.reopens = 15;
  // One fixed graph: the Zipf head (the top 10 resources take a third of
  // the requests) makes check cost follow which resources are hot, and
  // with a graph per seed check_p50_us moved by about 7% between seeds.
  s.world_seed = 1;
  return s;
}

Spec ChurnMixed() {
  Spec s{};
  s.name = "churn_mixed";
  s.nodes = 16384;
  s.resources = 1024;
  s.rule_sets = kChurnRules;
  s.pool = {size_t{1} << 15, 0, 0};
  s.gate_sample = 4096;
  s.read_clients = 2;
  s.churn = true;
  s.write_rate = 2000;  // backlog grew at 60000/s
  s.burst_ops = 5000;
  s.bursts = 9;
  s.tail_ops = 4096;
  s.reopens = 15;
  return s;
}

Spec ShardedZipf() {
  Spec s{};
  s.name = "sharded_zipf";
  s.nodes = 2048;
  s.resources = 256;
  s.rule_sets = kShardRules;
  s.pool = {size_t{1} << 15, 0.99, 0.99};
  s.gate_sample = size_t{1} << 14;
  s.read_clients = 3;
  s.churn = false;
  s.write_rate = 80;  // backlog grew at 2400/s
  s.write_episodes = 7;
  s.write_episode_s = 1;
  s.burst_ops = 300;
  s.bursts = 7;
  s.tail_ops = 1024;
  s.reopens = 15;
  // One fixed graph: sharded check latency is bimodal (owner-local checks
  // take ~5 us, cross-shard ones ~200 us) and its p50 falls in the gap, so
  // with a graph per seed it swings with the cut structure.
  s.world_seed = 1;
  return s;
}

// ---- Shared steps ----------------------------------------------------------

SocialGraph GenerateGraph(size_t nodes, uint64_t seed) {
  static const uint16_t kGenerate = trace::Name("synth.generate");
  trace::Span span(kGenerate);
  BarabasiAlbertSpec spec;
  spec.base.num_nodes = nodes;
  spec.base.seed = seed;
  spec.edges_per_node = 4;
  return Take(GenerateBarabasiAlbert(spec), "GenerateBarabasiAlbert");
}

/// Registers the workload's resources (owners uniform over the nodes,
/// rules cycled from the spec). Deterministic in `seed`, so recovery and
/// the mirror engine re-register identical ids.
std::vector<ResourceId> RegisterPolicies(PolicyStore& store, size_t num_nodes,
                                         const Spec& spec, uint64_t seed) {
  static const uint16_t kAddRule = trace::Name("core.add_rule");
  Rng rng(seed ^ 0xA11CE5ULL);
  std::vector<ResourceId> ids;
  for (size_t i = 0; i < spec.resources; ++i) {
    const auto owner = static_cast<NodeId>(rng.NextBounded(num_nodes));
    const ResourceId r =
        store.RegisterResource(owner, "res" + std::to_string(i));
    trace::Span span(kAddRule, static_cast<uint32_t>(i));
    Take(store.AddRuleFromPaths(r, spec.rule_sets[i % spec.rule_sets.size()]),
         "AddRuleFromPaths");
    ids.push_back(r);
  }
  return ids;
}

/// The public index Build calls on `graph`, each under its own span.
void TraceIndexBuilds(const SocialGraph& graph, Report& report) {
  static const uint16_t kCsr = trace::Name("index.csr_build");
  static const uint16_t kLine = trace::Name("index.line_graph_build");
  static const uint16_t kOracle = trace::Name("index.oracle_build");
  static const uint16_t kCluster = trace::Name("index.cluster_build");
  static const uint16_t kTables = trace::Name("index.base_tables_build");
  CsrSnapshot csr;
  LineGraph lg;
  double t = TimeSeconds([&] {
    trace::Span s(kCsr);
    csr = CsrSnapshot::Build(graph);
  });
  report.Set("index.csr_build_s", t);
  t = TimeSeconds([&] {
    trace::Span s(kLine);
    lg = LineGraph::Build(csr);
  });
  report.Set("index.line_graph_build_s", t);
  std::unique_ptr<LineReachabilityOracle> oracle;
  t = TimeSeconds([&] {
    trace::Span s(kOracle);
    oracle = std::make_unique<LineReachabilityOracle>(
        Take(LineReachabilityOracle::Build(lg), "oracle build"));
  });
  report.Set("index.oracle_build_s", t);
  t = TimeSeconds([&] {
    trace::Span s(kCluster);
    Take(ClusterJoinIndex::Build(lg, *oracle), "cluster build");
  });
  report.Set("index.cluster_build_s", t);
  t = TimeSeconds([&] {
    trace::Span s(kTables);
    BaseTables tables = BaseTables::Build(lg);
    (void)tables;
  });
  report.Set("index.base_tables_build_s", t);
}

void SetQueryMetrics(const QueryStats& q, Report& report) {
  const double n = q.decisions ? static_cast<double>(q.decisions) : 1.0;
  report.Set("query.pairs_per_check", static_cast<double>(q.pairs) / n);
  report.Set("query.line_queries_per_check",
             static_cast<double>(q.line_queries) / n);
  report.Set("query.tuples_per_check", static_cast<double>(q.tuples) / n);
  report.Set("query.join_share", static_cast<double>(q.join) / n);
  report.Set("query.bfs_share", static_cast<double>(q.bfs) / n);
  report.Set("query.grant_rate", static_cast<double>(q.grants) / n);
}

void LogLoop(const char* what, const LoopResult& r) {
  Log("%s: medians of %zu episodes: %.0f checks/s, p50 %.2f us, p99 %.2f "
      "us; all %zu samples: p50 %.2f us, p%g %.2f us, max %.1f us; "
      "failed %llu, wrong %llu",
      what, r.episodes, r.per_s, r.p50_us, r.p99_us, r.all.count, r.all.p50,
      r.all.tail_pct, r.all.tail, r.all.max,
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.wrong));
}

void CountLoop(const char* what, const LoopResult& r, Report& report) {
  report.AddOps(r.ops, r.failed);
  if (r.wrong > 0) {
    report.Fail(std::string(what) + ": " + std::to_string(r.wrong) +
                " decisions differ from the pre-pass");
  }
}

/// The traced-run read passes shared by every workload: an untraced pass
/// and a traced pass of equal length over the same clients, whose
/// throughput ratio is the tracing overhead.
void TracedReadPasses(const std::vector<PoolEntry>& pool,
                            const CheckFn& check, int clients, double seconds,
                            const char* span_name, Report& report) {
  LoopOptions o;
  o.clients = clients;
  o.seconds = seconds;
  trace::SetEnabled(false);
  const LoopResult plain = RunClosedLoop(pool, check, o);
  LogLoop("untraced read pass", plain);
  CountLoop("untraced read pass", plain, report);
  trace::SetEnabled(true);
  o.span = trace::Name(span_name);
  o.collect_query_stats = true;
  const LoopResult traced = RunClosedLoop(pool, check, o);
  LogLoop("traced read pass", traced);
  CountLoop("traced read pass", traced, report);
  report.Set("trace.check_per_s_untraced", plain.per_s);
  report.Set("trace.check_per_s_traced", traced.per_s);
  report.Set("trace.overhead_frac",
             plain.per_s > 0 ? 1.0 - traced.per_s / plain.per_s : 0);
  Log("tracing overhead: %.0f checks/s untraced vs %.0f traced (%.1f%%)",
      plain.per_s, traced.per_s,
      100.0 * report.Get("trace.overhead_frac"));
  SetQueryMetrics(traced.query, report);
}

void LogOpenLoop(const Spec& spec, const OpenLoopResult& r) {
  constexpr double kLimitMs = 100;
  char how[64] = "of every write";
  if (!spec.churn) {
    std::snprintf(how, sizeof how, "medians of %zu undone episodes of %g s",
                  r.episode_p50_us.size(), spec.write_episode_s);
  }
  Log("open-loop writes: %llu at %.0f/s (p99 limit %.0f ms: %s); latency "
      "from due time p50 %.1f us, p99 %.1f us (%s%s%s); all %zu: p99 %.1f "
      "us, p%g %.1f us, max %.1f us",
      static_cast<unsigned long long>(r.sent), spec.write_rate, kLimitMs,
      r.p99_us <= kLimitMs * 1000 ? "met" : "MISSED", r.p50_us, r.p99_us,
      how, spec.churn ? "" : ", p50s:",
      List(r.episode_p50_us, 0).c_str(), r.all.count, r.all.p99,
      r.all.tail_pct, r.all.tail, r.all.max);
  Log("generator validity: send lateness max %.3f ms, p99 %.3f ms; queue "
      "depth at end %zu; backlog %s",
      r.lateness_us.max / 1000, r.lateness_us.p99 / 1000, r.end_depth,
      r.backlog_grew ? "GREW (saturated run: latency is not a valid figure)"
                     : "steady");
}

void SetOpenLoopMetrics(const OpenLoopResult& r, Report& report) {
  report.Set("write_p50_us", r.p50_us);
  report.Set("write_queue.ticket_p99_us", r.p99_us);
  report.Set("write_queue.submit_us", r.submit_us_mean);
  report.Set("write_queue.max_lateness_ms", r.lateness_us.max / 1000);
  report.Set("write_queue.p99_lateness_ms", r.lateness_us.p99 / 1000);
  report.Set("write_queue.end_depth", static_cast<double>(r.end_depth));
  report.Set("write_queue.backlog_grew", r.backlog_grew ? 1 : 0);
  report.Set("engine.compaction_busy_frac", r.compaction_busy_frac);
  report.AddOps(r.sent, r.failed);
}

void LogBursts(const Spec& spec, const std::vector<double>& rates,
               const char* how) {
  Log("%zu pipelined bursts of %zu writes%s:%s writes/s (median %.0f)",
      rates.size(), spec.burst_ops, how, List(rates, 0).c_str(),
      Median(rates));
}

/// Writes that each start from the same graph: every open-loop episode and
/// every burst is undone (untimed) before the next, so the medians across
/// them are steady. Used by every workload except churn_mixed, whose
/// writes accumulate.
class UndoneWrites {
 public:
  UndoneWrites(WriteSink& sink, MutationModel& model, const Spec& spec,
               OpenLoopOptions ol, uint64_t seed, Report& report)
      : sink_(sink), model_(model), start_(model), spec_(spec),
        ol_(std::move(ol)), seed_(seed), report_(report) {}

  /// One open-loop episode; a run has spec.write_episodes of them.
  void Episode() {
    const std::vector<WriteSpec> ops = Fresh(
        static_cast<size_t>(spec_.write_rate * spec_.write_episode_s));
    episodes_.push_back(RunOpenLoop(sink_, ops, ol_));
    Undo(ops);
  }

  void Bursts() {
    for (int b = 0; b < spec_.bursts; ++b) {
      const std::vector<WriteSpec> ops = Fresh(spec_.burst_ops);
      const BurstResult r = RunBurst(sink_, ops);
      rates_.push_back(r.per_s);
      report_.AddOps(ops.size(), r.failed);
      Undo(ops);
    }
  }

  OpenLoopResult OpenLoop() const { return MergeEpisodes(episodes_); }

  double BurstRate() const {
    LogBursts(spec_, rates_, ", each undone");
    return Median(rates_);
  }

 private:
  /// Writes drawn from the starting edge set with a fresh random stream.
  std::vector<WriteSpec> Fresh(size_t n) {
    model_ = start_;
    model_.Reseed(seed_ + draws_++);
    return model_.Take(n);
  }

  void Undo(const std::vector<WriteSpec>& ops) {
    const BurstResult undo = RunBurst(sink_, Inverse(ops));
    report_.AddOps(ops.size(), undo.failed);
    model_ = start_;
  }

  WriteSink& sink_;
  MutationModel& model_;
  const MutationModel start_;
  const Spec& spec_;
  OpenLoopOptions ol_;
  uint64_t seed_;
  Report& report_;
  uint64_t draws_ = 0;
  std::vector<OpenLoopResult> episodes_;
  std::vector<double> rates_;
};

void SetReadMetrics(const LoopResult& r, Report& report) {
  report.Set("check_per_s", r.per_s);
  report.Set("check_p50_us", r.p50_us);
  report.Set("check_p99_us", r.p99_us);
}

void SetQueueMetrics(const WriteQueueStats& s, Report& report) {
  report.Set("write_queue.batches", static_cast<double>(s.batches));
  report.Set("write_queue.batch_ops",
             s.batches ? static_cast<double>(s.applied) / s.batches : 0);
  report.Set("write_queue.max_batch", static_cast<double>(s.max_batch_seen));
}

void SetCompactionMetrics(uint64_t incremental, uint64_t full,
                          Report& report) {
  const uint64_t total = incremental + full;
  report.Set("engine.compactions", static_cast<double>(total));
  report.Set("engine.incremental_share",
             total ? static_cast<double>(incremental) / total : 0);
}

/// Decisions of `view` on the first `n` pool entries (pre-close record).
std::vector<int8_t> SampleDecisions(const AccessReadView& view,
                                    const std::vector<PoolEntry>& pool,
                                    size_t n, uint64_t* failed) {
  std::vector<int8_t> out;
  for (size_t i = 0; i < std::min(n, pool.size()); ++i) {
    Result<AccessDecision> d = view.CheckAccess(pool[i].request);
    if (!d.ok()) ++*failed;
    out.push_back(d.ok() ? (d->granted ? 1 : 0) : -1);
  }
  return out;
}

size_t CountMismatches(const std::vector<int8_t>& a,
                       const std::vector<int8_t>& b) {
  size_t n = a.size() == b.size() ? 0 : std::max(a.size(), b.size());
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    n += a[i] != b[i] ? 1 : 0;
  }
  return n;
}

/// storage::LoadBundle and storage::ReadWal on one durability directory,
/// timed on their own (traced run).
void TraceStorageReads(const std::vector<std::string>& dirs, Report& report) {
  static const uint16_t kLoad = trace::Name("storage.load_bundle");
  static const uint16_t kRead = trace::Name("storage.read_wal");
  double load = 0;
  double read = 0;
  for (const std::string& dir : dirs) {
    load += TimeSeconds([&] {
      trace::Span s(kLoad);
      Take(storage::LoadBundle(dir + "/" + storage::kSnapshotFileName),
           "LoadBundle");
    });
    read += TimeSeconds([&] {
      trace::Span s(kRead);
      Take(storage::ReadWal(dir + "/" + storage::kWalFileName), "ReadWal");
    });
  }
  report.Set("storage.load_bundle_s", load);
  report.Set("storage.read_wal_s", read);
}

/// One reopened engine with the graph and store it borrows.
struct Reopened {
  std::unique_ptr<SocialGraph> graph;
  std::unique_ptr<PolicyStore> store;
  std::unique_ptr<AccessControlEngine> engine;  // destroyed first
};

/// OpenFromDir + policy re-registration + RefreshPolicies + the first
/// decision: what a restart costs before it serves again.
Reopened Reopen(const std::string& dir, const Spec& spec, size_t num_nodes,
                uint64_t seed, const AccessRequest& first, Report& report) {
  static const uint16_t kOpen = trace::Name("engine.open_from_dir");
  static const uint16_t kRefresh = trace::Name("engine.refresh_policies");
  static const uint16_t kFirst = trace::Name("engine.first_check");
  Reopened r;
  r.graph = std::make_unique<SocialGraph>();
  r.store = std::make_unique<PolicyStore>();
  {
    trace::Span s(kOpen);
    r.engine = Take(
        AccessControlEngine::OpenFromDir(dir, r.graph.get(), *r.store),
        "OpenFromDir " + dir);
  }
  RegisterPolicies(*r.store, num_nodes, spec, seed);
  {
    trace::Span s(kRefresh);
    Must(r.engine->RefreshPolicies(), "RefreshPolicies");
  }
  trace::Span s(kFirst);
  Result<AccessDecision> d = r.engine->CheckAccess(first);
  report.AddOps(1, d.ok() ? 0 : 1);
  return r;
}

// ---- Engine workloads (read_hot, churn_mixed) ------------------------------

struct EngineWorld {
  std::unique_ptr<SocialGraph> graph;
  std::unique_ptr<PolicyStore> store;
  std::vector<ResourceId> resources;
  std::unique_ptr<AccessControlEngine> engine;  // destroyed first
};

std::unique_ptr<EngineWorld> SetupEngine(const Spec& spec, uint64_t seed) {
  static const uint16_t kRebuild = trace::Name("engine.rebuild");
  auto w = std::make_unique<EngineWorld>();
  w->graph = std::make_unique<SocialGraph>(GenerateGraph(spec.nodes, seed));
  w->store = std::make_unique<PolicyStore>();
  w->resources = RegisterPolicies(*w->store, spec.nodes, spec, seed);
  w->engine = std::make_unique<AccessControlEngine>(*w->graph, *w->store);
  trace::Span s(kRebuild);
  Must(w->engine->RebuildIndexes(), "RebuildIndexes");
  return w;
}

/// Graph generation + policy registration + RebuildIndexes, once when
/// traced and otherwise as kSetups and kSetupSeconds ask; returns the
/// last world and reports the median as setup_s.
template <typename World, typename SetupFn>
std::unique_ptr<World> TimedSetups(bool traced, SetupFn setup,
                                   Report& report) {
  std::unique_ptr<World> world;
  std::vector<double> secs;
  double total = 0;
  do {
    world.reset();  // free the previous world before building the next
    secs.push_back(TimeSeconds([&] { world = setup(); }));
    total += secs.back();
  } while (!traced && (secs.size() < static_cast<size_t>(kSetups) ||
                       total < kSetupSeconds));
  report.Set("setup_s", Median(secs));
  Log("setup x%zu:%s s (median %.4f s)", secs.size(), List(secs, 4).c_str(),
      Median(secs));
  return world;
}

/// Rebuilds the graph from the seed, applies every acknowledged mutation
/// in order, and compares the decisions on the first pool entries with
/// `live`, those of the engine before it closed.
void MirrorGate(const Spec& spec, uint64_t seed,
                const std::vector<WriteSpec>& applied, LabelId label,
                const std::vector<int8_t>& live,
                const std::vector<PoolEntry>& pool, Report& report) {
  SocialGraph graph = GenerateGraph(spec.nodes, seed);
  for (const WriteSpec& op : applied) {
    if (op.add) {
      Take(graph.AddEdge(op.src, op.dst, label), "mirror AddEdge");
    } else {
      const std::optional<EdgeId> e = graph.FindEdge(op.src, op.dst, label);
      if (!e.has_value()) {
        report.Fail("mirror: acknowledged removal of a missing edge");
        return;
      }
      Must(graph.RemoveEdge(*e), "mirror RemoveEdge");
    }
  }
  PolicyStore store;
  RegisterPolicies(store, spec.nodes, spec, seed);
  AccessControlEngine mirror(graph, store);
  Must(mirror.RebuildIndexes(), "mirror RebuildIndexes");
  const auto view = mirror.AcquireReadView();
  uint64_t failed = 0;
  const size_t n = live.size();
  const size_t bad =
      CountMismatches(live, SampleDecisions(*view, pool, n, &failed));
  report.AddOps(n, failed);
  Log("mirror gate: %zu acknowledged mutations replayed; %zu of %zu "
      "decisions differ",
      applied.size(), bad, n);
  if (bad > 0) {
    report.Fail("final decisions differ from the mirror engine in " +
                std::to_string(bad) + " of " + std::to_string(n));
  }
}

void RunEngineWorkload(const Spec& spec, const Args& args, Report& report) {
  static const uint16_t kSave = trace::Name("storage.save_snapshot");
  static const uint16_t kEnable = trace::Name("storage.enable_durability");
  static const uint16_t kAcquire = trace::Name("engine.acquire_view");
  const uint64_t seed = args.seed;
  const uint64_t world_seed = spec.world_seed != 0 ? spec.world_seed : seed;
  std::unique_ptr<EngineWorld> w = TimedSetups<EngineWorld>(
      args.trace, [&] { return SetupEngine(spec, world_seed); }, report);
  AccessControlEngine& engine = *w->engine;
  Log("graph: %zu nodes, %zu edges; %zu resources, %zu rules",
      w->graph->NumNodes(), w->graph->NumEdges(), w->store->NumResources(),
      w->store->NumRules());

  // Inputs and the read-side correctness gate (untimed).
  std::shared_ptr<const AccessReadView> view0 = engine.AcquireReadView();
  std::vector<PoolEntry> pool;
  {
    AudienceOracle oracle(view0);
    pool = BuildPool(spec.pool, spec.nodes, w->resources, oracle, world_seed,
                     seed);
    PrepassAndGate(
        pool, [&](const AccessRequest& r) { return view0->CheckAccess(r); },
        oracle, spec.gate_sample, report);
  }
  LogPoolSkew(pool, spec.nodes, spec.resources);

  const CheckFn facade = [&](const AccessRequest& r) {
    return engine.CheckAccess(r);
  };
  if (args.trace) {
    trace::Span s(trace::Name("index.builds"));
    TraceIndexBuilds(*w->graph, report);
  }

  // Reads.
  if (args.trace) {
    const double half = args.seconds / 2;
    TracedReadPasses(pool, facade, spec.read_clients, half, "engine.check",
                     report);
    LoopOptions o;
    o.clients = spec.read_clients;
    o.seconds = half / 2;
    o.span = trace::Name("engine.view_check");
    const LoopResult pinned = RunClosedLoop(
        pool, [&](const AccessRequest& r) { return view0->CheckAccess(r); }, o);
    LogLoop("pinned-view read pass", pinned);
    CountLoop("pinned-view read pass", pinned, report);
    // The same sample forced through each evaluator, single-threaded.
    for (const auto& [choice, name] :
         {std::pair{EvaluatorChoice::kOnlineBfs, "query.bfs_check"},
          std::pair{EvaluatorChoice::kJoinIndex, "query.join_check"}}) {
      const uint16_t id = trace::Name(name);
      uint64_t failed = 0;
      const size_t n = std::min<size_t>(4096, pool.size());
      for (size_t i = 0; i < n; ++i) {
        AccessRequest r = pool[i].request;
        r.evaluator_override = choice;
        trace::Span s(id, static_cast<uint32_t>(i));
        Result<AccessDecision> d = view0->CheckAccess(r);
        if (!d.ok()) {
          ++failed;
        } else if (d->granted != pool[i].expect) {
          report.Fail(std::string(name) + " disagrees with the pre-pass");
          break;
        }
      }
      report.AddOps(n, failed);
    }
  }
  view0.reset();  // a pinned view would keep replaced index bundles alive

  // Writes, in memory: the durability directory is attached afterwards,
  // for the snapshot, WAL tail and recovery steps. (With the WAL attached,
  // churn_mixed's write latency followed the fsync stalls of the machine's
  // shared disk: its p50 spread by 1.5 times its median over ten seeds.)
  // churn_mixed's writes accumulate while its readers run; the other
  // workloads undo each episode.
  const fs::path dir = fs::path(args.work_dir) / spec.name / "durable";
  const auto enable_durability = [&] {
    fs::remove_all(dir);
    fs::create_directories(dir);
    trace::Span s(kEnable);
    Must(engine.EnableDurability(dir.string()), "EnableDurability");
  };
  const LabelId label = w->graph->labels().Lookup("friend");
  MutationModel model(*w->graph, label, seed ^ 0xBEEF);
  EngineSink sink(engine, label);
  OpenLoopOptions ol;
  ol.rate = spec.write_rate;
  double overlay_sum = 0;
  uint64_t overlay_n = 0;
  if (args.trace) {
    ol.compaction_probe = [&] { return engine.compaction_in_flight(); };
    ol.on_send = [&] {
      std::shared_ptr<const AccessReadView> v;
      {
        trace::Span s(kAcquire);
        v = engine.AcquireReadView();
      }
      overlay_sum += static_cast<double>(v->overlay().size());
      ++overlay_n;
    };
  }
  Log("writes: in memory; auto-compaction threshold %zu; the WAL tail uses "
      "the default flush policy (WalSyncPolicy::kEveryRecord: one "
      "fdatasync per queued batch)",
      engine.effective_compact_threshold());
  std::vector<WriteSpec> applied;  // churn_mixed: every acknowledged write
  OpenLoopResult open;
  double write_per_s = 0;
  if (spec.churn) {
    LoopOptions o;
    o.clients = spec.read_clients;
    o.seconds = args.seconds;
    o.verify = false;  // the truth moves with the writes
    if (args.trace) o.span = trace::Name("engine.check_under_writes");
    ClosedLoop readers(
        pool,
        [&](const AccessRequest& r, bool* tag) {
          if (args.trace) *tag = engine.compaction_in_flight();
          return engine.CheckAccess(r);
        },
        o);
    readers.Start();
    const std::vector<WriteSpec> ops = model.Take(
        static_cast<size_t>(spec.write_rate * args.seconds));
    open = RunOpenLoop(sink, ops, ol);
    for (const size_t i : open.acked) applied.push_back(ops[i]);
    const LoopResult r = readers.Finish();
    LogLoop("facade reads beside the writes", r);
    CountLoop("facade reads beside the writes", r, report);
    if (!args.trace) SetReadMetrics(r, report);
    report.Set("engine.check_p99_in_compaction_us", r.tagged.p99);
    Log("reads during compaction: %zu samples, p99 %.1f us",
        r.tagged.count, r.tagged.p99);
    // Bursts, each from a freshly compacted engine.
    std::vector<double> rates;
    for (int b = 0; b < spec.bursts; ++b) {
      engine.FlushWrites();
      Must(engine.Compact(), "Compact");
      engine.WaitForCompaction();
      const std::vector<WriteSpec> burst = model.Take(spec.burst_ops);
      const BurstResult br = RunBurst(sink, burst);
      rates.push_back(br.per_s);
      report.AddOps(burst.size(), br.failed);
      for (const size_t i : br.acked) applied.push_back(burst[i]);
    }
    LogBursts(spec, rates, ", each after a compaction");
    write_per_s = Median(rates);
  } else {
    UndoneWrites writes(sink, model, spec, ol, seed, report);
    if (args.trace) {
      for (int e = 0; e < spec.write_episodes; ++e) writes.Episode();
    } else {
      // Reads and write episodes alternate in kRounds rounds: a slow spell
      // of the machine, which can last seconds, then lands on a share of
      // each rather than on all of one (run one after the other, a few of
      // ten seeds read write_p50_us up to twice the median). An undone
      // episode leaves the overlay empty, so the reads see the graph they
      // were checked against.
      LoopOptions o;
      o.clients = spec.read_clients;
      o.seconds = args.seconds;
      ClosedLoop reads(
          pool,
          [&](const AccessRequest& r, bool*) { return engine.CheckAccess(r); },
          o);
      constexpr int kRounds = 4;
      const int n = reads.Episodes();
      const int m = spec.write_episodes;
      for (int round = 0; round < kRounds; ++round) {
        for (int k = n * round / kRounds; k < n * (round + 1) / kRounds; ++k) {
          reads.RunEpisode();
        }
        for (int e = m * round / kRounds; e < m * (round + 1) / kRounds; ++e) {
          writes.Episode();
        }
      }
      const LoopResult r = reads.Finish();
      LogLoop("closed-loop facade reads", r);
      CountLoop("closed-loop facade reads", r, report);
      SetReadMetrics(r, report);
    }
    writes.Bursts();
    open = writes.OpenLoop();
    write_per_s = writes.BurstRate();
    engine.FlushWrites();
    Log("overlay after the undone writes: %zu entries",
        engine.overlay().size());
  }
  LogOpenLoop(spec, open);
  SetOpenLoopMetrics(open, report);
  report.Set("write_queue.burst_per_s", write_per_s);
  report.Set("graph.overlay_entries",
             overlay_n ? overlay_sum / static_cast<double>(overlay_n) : 0);

  // Snapshot, WAL tail, close, reopen.
  engine.FlushWrites();
  if (spec.churn) {
    Must(engine.Compact(), "Compact");  // the tail must not trip a compaction
  }
  engine.WaitForCompaction();
  enable_durability();
  Must(engine.last_compaction_status(), "compaction");
  const double save_s = TimeSeconds([&] {
    trace::Span s(kSave);
    Must(engine.SaveSnapshot(), "SaveSnapshot");
  });
  report.Set("storage.save_snapshot_s", save_s);
  const std::vector<WriteSpec> tail = model.Take(spec.tail_ops);
  const BurstResult tail_r = RunBurst(sink, tail);
  report.AddOps(tail.size(), tail_r.failed);
  for (const size_t i : tail_r.acked) applied.push_back(tail[i]);
  engine.FlushWrites();
  engine.WaitForCompaction();
  SetCompactionMetrics(engine.incremental_compactions(),
                       engine.full_compactions(), report);
  SetQueueMetrics(engine.write_queue().stats(), report);

  const uint64_t appends = engine.wal_append_count();
  const uint64_t syncs = engine.wal_sync_count();
  const uint64_t wal_bytes = engine.wal_size_bytes();
  const uint64_t bundle_bytes =
      FileBytes((dir / storage::kSnapshotFileName).string());
  report.Set("storage.wal_appends", static_cast<double>(appends));
  report.Set("storage.wal_syncs", static_cast<double>(syncs));
  report.Set("storage.syncs_per_write",
             appends ? static_cast<double>(syncs) / appends : 0);
  report.Set("storage.wal_bytes_per_write",
             static_cast<double>(wal_bytes) / static_cast<double>(tail.size()));
  report.Set("storage.bundle_mb", static_cast<double>(bundle_bytes) / kMiB);
  report.Set("disk_mb", static_cast<double>(bundle_bytes + wal_bytes) / kMiB);
  uint64_t failed = 0;
  const std::vector<int8_t> before =
      SampleDecisions(*engine.AcquireReadView(), pool, 4096, &failed);
  report.AddOps(before.size(), failed);

  // Close. Peak memory is read first: the mirror and the reopened engines
  // are not part of the serving run.
  report.Set("rss_mb", PeakRssMb());
  const size_t num_nodes = w->graph->NumNodes();
  w.reset();
  if (spec.churn) {
    MirrorGate(spec, world_seed, applied, label, before, pool, report);
  }
  if (args.trace) TraceStorageReads({dir.string()}, report);

  std::vector<double> recover;
  for (int k = 0; k < kWarmupReopens + spec.reopens; ++k) {
    Reopened r;
    const int64_t t0 = trace::NowNs();
    r = Reopen(dir.string(), spec, num_nodes, world_seed, pool[0].request,
               report);
    if (k >= kWarmupReopens) {
      recover.push_back(static_cast<double>(trace::NowNs() - t0) * 1e-9);
    }
    uint64_t f = 0;
    const size_t bad = CountMismatches(
        before, SampleDecisions(*r.engine->AcquireReadView(), pool,
                                before.size(), &f));
    report.AddOps(before.size(), f);
    if (bad > 0) {
      report.Fail("reopen " + std::to_string(k) + " differs from the "
                  "pre-close engine in " + std::to_string(bad) +
                  " decisions");
    }
  }
  report.Set("storage.recover_s", Median(recover));
  Log("recovery x%d:%s s (median %.4f s); bundle %.2f MiB, WAL %llu bytes "
      "after a %zu-write tail",
      spec.reopens, List(recover, 4).c_str(), Median(recover),
      bundle_bytes / kMiB, static_cast<unsigned long long>(wal_bytes),
      tail.size());
  fs::remove_all(dir);
}

// ---- sharded_zipf ----------------------------------------------------------

struct ShardWorld {
  std::unique_ptr<SocialGraph> graph;
  std::unique_ptr<PolicyStore> store;
  std::vector<ResourceId> resources;
  std::unique_ptr<ShardRouter> router;  // destroyed first
};

std::unique_ptr<ShardWorld> SetupShards(const Spec& spec, uint64_t seed) {
  static const uint16_t kBuild = trace::Name("shard.build");
  auto w = std::make_unique<ShardWorld>();
  w->graph = std::make_unique<SocialGraph>(GenerateGraph(spec.nodes, seed));
  w->store = std::make_unique<PolicyStore>();
  w->resources = RegisterPolicies(*w->store, spec.nodes, spec, seed);
  RouterOptions options;
  options.partition.num_shards = 4;
  options.partition.strategy = PartitionStrategy::kContiguous;
  w->router = std::make_unique<ShardRouter>(*w->graph, *w->store, options);
  trace::Span s(kBuild);
  Must(w->router->Build(), "ShardRouter::Build");
  return w;
}

/// Router writes are synchronous: each Submit completes before it returns.
class RouterSink : public WriteSink {
 public:
  RouterSink(ShardRouter& router, LabelId label)
      : router_(router), label_(label) {}
  void Submit(size_t index, const WriteSpec& op) override {
    Status status = op.add ? router_.AddEdge(op.src, op.dst, label_)
                           : router_.RemoveEdge(op.src, op.dst, label_);
    done_.push_back({index, std::move(status), trace::NowNs()});
  }
  bool PopDone(bool, DoneWrite* done) override {
    if (done_.empty()) return false;
    *done = std::move(done_.front());
    done_.pop_front();
    return true;
  }
  size_t Outstanding() const override { return 0; }

 private:
  ShardRouter& router_;
  LabelId label_;
  std::deque<DoneWrite> done_;
};

void SetShardCounterMetrics(const RouterCounters& a, const RouterCounters& b,
                            Report& report) {
  const double checks = static_cast<double>(b.checks - a.checks);
  const double cross =
      static_cast<double>(b.cross_shard_checks - a.cross_shard_checks);
  const double fallback =
      static_cast<double>(b.cross_fallback_walks - a.cross_fallback_walks);
  report.Set("shard.cross_share", checks > 0 ? cross / checks : 0);
  report.Set("shard.summary_hit_rate", cross > 0 ? 1 - fallback / cross : 0);
  report.Set("shard.fallback_rounds_per_check",
             checks > 0
                 ? static_cast<double>(b.fallback_rounds - a.fallback_rounds) /
                       checks
                 : 0);
  report.Set("shard.retries", static_cast<double>(b.retries - a.retries));
  report.Set("shard.timeouts", static_cast<double>(b.timeouts - a.timeouts));
  report.Set("shard.unavailable",
             static_cast<double>(b.unavailable_errors - a.unavailable_errors));
}

void RunSharded(const Spec& spec, const Args& args, Report& report) {
  static const uint16_t kSave = trace::Name("storage.save_snapshot");
  static const uint16_t kRefreshSummaries =
      trace::Name("shard.refresh_summaries");
  static const uint16_t kLocal = trace::Name("shard.local_check");
  static const uint16_t kCross = trace::Name("shard.cross_check");
  const uint64_t seed = args.seed;
  const uint64_t world_seed = spec.world_seed != 0 ? spec.world_seed : seed;
  // Inputs and gates, first against one engine over the same graph, which
  // is freed before the router is built so that it does not count in
  // rss_mb: that engine is gated against the audience oracle, and every
  // router decision must equal its decision.
  std::vector<PoolEntry> pool;
  {
    SocialGraph graph = GenerateGraph(spec.nodes, world_seed);
    PolicyStore store;
    const std::vector<ResourceId> resources =
        RegisterPolicies(store, spec.nodes, spec, world_seed);
    AccessControlEngine single(graph, store);
    Must(single.RebuildIndexes(), "single-engine RebuildIndexes");
    const auto view = single.AcquireReadView();
    AudienceOracle oracle(view);
    pool = BuildPool(spec.pool, spec.nodes, resources, oracle, world_seed,
                     seed);
    PrepassAndGate(
        pool, [&](const AccessRequest& r) { return view->CheckAccess(r); },
        oracle, spec.gate_sample, report);
  }
  LogPoolSkew(pool, spec.nodes, spec.resources);
  ResetPeakRss();

  std::unique_ptr<ShardWorld> w = TimedSetups<ShardWorld>(
      args.trace, [&] { return SetupShards(spec, world_seed); }, report);
  ShardRouter& router = *w->router;
  Log("graph: %zu nodes, %zu edges; %zu resources over %u contiguous shards",
      w->graph->NumNodes(), w->graph->NumEdges(), w->store->NumResources(),
      router.num_shards());
  {
    size_t bad = 0;
    uint64_t failed = 0;
    for (const PoolEntry& e : pool) {
      Result<AccessDecision> d = router.CheckAccess(e.request);
      if (!d.ok()) ++failed;
      bad += d.ok() && d->granted != e.expect ? 1 : 0;
    }
    report.AddOps(pool.size(), failed);
    Log("single-engine gate: %zu of %zu router decisions differ", bad,
        pool.size());
    if (bad > 0) {
      report.Fail(std::to_string(bad) +
                  " router decisions differ from a single engine");
    }
  }

  const CheckFn via_router = [&](const AccessRequest& r) {
    return router.CheckAccess(r);
  };
  if (args.trace) {
    TraceIndexBuilds(*w->graph, report);
    const RouterCounters before = router.counters();
    TracedReadPasses(pool, via_router, spec.read_clients, args.seconds / 2,
                     "shard.check", report);
    SetShardCounterMetrics(before, router.counters(), report);
    report.Set("shard.build_s", trace::Find(trace::Summarize(), "shard.build")
                                    .total_s);
    report.Set("shard.refresh_summaries_s", TimeSeconds([&] {
                 trace::Span s(kRefreshSummaries);
                 Must(router.RefreshSummaries(), "RefreshSummaries");
               }));
    // Single client: split latency by whether the check crossed shards.
    std::vector<double> local, cross;
    uint64_t failed = 0;
    const int64_t stop = trace::NowNs() +
                         static_cast<int64_t>(args.seconds / 4 * 1e9);
    for (size_t i = 0; trace::NowNs() < stop; i = (i + 1) % pool.size()) {
      const uint64_t c0 = router.counters().cross_shard_checks;
      const int64_t t0 = trace::NowNs();
      Result<AccessDecision> d = router.CheckAccess(pool[i].request);
      const int64_t t1 = trace::NowNs();
      const bool crossed = router.counters().cross_shard_checks != c0;
      trace::Record(crossed ? kCross : kLocal, t0, t1,
                    static_cast<uint32_t>(i));
      (crossed ? cross : local).push_back(static_cast<double>(t1 - t0) * 1e-3);
      if (!d.ok()) ++failed;
      report.AddOps(1, 0);
    }
    report.AddOps(0, failed);
    report.Set("shard.local_check_us", Mean(local));
    report.Set("shard.cross_check_us", Mean(cross));
    Log("single-client pass: %zu local checks, mean %.1f us; %zu cross-shard, "
        "mean %.1f us",
        local.size(), Mean(local), cross.size(), Mean(cross));
  }

  // Reads, then undone in-memory router writes (after which the boundary
  // summaries are stale, so cross-shard checks would take the fallback).
  if (!args.trace) {
    LoopOptions o;
    o.clients = spec.read_clients;
    o.seconds = args.seconds;
    const LoopResult r = RunClosedLoop(pool, via_router, o);
    LogLoop("closed-loop router reads", r);
    CountLoop("closed-loop router reads", r, report);
    SetReadMetrics(r, report);
  }
  // Writes stay inside one shard: a cut edge's write also copies the
  // router's whole topology, which made its latency swing by 2x between
  // runs, too far for a regression bound.
  const LabelId label = w->graph->labels().Lookup("friend");
  MutationModel model(*w->graph, label, seed ^ 0xBEEF,
                      [owner = router.partition().shard_of](NodeId a,
                                                            NodeId b) {
                        return owner[a] == owner[b];
                      });
  RouterSink sink(router, label);
  OpenLoopOptions ol;
  ol.rate = spec.write_rate;
  if (args.trace) {
    ol.compaction_probe = [&] {
      for (uint32_t s = 0; s < router.num_shards(); ++s) {
        if (router.shard(s).engine().compaction_in_flight()) return true;
      }
      return false;
    };
  }
  UndoneWrites writes(sink, model, spec, ol, seed, report);
  for (int e = 0; e < spec.write_episodes; ++e) writes.Episode();
  writes.Bursts();
  const OpenLoopResult open = writes.OpenLoop();
  LogOpenLoop(spec, open);
  SetOpenLoopMetrics(open, report);
  report.Set("write_queue.burst_per_s", writes.BurstRate());

  // Durability for the snapshot, WAL tail and recovery steps. The undone
  // writes left the shard overlays empty, so no compaction is due.
  std::vector<std::string> dirs;
  for (uint32_t s = 0; s < router.num_shards(); ++s) {
    router.shard(s).engine().WaitForCompaction();
    const fs::path dir = fs::path(args.work_dir) / spec.name /
                         ("shard" + std::to_string(s));
    fs::remove_all(dir);
    fs::create_directories(dir);
    Must(router.shard(s).engine().EnableDurability(dir.string()),
         "EnableDurability");
    dirs.push_back(dir.string());
  }
  const double save_s = TimeSeconds([&] {
    trace::Span s(kSave);
    for (uint32_t i = 0; i < router.num_shards(); ++i) {
      Must(router.shard(i).engine().SaveSnapshot(), "SaveSnapshot");
    }
  });
  report.Set("storage.save_snapshot_s", save_s);
  const std::vector<WriteSpec> tail = model.Take(spec.tail_ops);
  const BurstResult tail_r = RunBurst(sink, tail);
  report.AddOps(tail.size(), tail_r.failed);

  WriteQueueStats qs;
  uint64_t incremental = 0, full = 0, appends = 0, syncs = 0, wal_bytes = 0,
           bundle_bytes = 0, failed = 0;
  std::vector<std::vector<int8_t>> before;
  for (uint32_t s = 0; s < router.num_shards(); ++s) {
    AccessControlEngine& e = router.shard(s).engine();
    e.FlushWrites();
    e.WaitForCompaction();
    const WriteQueueStats q = e.write_queue().stats();
    qs.applied += q.applied;
    qs.batches += q.batches;
    qs.max_batch_seen = std::max(qs.max_batch_seen, q.max_batch_seen);
    incremental += e.incremental_compactions();
    full += e.full_compactions();
    appends += e.wal_append_count();
    syncs += e.wal_sync_count();
    wal_bytes += e.wal_size_bytes();
    bundle_bytes += FileBytes(dirs[s] + "/" + storage::kSnapshotFileName);
    before.push_back(SampleDecisions(*e.AcquireReadView(), pool, 512, &failed));
    report.AddOps(before.back().size(), 0);
  }
  report.AddOps(0, failed);
  SetQueueMetrics(qs, report);
  SetCompactionMetrics(incremental, full, report);
  report.Set("storage.wal_appends", static_cast<double>(appends));
  report.Set("storage.wal_syncs", static_cast<double>(syncs));
  report.Set("storage.syncs_per_write",
             appends ? static_cast<double>(syncs) / appends : 0);
  report.Set("storage.wal_bytes_per_write",
             static_cast<double>(wal_bytes) / static_cast<double>(tail.size()));
  report.Set("storage.bundle_mb", static_cast<double>(bundle_bytes) / kMiB);
  report.Set("disk_mb", static_cast<double>(bundle_bytes + wal_bytes) / kMiB);

  report.Set("rss_mb", PeakRssMb());  // before the reopened engines
  const size_t num_nodes = w->graph->NumNodes();
  w.reset();
  if (args.trace) TraceStorageReads(dirs, report);

  // A restart of the tier: every shard engine reopened in turn.
  std::vector<double> recover;
  for (int k = 0; k < kWarmupReopens + spec.reopens; ++k) {
    std::vector<Reopened> shards(dirs.size());
    const int64_t t0 = trace::NowNs();
    for (size_t s = 0; s < dirs.size(); ++s) {
      shards[s] = Reopen(dirs[s], spec, num_nodes, world_seed,
                         pool[0].request, report);
    }
    if (k >= kWarmupReopens) {
      recover.push_back(static_cast<double>(trace::NowNs() - t0) * 1e-9);
    }
    for (size_t s = 0; s < dirs.size(); ++s) {
      uint64_t f = 0;
      const size_t bad = CountMismatches(
          before[s], SampleDecisions(*shards[s].engine->AcquireReadView(),
                                     pool, before[s].size(), &f));
      report.AddOps(before[s].size(), f);
      if (bad > 0) {
        report.Fail("reopened shard " + std::to_string(s) +
                    " differs from its pre-close engine in " +
                    std::to_string(bad) + " decisions");
      }
    }
  }
  report.Set("storage.recover_s", Median(recover));
  Log("recovery of %zu shards x%d:%s s (median %.4f s); bundles %.2f MiB, "
      "WAL %llu bytes",
      dirs.size(), spec.reopens, List(recover, 4).c_str(), Median(recover),
      bundle_bytes / kMiB, static_cast<unsigned long long>(wal_bytes));
  for (const std::string& d : dirs) fs::remove_all(d);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"read_hot", "churn_mixed",
                                                 "sharded_zipf"};
  return names;
}

bool RunWorkload(const Args& args, Report& report) {
  if (args.workload == "read_hot") {
    RunEngineWorkload(ReadHot(), args, report);
  } else if (args.workload == "churn_mixed") {
    RunEngineWorkload(ChurnMixed(), args, report);
  } else if (args.workload == "sharded_zipf") {
    RunSharded(ShardedZipf(), args, report);
  } else {
    return false;
  }
  report.Set("error_frac",
             report.attempted() ? static_cast<double>(report.failed()) /
                                      static_cast<double>(report.attempted())
                                : 0);
  if (args.trace) {
    const std::vector<trace::NameStats> stats = trace::Summarize();
    const auto mean_us = [&](const char* n) {
      return trace::Find(stats, n).mean_us();
    };
    report.Set("engine.check_us", mean_us("engine.check"));
    report.Set("engine.view_check_us", mean_us("engine.view_check"));
    report.Set("engine.acquire_view_us", mean_us("engine.acquire_view"));
    report.Set("engine.rebuild_s",
               trace::Find(stats, "engine.rebuild").total_s);
    report.Set("engine.refresh_policies_ms",
               mean_us("engine.refresh_policies") / 1000);
    report.Set("query.bfs_check_us", mean_us("query.bfs_check"));
    report.Set("query.join_check_us", mean_us("query.join_check"));
    report.Set("core.add_rule_us", mean_us("core.add_rule"));
    Log("spans: %llu recorded, %llu dropped",
        static_cast<unsigned long long>(trace::SpanCount()),
        static_cast<unsigned long long>(trace::DroppedCount()));
    Log("%-32s %10s %12s %12s %12s", "span", "count", "total_s", "self_s",
        "mean_us");
    for (const trace::NameStats& s : stats) {
      if (s.count == 0) continue;
      Log("%-32s %10llu %12.6f %12.6f %12.3f", s.name.c_str(),
          static_cast<unsigned long long>(s.count), s.total_s, s.self_s,
          s.mean_us());
    }
  }
  return true;
}

}  // namespace sargus::perfbench
