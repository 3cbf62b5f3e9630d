#include "harness.h"

#include <malloc.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <numeric>
#include <thread>

#include "synth/generators.h"
#include "synth/workload.h"
#include "trace.h"

namespace sargus::perfbench {

// ---- Metrics ---------------------------------------------------------------

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},           {"check_per_s", "1/s"},
    {"check_p50_us", "us"},     {"check_p99_us", "us"},
    {"write_p50_us", "us"},     {"rss_mb", "MB"},
    {"disk_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"engine.check_us", "us"},
    {"engine.view_check_us", "us"},
    {"engine.acquire_view_us", "us"},
    {"engine.rebuild_s", "s"},
    {"engine.refresh_policies_ms", "ms"},
    {"engine.compactions", "count"},
    {"engine.incremental_share", "ratio"},
    {"engine.compaction_busy_frac", "ratio"},
    {"engine.check_p99_in_compaction_us", "us"},
    {"write_queue.submit_us", "us"},
    {"write_queue.ticket_p99_us", "us"},
    {"write_queue.burst_per_s", "1/s"},
    {"write_queue.batch_ops", "count"},
    {"write_queue.batches", "count"},
    {"write_queue.max_batch", "count"},
    {"write_queue.max_lateness_ms", "ms"},
    {"write_queue.p99_lateness_ms", "ms"},
    {"write_queue.end_depth", "count"},
    {"write_queue.backlog_grew", "count"},
    {"graph.overlay_entries", "count"},
    {"query.pairs_per_check", "count"},
    {"query.line_queries_per_check", "count"},
    {"query.tuples_per_check", "count"},
    {"query.join_share", "ratio"},
    {"query.bfs_share", "ratio"},
    {"query.grant_rate", "ratio"},
    {"query.bfs_check_us", "us"},
    {"query.join_check_us", "us"},
    {"index.csr_build_s", "s"},
    {"index.line_graph_build_s", "s"},
    {"index.oracle_build_s", "s"},
    {"index.cluster_build_s", "s"},
    {"index.base_tables_build_s", "s"},
    {"core.add_rule_us", "us"},
    {"storage.wal_appends", "count"},
    {"storage.wal_syncs", "count"},
    {"storage.syncs_per_write", "ratio"},
    {"storage.wal_bytes_per_write", "B"},
    {"storage.bundle_mb", "MB"},
    {"storage.save_snapshot_s", "s"},
    {"storage.load_bundle_s", "s"},
    {"storage.read_wal_s", "s"},
    {"storage.recover_s", "s"},
    {"shard.build_s", "s"},
    {"shard.refresh_summaries_s", "s"},
    {"shard.cross_share", "ratio"},
    {"shard.summary_hit_rate", "ratio"},
    {"shard.fallback_rounds_per_check", "count"},
    {"shard.retries", "count"},
    {"shard.timeouts", "count"},
    {"shard.unavailable", "count"},
    {"shard.local_check_us", "us"},
    {"shard.cross_check_us", "us"},
    {"error_frac", "ratio"},
    {"trace.check_per_s_untraced", "1/s"},
    {"trace.check_per_s_traced", "1/s"},
    {"trace.overhead_frac", "ratio"},
};

void Report::Set(const std::string& name, double value) {
  if (!std::isfinite(value)) {
    Log("warning: metric %s is not finite; reported as 0", name.c_str());
    value = 0;
  }
  values_[name] = value;
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "CORRECTNESS GATE FAILED: %s\n", why.c_str());
  Log("gate failed: %s", why.c_str());
}

void Report::AddOps(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Print(bool trace) const {
  const auto unit_of = [](const std::string& name) -> const char* {
    for (const auto* list : {&kEndToEnd, &kPerLayer}) {
      for (const MetricDef& m : *list) {
        if (name == m.name) return m.unit;
      }
    }
    return "";
  };
  for (const auto& [name, value] : values_) {
    Log("metric %-34s %14.6g %s", name.c_str(), value, unit_of(name));
  }
  Log("ops attempted=%llu failed=%llu error_frac=%.6g correct=%s",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_),
      attempted_ ? static_cast<double>(failed_) / attempted_ : 0.0,
      correct_ ? "true" : "false");
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : trace ? kPerLayer : kEndToEnd) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", Get(m.name));
    if (!first) json += ", ";
    first = false;
    json.append("\"").append(m.name).append("\": {\"value\": ");
    json.append(buf).append(", \"unit\": \"").append(m.unit).append("\"}");
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void Log(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::fputs("# ", stdout);
  std::vprintf(fmt, ap);
  std::fputc('\n', stdout);
  std::fflush(stdout);
  va_end(ap);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

void ResetPeakRss() {
  malloc_trim(0);
  // "5" resets VmHWM to the current resident size (Linux >= 4.0).
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

double TimeSeconds(const std::function<void()>& fn) {
  const int64_t t0 = trace::NowNs();
  fn();
  return static_cast<double>(trace::NowNs() - t0) * 1e-9;
}

// ---- Requests --------------------------------------------------------------

const std::vector<NodeId>& AudienceOracle::Audience(ResourceId resource) {
  auto it = cache_.find(resource);
  if (it != cache_.end()) return it->second;
  const PolicySnapshot& policy = view_->policy();
  const PolicySnapshot::ResourceEntry& entry = policy.resources[resource];
  const DeltaOverlay* overlay =
      view_->overlay().empty() ? nullptr : &view_->overlay();
  std::vector<NodeId> all;
  for (const RuleId rule : entry.rules) {
    for (const auto& path : policy.rules[rule].paths) {
      if (!path.bind_status.ok()) continue;
      std::vector<NodeId> a = CollectMatchingAudience(
          view_->graph(), view_->csr(), *path.bound, entry.owner, nullptr,
          overlay);
      all.insert(all.end(), a.begin(), a.end());
    }
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  all.erase(std::remove(all.begin(), all.end(), entry.owner), all.end());
  return cache_.emplace(resource, std::move(all)).first->second;
}

bool AudienceOracle::Grants(ResourceId resource, NodeId requester) {
  if (view_->policy().resources[resource].owner == requester) return true;
  const std::vector<NodeId>& a = Audience(resource);
  return std::binary_search(a.begin(), a.end(), requester);
}

namespace {

/// Seeded Fisher-Yates permutation of 0..n-1: Zipf ranks map through it
/// so popularity is independent of id order (BA hubs have low ids).
std::vector<uint32_t> Permutation(size_t n, Rng& rng) {
  std::vector<uint32_t> p(n);
  std::iota(p.begin(), p.end(), 0u);
  for (size_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[rng.NextBounded(i)]);
  }
  return p;
}

/// Draws ranks Zipf(theta) or, for theta == 0, uniformly.
class RankSampler {
 public:
  RankSampler(size_t n, double theta, uint64_t seed) : n_(n), rng_(seed) {
    if (theta > 0) zipf_ = std::make_unique<ZipfSampler>(n, theta, seed);
  }
  size_t Next() {
    return zipf_ ? static_cast<size_t>(zipf_->Next()) : rng_.NextBounded(n_);
  }

 private:
  size_t n_;
  Rng rng_;
  std::unique_ptr<ZipfSampler> zipf_;
};

}  // namespace

std::vector<PoolEntry> BuildPool(const PoolSpec& spec, size_t num_nodes,
                                 const std::vector<ResourceId>& resources,
                                 AudienceOracle& oracle, uint64_t world_seed,
                                 uint64_t seed) {
  Rng world(world_seed * 0x9e3779b97f4a7c15ULL + 0x51);
  const std::vector<uint32_t> node_perm = Permutation(num_nodes, world);
  const std::vector<uint32_t> res_perm = Permutation(resources.size(), world);
  RankSampler requesters(num_nodes, spec.requester_theta, seed * 131 + 1);
  RankSampler targets(resources.size(), spec.resource_theta, seed * 131 + 2);
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x52);
  std::vector<PoolEntry> pool(spec.size);
  for (size_t i = 0; i < spec.size; ++i) {
    PoolEntry& e = pool[i];
    e.request.resource = resources[res_perm[targets.Next()]];
    if (i % 2 == 0) {
      const std::vector<NodeId>& audience = oracle.Audience(e.request.resource);
      if (!audience.empty()) {
        e.request.requester = audience[rng.NextBounded(audience.size())];
        e.guided = true;
      }
    }
    if (!e.guided) e.request.requester = node_perm[requesters.Next()];
  }
  return pool;
}

namespace {

/// Share of the summed counts held by the `k` largest.
double TopShare(const std::unordered_map<uint64_t, uint64_t>& counts,
                size_t k) {
  std::vector<uint64_t> c;
  uint64_t total = 0;
  for (const auto& [id, n] : counts) {
    c.push_back(n);
    total += n;
  }
  k = std::min(k, c.size());
  std::partial_sort(c.begin(), c.begin() + k, c.end(), std::greater<>());
  const uint64_t top = std::accumulate(c.begin(), c.begin() + k, uint64_t{0});
  return total ? static_cast<double>(top) / static_cast<double>(total) : 0;
}

}  // namespace

void LogPoolSkew(const std::vector<PoolEntry>& pool, size_t num_nodes,
                 size_t num_resources) {
  std::unordered_map<uint64_t, uint64_t> by_resource, by_requester;
  for (const PoolEntry& e : pool) {
    ++by_resource[e.request.resource];
    ++by_requester[e.request.requester];
  }
  const size_t res_1pct = std::max<size_t>(1, num_resources / 100);
  const size_t node_1pct = std::max<size_t>(1, num_nodes / 100);
  Log("pool skew: top 1%% of resources (%zu) take %.1f%% of requests, top 10 "
      "take %.1f%%; top 1%% of requesters (%zu) take %.1f%%, top 10 take "
      "%.1f%%",
      res_1pct, 100 * TopShare(by_resource, res_1pct),
      100 * TopShare(by_resource, 10), node_1pct,
      100 * TopShare(by_requester, node_1pct),
      100 * TopShare(by_requester, 10));
}

void PrepassAndGate(std::vector<PoolEntry>& pool, const CheckFn& check,
                    AudienceOracle& oracle, size_t sample, Report& report) {
  uint64_t failed = 0;
  size_t guided_denied = 0;
  size_t mismatched = 0;
  size_t sampled_denies = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    PoolEntry& e = pool[i];
    Result<AccessDecision> d = check(e.request);
    if (!d.ok()) {
      ++failed;
      e.expect = false;
      continue;
    }
    e.expect = d->granted;
    if (e.guided && !e.expect) ++guided_denied;
    if (i < sample) {
      if (!e.guided && !e.expect) ++sampled_denies;
      if (oracle.Grants(e.request.resource, e.request.requester) != e.expect) {
        ++mismatched;
      }
    }
  }
  report.AddOps(pool.size(), failed);
  Log("gate: %zu requests pre-checked, %zu guided denied, %zu of %zu "
      "sampled decisions disagree with the audience oracle (%zu sampled "
      "denies confirmed)",
      pool.size(), guided_denied, mismatched, std::min(sample, pool.size()),
      sampled_denies);
  if (guided_denied > 0) {
    report.Fail(std::to_string(guided_denied) +
                " audience-guided requests were denied");
  }
  if (mismatched > 0) {
    report.Fail(std::to_string(mismatched) +
                " decisions disagree with the audience oracle");
  }
}

// ---- Closed-loop reads -----------------------------------------------------

void QueryStats::Add(const AccessDecision& d) {
  decisions += 1;
  grants += d.granted ? 1 : 0;
  pairs += d.stats.pairs_visited;
  line_queries += d.stats.line_queries;
  tuples += d.stats.tuples_generated;
  if (d.evaluator_name.starts_with("join")) join += 1;
  if (d.evaluator_name.find("bfs") != std::string_view::npos) bfs += 1;
}

void QueryStats::Merge(const QueryStats& o) {
  decisions += o.decisions;
  grants += o.grants;
  pairs += o.pairs;
  line_queries += o.line_queries;
  tuples += o.tuples;
  join += o.join;
  bfs += o.bfs;
}

struct ClosedLoop::Client {
  std::thread thread;
  std::vector<float> latency_us;  // measured samples
  std::vector<float> tagged;
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  QueryStats query;
};

ClosedLoop::ClosedLoop(const std::vector<PoolEntry>& pool, TaggedCheckFn check,
                       LoopOptions options)
    : pool_(pool), check_(std::move(check)), options_(options) {}

ClosedLoop::~ClosedLoop() {
  if (controller_.joinable()) controller_.join();
}

int ClosedLoop::Episodes() const {
  const double slot = kEpisodeS + kWarmupS;
  return std::max(1, static_cast<int>(std::lround(options_.seconds / slot)));
}

void ClosedLoop::Start() {
  controller_ = std::thread([this] {
    for (int e = Episodes(); e > 0; --e) RunEpisode();
  });
}

void ClosedLoop::RunEpisode() {
  const auto clients = static_cast<size_t>(options_.clients);
  const int64_t t0 =
      trace::NowNs() + static_cast<int64_t>(kWarmupS * 1e9);
  const int64_t t_end = t0 + static_cast<int64_t>(kEpisodeS * 1e9);
  std::vector<Client> cs(clients);
  for (size_t i = 0; i < clients; ++i) {
    // Each client of each episode starts at its own stretch of the pool.
    const size_t slot = static_cast<size_t>(episodes_run_) * clients + i;
    const size_t offset =
        (pool_.size() / (clients * 7 + 1)) * slot % pool_.size();
    cs[i].thread = std::thread([this, &c = cs[i], offset, t0, t_end] {
      ClientMain(c, offset, t0, t_end);
    });
  }
  std::vector<double> lat;
  for (Client& c : cs) {
    c.thread.join();
    lat.insert(lat.end(), c.latency_us.begin(), c.latency_us.end());
    for (const float t : c.tagged) tagged_.Add(t);
    totals_.ops += c.ops;
    totals_.failed += c.failed;
    totals_.wrong += c.wrong;
    totals_.query.Merge(c.query);
  }
  ++episodes_run_;
  if (lat.empty()) return;
  per_s_.push_back(static_cast<double>(lat.size()) / kEpisodeS);
  const LatencySummary s = Summarize(lat);
  p50_.push_back(s.p50);
  p99_.push_back(s.p99);
  for (const double v : lat) all_.Add(v);
}

LoopResult ClosedLoop::Finish() {
  if (controller_.joinable()) controller_.join();
  LoopResult r = totals_;
  r.episodes = per_s_.size();
  r.per_s = Median(per_s_);
  r.p50_us = Median(p50_);
  r.p99_us = Median(p99_);
  r.all = all_.Summary();
  r.tagged = tagged_.Summary();
  return r;
}

void ClosedLoop::ClientMain(Client& c, size_t offset, int64_t t0,
                            int64_t t_end) const {
  size_t i = offset;
  for (;;) {
    const PoolEntry& e = pool_[i];
    bool tag = false;
    const int64_t start = trace::NowNs();
    Result<AccessDecision> d = [&] {
      if (options_.span == 0) return check_(e.request, &tag);
      trace::Span span(options_.span, static_cast<uint32_t>(i));
      return check_(e.request, &tag);
    }();
    const int64_t end = trace::NowNs();
    ++c.ops;
    if (!d.ok()) {
      ++c.failed;
    } else {
      if (options_.verify && d->granted != e.expect) ++c.wrong;
      if (options_.collect_query_stats) c.query.Add(*d);
    }
    if (end >= t_end) break;
    if (end >= t0) {
      const auto us =
          static_cast<float>(static_cast<double>(end - start) * 1e-3);
      c.latency_us.push_back(us);
      if (tag) c.tagged.push_back(us);
    }
    if (++i == pool_.size()) i = 0;
  }
}

LoopResult RunClosedLoop(const std::vector<PoolEntry>& pool, CheckFn check,
                         LoopOptions options) {
  ClosedLoop loop(
      pool,
      [check = std::move(check)](const AccessRequest& req, bool*) {
        return check(req);
      },
      options);
  loop.Start();
  return loop.Finish();
}

// ---- Writes ----------------------------------------------------------------

MutationModel::MutationModel(const SocialGraph& graph, LabelId label,
                             uint64_t seed, EdgeFilter allowed)
    : num_nodes_(graph.NumNodes()),
      rng_(seed),
      allowed_(std::move(allowed)) {
  for (EdgeId e = 0; e < graph.EdgeSlotCount(); ++e) {
    if (!graph.IsLiveEdge(e)) continue;
    const Edge& edge = graph.edge(e);
    if (edge.label != label) continue;
    const uint64_t key = Key(edge.src, edge.dst);
    if (present_.insert(key).second &&
        (!allowed_ || allowed_(edge.src, edge.dst))) {
      removable_.push_back(key);
    }
  }
}

WriteSpec MutationModel::Next() {
  WriteSpec op;
  if (removable_.empty() || rng_.NextBool(kAddShare)) {
    for (;;) {
      const auto a = static_cast<NodeId>(rng_.NextBounded(num_nodes_));
      const auto b = static_cast<NodeId>(rng_.NextBounded(num_nodes_));
      if (a == b || (allowed_ && !allowed_(a, b)) ||
          !present_.insert(Key(a, b)).second) {
        continue;
      }
      removable_.push_back(Key(a, b));
      op = {true, a, b};
      return op;
    }
  }
  const size_t i = rng_.NextBounded(removable_.size());
  const uint64_t key = removable_[i];
  removable_[i] = removable_.back();
  removable_.pop_back();
  present_.erase(key);
  op = {false, static_cast<NodeId>(key >> 32),
        static_cast<NodeId>(key & 0xffffffffu)};
  return op;
}

std::vector<WriteSpec> MutationModel::Take(size_t n) {
  std::vector<WriteSpec> ops;
  ops.reserve(n);
  for (size_t i = 0; i < n; ++i) ops.push_back(Next());
  return ops;
}

EngineSink::EngineSink(AccessControlEngine& engine, LabelId label)
    : engine_(engine), label_(label), waiter_([this] { WaiterMain(); }) {}

EngineSink::~EngineSink() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  waiter_.join();
}

void EngineSink::Submit(size_t index, const WriteSpec& op) {
  WriteTicket ticket = op.add
                           ? engine_.SubmitAddEdge(op.src, op.dst, label_)
                           : engine_.SubmitRemoveEdge(op.src, op.dst, label_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.emplace_back(index, std::move(ticket));
  }
  cv_.notify_all();
}

bool EngineSink::PopDone(bool block, DoneWrite* done) {
  std::unique_lock<std::mutex> lock(mu_);
  if (block) {
    cv_.wait(lock, [&] { return !done_.empty() || pending_.empty(); });
  }
  if (done_.empty()) return false;
  *done = std::move(done_.front());
  done_.pop_front();
  return true;
}

size_t EngineSink::Outstanding() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

void EngineSink::WaiterMain() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] { return stop_ || !pending_.empty(); });
    if (pending_.empty()) return;  // stopped, and every ticket completed
    const size_t index = pending_.front().first;
    const WriteTicket ticket = pending_.front().second;
    lock.unlock();
    Status status = ticket.Wait().status;
    const int64_t at = trace::NowNs();
    lock.lock();
    pending_.pop_front();
    done_.push_back({index, std::move(status), at});
    cv_.notify_all();
  }
}

namespace {

void SleepUntilOrPoll(int64_t due_ns) {
  const int64_t now = trace::NowNs();
  const int64_t wait = std::min<int64_t>(due_ns - now, 100'000);
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

}  // namespace

OpenLoopResult RunOpenLoop(WriteSink& sink, const std::vector<WriteSpec>& ops,
                           const OpenLoopOptions& options) {
  static const uint16_t kSubmit = trace::Name("write_queue.submit");
  static const uint16_t kTicket = trace::Name("write.ticket");
  OpenLoopResult r;
  const double interval_ns = 1e9 / options.rate;
  const int64_t t0 = trace::NowNs() + 1'000'000;
  const auto due = [&](size_t i) {
    return t0 + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
  };
  std::vector<double> latency(ops.size(), 0);
  std::vector<double> lateness;
  std::vector<double> depth;
  lateness.reserve(ops.size());
  depth.reserve(ops.size());
  int64_t submit_ns = 0;
  uint64_t busy = 0;
  const auto drain = [&](bool block) {
    DoneWrite d;
    while (sink.PopDone(block, &d)) {
      const size_t i = d.index;
      latency[i] = static_cast<double>(d.at_ns - due(i)) * 1e-3;
      trace::Record(kTicket, due(i), d.at_ns, static_cast<uint32_t>(i));
      if (d.status.ok()) {
        r.acked.push_back(i);
      } else {
        ++r.failed;
      }
    }
  };
  for (size_t i = 0; i < ops.size(); ++i) {
    int64_t now = 0;
    for (;;) {
      drain(false);
      now = trace::NowNs();
      if (now >= due(i)) break;
      SleepUntilOrPoll(due(i));
    }
    lateness.push_back(static_cast<double>(now - due(i)) * 1e-3);
    if (options.compaction_probe && options.compaction_probe()) ++busy;
    if (options.on_send) options.on_send();
    const int64_t s0 = trace::NowNs();
    {
      trace::Span span(kSubmit, static_cast<uint32_t>(i));
      sink.Submit(i, ops[i]);
    }
    submit_ns += trace::NowNs() - s0;
    depth.push_back(static_cast<double>(sink.Outstanding()));
  }
  r.end_depth = sink.Outstanding();
  drain(true);
  r.sent = ops.size();

  // The writes due in the first kWarmupS warm the writer up, as the first
  // kWarmupS of a read episode warms its clients; they are not measured.
  const size_t warmup = std::min(
      ops.size(), static_cast<size_t>(std::llround(kWarmupS * options.rate)));
  std::vector<double> measured(
      latency.begin() + static_cast<std::ptrdiff_t>(warmup), latency.end());
  r.all = Summarize(measured);
  r.p50_us = r.all.p50;
  r.p99_us = r.all.p99;
  r.lateness_us = Summarize(lateness);
  r.latency_us = std::move(measured);
  r.lateness_raw_us = lateness;
  r.submit_us_mean =
      ops.empty() ? 0 : static_cast<double>(submit_ns) * 1e-3 / ops.size();
  r.compaction_busy_frac =
      ops.empty() ? 0 : static_cast<double>(busy) / ops.size();
  // Backlog growth: the median of the last quarter of the sends against
  // the second (the first is warm-up); medians ignore a transient stall.
  // Depth is capped by the queue's backpressure, so a saturated run shows
  // as growing send lateness too.
  if (depth.size() >= 8) {
    const size_t q = depth.size() / 4;
    const auto median_of = [q](const std::vector<double>& v, size_t lo) {
      std::vector<double> part(q);
      std::copy_n(v.begin() + static_cast<std::ptrdiff_t>(lo), q, part.begin());
      return Median(std::move(part));
    };
    const bool depth_grew =
        median_of(depth, depth.size() - q) >
        2 * median_of(depth, q) + std::max(8.0, options.rate * 0.01);
    const bool lateness_grew =
        median_of(lateness, lateness.size() - q) >
        2 * median_of(lateness, q) + 1000;  // 1 ms
    r.backlog_grew = depth_grew || lateness_grew;
  }
  return r;
}

OpenLoopResult MergeEpisodes(const std::vector<OpenLoopResult>& episodes) {
  OpenLoopResult m;
  std::vector<double> p50, p99;
  double submit = 0;
  double busy = 0;
  for (const OpenLoopResult& e : episodes) {
    p50.push_back(e.p50_us);
    p99.push_back(e.p99_us);
    m.latency_us.insert(m.latency_us.end(), e.latency_us.begin(),
                        e.latency_us.end());
    m.lateness_raw_us.insert(m.lateness_raw_us.end(),
                             e.lateness_raw_us.begin(),
                             e.lateness_raw_us.end());
    submit += e.submit_us_mean * static_cast<double>(e.sent);
    busy += e.compaction_busy_frac * static_cast<double>(e.sent);
    m.end_depth = std::max(m.end_depth, e.end_depth);
    m.backlog_grew = m.backlog_grew || e.backlog_grew;
    m.sent += e.sent;
    m.failed += e.failed;
  }
  m.episode_p50_us = p50;
  m.p50_us = Median(p50);
  m.all = Summarize(m.latency_us);
  // An episode's own p99 needs ten samples beyond it; below that, take
  // the p99 of all episodes' samples together.
  size_t smallest = episodes.empty() ? 0 : episodes[0].latency_us.size();
  for (const OpenLoopResult& e : episodes) {
    smallest = std::min(smallest, e.latency_us.size());
  }
  m.p99_us = TailPercentile(smallest) >= 99 ? Median(p99) : m.all.p99;
  m.lateness_us = Summarize(m.lateness_raw_us);
  if (m.sent > 0) {
    m.submit_us_mean = submit / static_cast<double>(m.sent);
    m.compaction_busy_frac = busy / static_cast<double>(m.sent);
  }
  return m;
}

std::vector<WriteSpec> Inverse(const std::vector<WriteSpec>& ops) {
  std::vector<WriteSpec> inv(ops.rbegin(), ops.rend());
  for (WriteSpec& op : inv) op.add = !op.add;
  return inv;
}

BurstResult RunBurst(WriteSink& sink, const std::vector<WriteSpec>& ops) {
  BurstResult r;
  int64_t last = trace::NowNs();
  const int64_t t0 = last;
  const auto drain = [&](bool block) {
    DoneWrite d;
    while (sink.PopDone(block, &d)) {
      last = std::max(last, d.at_ns);
      if (d.status.ok()) {
        r.acked.push_back(d.index);
      } else {
        ++r.failed;
      }
    }
  };
  for (size_t i = 0; i < ops.size(); ++i) {
    sink.Submit(i, ops[i]);
    drain(false);
  }
  drain(true);
  const double secs = static_cast<double>(last - t0) * 1e-9;
  r.per_s = secs > 0 ? static_cast<double>(ops.size()) / secs : 0;
  return r;
}

}  // namespace sargus::perfbench
