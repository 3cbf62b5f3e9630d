#ifndef SARGUS_PERFBENCH_HARNESS_H_
#define SARGUS_PERFBENCH_HARNESS_H_

/// \file harness.h
/// \brief Shared machinery of the end-to-end benchmark: the metric
/// catalogue and report, request pools with an audience oracle, the
/// closed-loop read driver, the open-loop and burst write drivers, and
/// the mutation model that keeps every generated write valid.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "engine/access_engine.h"
#include "stats.h"

namespace sargus::perfbench {

// ---- Command line ----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 5;
  bool trace = false;
  /// Scratch space for durability directories and span files.
  std::string work_dir = ".bench_runs";
};

// ---- Metrics ---------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0 (must match BENCHMARK.json "end_to_end").
extern const std::vector<MetricDef> kEndToEnd;
/// Printed with --trace 1 (must match BENCHMARK.json "per_layer"). A
/// layer a workload does not exercise reports 0.
extern const std::vector<MetricDef> kPerLayer;

class Report {
 public:
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;

  /// Records a failed correctness gate; the run reports correct=false.
  void Fail(const std::string& why);
  bool correct() const { return correct_; }

  /// Operations attempted and operations that returned a non-OK Status.
  void AddOps(uint64_t attempted, uint64_t failed);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// Human-readable lines, then the one-line JSON result (last line).
  void Print(bool trace) const;

 private:
  std::map<std::string, double> values_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Prints one "# ..." progress line to stdout (never the last line).
void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Peak resident memory of the process (VmHWM) since it started or since
/// the last ResetPeakRss().
double PeakRssMb();
/// Returns freed heap memory to the system and restarts the peak from the
/// current resident size, so that memory used only by a correctness gate
/// does not count.
void ResetPeakRss();
uint64_t FileBytes(const std::string& path);

/// Wall-clock seconds of `fn`.
double TimeSeconds(const std::function<void()>& fn);

// ---- Requests --------------------------------------------------------------

struct PoolEntry {
  AccessRequest request;
  /// Requester drawn from the resource's matching audience: must grant.
  bool guided = false;
  /// Decision recorded by the pre-pass; timed loops verify against it.
  bool expect = false;
};

/// Exact audience of a resource (owner plus every node some rule path
/// reaches from the owner), computed with CollectMatchingAudience against
/// one view. Used to draw guided requesters and to confirm denies.
class AudienceOracle {
 public:
  explicit AudienceOracle(std::shared_ptr<const AccessReadView> view)
      : view_(std::move(view)) {}

  /// Sorted union audience of `resource` (owner excluded).
  const std::vector<NodeId>& Audience(ResourceId resource);
  bool Grants(ResourceId resource, NodeId requester);

 private:
  std::shared_ptr<const AccessReadView> view_;
  std::unordered_map<ResourceId, std::vector<NodeId>> cache_;
};

struct PoolSpec {
  size_t size = 1 << 16;
  double requester_theta = 0;  // 0 = uniform
  double resource_theta = 0;
};

/// Half of the requests are audience-guided (requester drawn from the
/// resource's audience), half sampled. Zipf ranks map to ids through a
/// permutation seeded by `world_seed`, the seed of the graph and
/// policies, so the same items are hot whatever the request seed; the
/// draws themselves follow `seed`.
std::vector<PoolEntry> BuildPool(const PoolSpec& spec, size_t num_nodes,
                                 const std::vector<ResourceId>& resources,
                                 AudienceOracle& oracle, uint64_t world_seed,
                                 uint64_t seed);

/// Logs the share of the pool's requests that fall on the top 1% and the
/// top 10 of the resources and of the requesters.
void LogPoolSkew(const std::vector<PoolEntry>& pool, size_t num_nodes,
                 size_t num_resources);

using CheckFn = std::function<Result<AccessDecision>(const AccessRequest&)>;

/// Runs every pool entry once through `check`, stores the decision as the
/// entry's expectation, and gates the first `sample` entries against the
/// oracle: guided entries must grant, and every decision must equal the
/// oracle's (so each sampled deny is confirmed absent from the audience).
void PrepassAndGate(std::vector<PoolEntry>& pool, const CheckFn& check,
                    AudienceOracle& oracle, size_t sample, Report& report);

// ---- Closed-loop reads -----------------------------------------------------

/// Per-decision accumulators for the query layer (traced run).
struct QueryStats {
  uint64_t decisions = 0;
  uint64_t grants = 0;
  uint64_t pairs = 0;
  uint64_t line_queries = 0;
  uint64_t tuples = 0;
  uint64_t join = 0;
  uint64_t bfs = 0;
  void Add(const AccessDecision& d);
  void Merge(const QueryStats& o);
};

/// A check that may tag its sample (e.g. "a compaction was in flight").
using TaggedCheckFn =
    std::function<Result<AccessDecision>(const AccessRequest&, bool* tag)>;

/// A closed loop is split into episodes of warm-up + measurement, each
/// with freshly started client threads. Throughput and percentiles are
/// taken per episode and reported as their medians across episodes: a
/// run of many short independent episodes is far steadier than one long
/// one.
inline constexpr double kEpisodeS = 0.2;
inline constexpr double kWarmupS = 0.05;

struct LoopOptions {
  int clients = 3;
  /// Total length, in episodes of kWarmupS + kEpisodeS.
  double seconds = 5;
  /// Compare each decision with the pool's expectation.
  bool verify = true;
  /// Span name for each check (0 = no span).
  uint16_t span = 0;
  bool collect_query_stats = false;
};

struct LoopResult {
  /// Medians across episodes of each episode's throughput, p50 and p99.
  double per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  size_t episodes = 0;
  /// Every measured sample, and the samples whose check set the tag
  /// (from histograms: within about 3%).
  LatencySummary all;
  LatencySummary tagged;
  uint64_t ops = 0;  // measured + warm-up
  uint64_t failed = 0;
  uint64_t wrong = 0;
  QueryStats query;
};

/// Closed-loop clients over `pool`. Start() runs the episodes
/// `options.seconds` asks for on a controller thread, so the caller can
/// drive other load meanwhile, or the caller runs them one at a time with
/// RunEpisode(); Finish() returns the medians over the episodes.
class ClosedLoop {
 public:
  ClosedLoop(const std::vector<PoolEntry>& pool, TaggedCheckFn check,
             LoopOptions options);
  ~ClosedLoop();
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Episodes `options.seconds` asks for.
  int Episodes() const;
  /// Runs them all on a controller thread.
  void Start();
  /// Runs one episode on the calling thread (instead of Start()), so that
  /// the caller can interleave other work between episodes.
  void RunEpisode();
  LoopResult Finish();

 private:
  struct Client;
  void ClientMain(Client& c, size_t offset, int64_t t0, int64_t t_end) const;

  const std::vector<PoolEntry>& pool_;
  TaggedCheckFn check_;
  LoopOptions options_;
  int episodes_run_ = 0;  // written by one thread at a time
  std::vector<double> per_s_, p50_, p99_;
  LatencyHistogram all_, tagged_;
  LoopResult totals_;  // counters; percentiles are filled by Finish()
  std::thread controller_;
};

/// Start + Finish in one call.
LoopResult RunClosedLoop(const std::vector<PoolEntry>& pool, CheckFn check,
                         LoopOptions options);

// ---- Writes ----------------------------------------------------------------

struct WriteSpec {
  bool add = true;
  NodeId src = 0;
  NodeId dst = 0;
};

/// Tracks the logical edge set of one label so that every generated
/// mutation is valid: adds name absent edges, removes name present ones.
class MutationModel {
 public:
  /// Restricts the edges the model adds or removes (empty: any edge).
  using EdgeFilter = std::function<bool(NodeId src, NodeId dst)>;

  MutationModel(const SocialGraph& graph, LabelId label, uint64_t seed,
                EdgeFilter allowed = nullptr);
  WriteSpec Next();
  std::vector<WriteSpec> Take(size_t n);
  /// Restarts the random stream (the edge set is kept).
  void Reseed(uint64_t seed) { rng_ = Rng(seed); }

 private:
  static uint64_t Key(NodeId a, NodeId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }
  /// Share of adds among the generated writes (the rest are removes).
  static constexpr double kAddShare = 0.7;
  size_t num_nodes_;
  Rng rng_;
  EdgeFilter allowed_;
  std::unordered_set<uint64_t> present_;
  std::vector<uint64_t> removable_;
};

/// A completed write: its index in the op list, its status and when it
/// completed.
struct DoneWrite {
  size_t index = 0;
  Status status;
  int64_t at_ns = 0;
};

/// Where writes go: the engine's queue (async tickets) or the router
/// (synchronous calls).
class WriteSink {
 public:
  virtual ~WriteSink() = default;
  virtual void Submit(size_t index, const WriteSpec& op) = 0;
  /// Pops the oldest completed write not yet popped (with `block`, waits
  /// for one while writes are outstanding). False when none is available.
  virtual bool PopDone(bool block, DoneWrite* done) = 0;
  /// Submitted writes that have not completed.
  virtual size_t Outstanding() const = 0;
};

/// Engine writes return tickets. A waiter thread waits on them in
/// submission order and stamps each completion as it wakes, so a write's
/// latency does not depend on when the sending thread next looks: a
/// sender that checked its tickets between sends would quantize the
/// latencies to its polling period.
class EngineSink : public WriteSink {
 public:
  EngineSink(AccessControlEngine& engine, LabelId label);
  ~EngineSink() override;
  EngineSink(const EngineSink&) = delete;
  EngineSink& operator=(const EngineSink&) = delete;
  void Submit(size_t index, const WriteSpec& op) override;
  bool PopDone(bool block, DoneWrite* done) override;
  size_t Outstanding() const override;

 private:
  void WaiterMain();

  AccessControlEngine& engine_;
  LabelId label_;
  mutable std::mutex mu_;
  std::condition_variable cv_;  // pending_ grew, done_ grew, or stop_
  std::deque<std::pair<size_t, WriteTicket>> pending_;  // not completed
  std::deque<DoneWrite> done_;  // completed, not yet popped
  bool stop_ = false;
  std::thread waiter_;
};

struct OpenLoopOptions {
  double rate = 1000;  // writes per second
  /// Per-send probe (traced run): samples layer state at each send.
  std::function<void()> on_send;
  /// Samples "a compaction is in flight" at each send (may be empty).
  std::function<bool()> compaction_probe;
};

struct OpenLoopResult {
  /// p50 and p99 of every write; after MergeEpisodes, their medians
  /// across the episodes.
  double p50_us = 0;
  double p99_us = 0;
  std::vector<double> episode_p50_us;  // MergeEpisodes only
  LatencySummary all;
  LatencySummary lateness_us;  // send time minus due time
  double submit_us_mean = 0;
  size_t end_depth = 0;
  /// Queue depth or send lateness grew over the run: the generator
  /// outran the system, so the latency figures are not valid.
  bool backlog_grew = false;
  double compaction_busy_frac = 0;
  uint64_t sent = 0;
  uint64_t failed = 0;
  std::vector<size_t> acked;  // indices into the op list, in order
  std::vector<double> latency_us;  // measured writes, in send order
  std::vector<double> lateness_raw_us;
};

/// Combines open-loop episodes: p50 becomes the median of the episodes'
/// own p50s, and p99 likewise when every episode has ten samples beyond
/// its p99, else the p99 of all samples together.
OpenLoopResult MergeEpisodes(const std::vector<OpenLoopResult>& episodes);

/// The writes that undo `ops`, in reverse order.
std::vector<WriteSpec> Inverse(const std::vector<WriteSpec>& ops);

/// Sends `ops` on a fixed schedule (op i due at t0 + i/rate) and times
/// each from its due time to its completion, so a stall counts against
/// every write queued behind it.
OpenLoopResult RunOpenLoop(WriteSink& sink, const std::vector<WriteSpec>& ops,
                           const OpenLoopOptions& options);

struct BurstResult {
  double per_s = 0;
  uint64_t failed = 0;
  std::vector<size_t> acked;
};

/// Submits every op as fast as the sink accepts them (pipelined), then
/// waits for all; throughput is ops over first submit to last completion.
BurstResult RunBurst(WriteSink& sink, const std::vector<WriteSpec>& ops);

}  // namespace sargus::perfbench

#endif  // SARGUS_PERFBENCH_HARNESS_H_
