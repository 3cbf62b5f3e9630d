#ifndef SARGUS_SHARD_TRANSPORT_H_
#define SARGUS_SHARD_TRANSPORT_H_

/// \file transport.h
/// \brief The router <-> shard call seam, and everything that can go
/// wrong across it.
///
/// ShardTransport is the one interface the ShardRouter uses to reach a
/// ShardEngine's data plane (Check / CheckBatch / ExpandFrontier /
/// Mutate). Two implementations ship:
///
///   * InProcessTransport — direct virtual calls into the engines,
///     typed structs passed through untouched. This is the production
///     in-process path; it adds one indirect call per request and
///     nothing else, so the fault-free sharded tier stays within a few
///     percent of calling the engines directly.
///   * FaultInjectionTransport — a decorator that wraps any transport
///     and injects faults per shard: dropped calls (kUnavailable),
///     injected delays against a virtual clock (driving deadlines to
///     kDeadlineExceeded), in-band error frames, and corrupted reply
///     frames (the reply is really encoded, seeded bytes are flipped,
///     and the decode is attempted — the wire checksum turns almost
///     every corruption into a clean error; the rare frame that still
///     decodes is byte-identical, so it is safe to accept).
///     Deterministic: same seed + same call sequence = same faults.
///
/// The transport error contract: a transport call returns non-OK ONLY
/// with kUnavailable (the shard could not be reached / gave garbage) or
/// kDeadlineExceeded (the per-call deadline passed). Every other
/// failure — evaluation errors, unknown resources, bad arguments — is a
/// shard-side result and travels in-band in the typed reply's
/// status_code. The router's retry / circuit-breaker policy keys off
/// exactly this split: transport errors are retryable infrastructure
/// faults; in-band errors are answers.
///
/// Mutations are fail-stop-before-apply: when FaultInjectionTransport
/// decides to fault a Mutate call, it faults BEFORE delivering it, so a
/// failed Mutate was never applied on the shard. This models a
/// connection that died before the request hit the wire. The
/// retransmit-after-apply duplicate problem is real for sockets and is
/// explicitly out of scope until a real socket transport exists
/// (exactly-once needs request ids and reply caching — a protocol
/// change, not a policy change).
///
/// The transport also owns time: NowMs() / SleepMs() route through the
/// same interface so the fault decorator can run a virtual clock —
/// chaos tests inject multi-second delay storms and breaker-open
/// windows without ever really sleeping.
///
/// ShardHealthTracker is the router's per-shard circuit breaker
/// (consecutive-failure threshold -> open window -> single half-open
/// probe). It lives here rather than in the router so transport-level
/// tests can drive the state machine directly. All state is atomic;
/// concurrent readers never block.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <utility>
#include <vector>

#include "common/result.h"
#include "shard/wire.h"

namespace sargus {

class ShardEngine;

/// Per-call knobs. `deadline_ms` is an ABSOLUTE transport-clock time
/// (NowMs() scale); 0 means no deadline. The transport checks it before
/// dispatch and after any injected delay.
struct TransportCallOptions {
  uint64_t deadline_ms = 0;
};

/// The router's only road to a shard's data plane.
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  virtual uint32_t num_shards() const = 0;

  /// Data-plane calls. Non-OK only for kUnavailable / kDeadlineExceeded
  /// (see file comment); shard-side errors ride in reply.status_code.
  virtual Result<wire::CheckReply> Check(uint32_t shard,
                                         const wire::CheckRequest& request,
                                         const TransportCallOptions& opts) = 0;
  virtual Result<wire::BatchCheckReply> CheckBatch(
      uint32_t shard, const wire::BatchCheckRequest& request,
      const TransportCallOptions& opts) = 0;
  virtual Result<wire::WalkReply> ExpandFrontier(
      uint32_t shard, const wire::WalkRequest& request,
      const TransportCallOptions& opts) = 0;
  virtual Result<wire::MutateReply> Mutate(uint32_t shard,
                                           const wire::MutateRequest& request,
                                           const TransportCallOptions& opts) = 0;

  /// Transport clock, milliseconds. Monotonic; origin unspecified.
  virtual uint64_t NowMs() = 0;
  /// Backoff sleep. Real time on the in-process transport; virtual-
  /// clock advance on the fault decorator (tests never really wait).
  virtual void SleepMs(uint32_t ms) = 0;
};

/// Direct calls into in-process ShardEngines. Thread-safe for reads the
/// same way the engines are; Mutate inherits the single-writer
/// contract.
class InProcessTransport final : public ShardTransport {
 public:
  /// `engines` must outlive the transport.
  explicit InProcessTransport(std::vector<ShardEngine*> engines);

  uint32_t num_shards() const override {
    return static_cast<uint32_t>(engines_.size());
  }

  Result<wire::CheckReply> Check(uint32_t shard,
                                 const wire::CheckRequest& request,
                                 const TransportCallOptions& opts) override;
  Result<wire::BatchCheckReply> CheckBatch(
      uint32_t shard, const wire::BatchCheckRequest& request,
      const TransportCallOptions& opts) override;
  Result<wire::WalkReply> ExpandFrontier(
      uint32_t shard, const wire::WalkRequest& request,
      const TransportCallOptions& opts) override;
  Result<wire::MutateReply> Mutate(uint32_t shard,
                                   const wire::MutateRequest& request,
                                   const TransportCallOptions& opts) override;

  uint64_t NowMs() override;
  void SleepMs(uint32_t ms) override;

 private:
  /// Deadline gate shared by every call: kDeadlineExceeded once the
  /// clock has passed opts.deadline_ms.
  Status CheckDeadline(const TransportCallOptions& opts);

  std::vector<ShardEngine*> engines_;
};

// ---- Fault injection --------------------------------------------------------

enum class FaultKind : uint8_t {
  kNone = 0,
  /// The call never reaches the shard: kUnavailable.
  kDrop = 1,
  /// The shard answers with a wire ErrorFrame instead of a typed reply.
  kErrorReply = 2,
  /// The typed reply is encoded, mutated, and re-decoded; the checksum
  /// almost always turns this into kUnavailable ("corrupt reply frame").
  kCorrupt = 3,
  /// The virtual clock advances by a seeded amount in
  /// [delay_min_ms, delay_max_ms] before delivery; a passed deadline
  /// becomes kDeadlineExceeded.
  kDelay = 4,
};

/// Independent per-call fault probabilities for one shard. Sampled in
/// the order delay, drop, error, corrupt; at most one fires per call.
struct ShardFaultProfile {
  double delay_probability = 0.0;
  double drop_probability = 0.0;
  double error_probability = 0.0;
  double corrupt_probability = 0.0;
  uint32_t delay_min_ms = 1;
  uint32_t delay_max_ms = 10;
};

/// One scripted fault: calls [first_call, last_call] (0-based per-shard
/// call indices, inclusive) against `shard` suffer `kind`. Scripted
/// entries take precedence over the probabilistic profile, so tests can
/// stage exact storms ("shard 2's calls 5..9 all time out").
struct FaultScheduleEntry {
  uint32_t shard = 0;
  uint64_t first_call = 0;
  uint64_t last_call = 0;
  FaultKind kind = FaultKind::kDrop;
};

/// What the decorator actually did, per shard (diagnostics + test
/// assertions).
struct FaultCounters {
  uint64_t calls = 0;
  uint64_t drops = 0;
  uint64_t error_replies = 0;
  uint64_t corrupts = 0;
  uint64_t corrupt_survived = 0;  // mutated frame still decoded (accepted)
  uint64_t delays = 0;
  uint64_t deadline_hits = 0;
};

/// Deterministic fault-injecting decorator. Wraps any transport; every
/// knob is per shard. Thread-safe: probabilistic sampling runs under a
/// per-shard mutex (chaos tests hammer it from many reader threads),
/// blackout flags and the virtual clock are atomics.
class FaultInjectionTransport final : public ShardTransport {
 public:
  FaultInjectionTransport(std::unique_ptr<ShardTransport> inner,
                          uint64_t seed);

  /// Installs the probabilistic profile for one shard.
  void SetProfile(uint32_t shard, const ShardFaultProfile& profile);
  /// Appends a scripted fault window.
  void AddSchedule(const FaultScheduleEntry& entry);
  /// Hard on/off switch: while black, every call to `shard` drops
  /// (mutations fault before delivery — nothing is applied).
  void Blackout(uint32_t shard, bool black);
  bool blacked_out(uint32_t shard) const;

  FaultCounters counters(uint32_t shard) const;

  ShardTransport& inner() { return *inner_; }

  uint32_t num_shards() const override { return inner_->num_shards(); }

  Result<wire::CheckReply> Check(uint32_t shard,
                                 const wire::CheckRequest& request,
                                 const TransportCallOptions& opts) override;
  Result<wire::BatchCheckReply> CheckBatch(
      uint32_t shard, const wire::BatchCheckRequest& request,
      const TransportCallOptions& opts) override;
  Result<wire::WalkReply> ExpandFrontier(
      uint32_t shard, const wire::WalkRequest& request,
      const TransportCallOptions& opts) override;
  Result<wire::MutateReply> Mutate(uint32_t shard,
                                   const wire::MutateRequest& request,
                                   const TransportCallOptions& opts) override;

  /// Virtual clock: starts at a fixed epoch, advances only through
  /// SleepMs and injected delays. Chaos runs are time-deterministic.
  uint64_t NowMs() override {
    return clock_ms_.load(std::memory_order_relaxed);
  }
  void SleepMs(uint32_t ms) override {
    clock_ms_.fetch_add(ms, std::memory_order_relaxed);
  }

 private:
  struct ShardState {
    std::mutex mu;
    ShardFaultProfile profile;
    std::mt19937_64 rng;
    uint64_t call_index = 0;
    FaultCounters counters;
    std::atomic<bool> blackout{false};
  };

  /// Decides this call's fate (advancing the per-shard call index and
  /// rng) and applies any delay to the clock. Returns the fault to
  /// apply; a non-OK deadline turns into kDeadlineExceeded upstream.
  FaultKind DrawFault(uint32_t shard);

  /// Per-fault-kind outcomes shared by the four call shapes.
  Status DropStatus(uint32_t shard);
  Status ErrorReplyStatus(uint32_t shard);
  Status DeadlineStatus(uint32_t shard, const TransportCallOptions& opts);

  /// The body of the three read calls: draw this call's fault and fail
  /// the call with it, or deliver through `call`; on a corrupt fault,
  /// encode the reply, flip seeded bytes and `decode` it again. Returns
  /// the reply (byte-identical, or it would not have decoded) or the
  /// fault's transport error.
  template <typename Reply, typename CallFn, typename DecodeFn>
  Result<Reply> Deliver(uint32_t shard, const TransportCallOptions& opts,
                        CallFn call, DecodeFn decode);

  /// Seeded byte mutation used by Deliver (under the shard mutex).
  void MutateBytes(ShardState& st, std::vector<uint8_t>& bytes);

  std::unique_ptr<ShardTransport> inner_;
  std::vector<std::unique_ptr<ShardState>> states_;
  std::vector<FaultScheduleEntry> schedule_;  // immutable after setup
  std::atomic<uint64_t> clock_ms_;
};

// ---- Circuit breaker --------------------------------------------------------

enum class BreakerState : uint8_t {
  /// Healthy: calls flow.
  kClosed = 0,
  /// Tripped: calls fail fast until the open window elapses.
  kOpen = 1,
  /// Window elapsed: exactly one probe call is allowed through; its
  /// outcome closes (success) or re-opens (failure) the breaker.
  kHalfOpen = 2,
};

/// Per-shard consecutive-failure circuit breaker. Lock-free; every
/// method is safe from any thread. The router consults AllowCall before
/// each transport attempt and reports outcomes back.
class ShardHealthTracker {
 public:
  ShardHealthTracker(uint32_t num_shards, uint32_t failure_threshold,
                     uint32_t open_ms);

  /// May a call to `shard` proceed at `now_ms`? In half-open, only the
  /// single probe winner gets true; everyone else fails fast.
  bool AllowCall(uint32_t shard, uint64_t now_ms);

  void RecordSuccess(uint32_t shard);
  void RecordFailure(uint32_t shard, uint64_t now_ms);

  BreakerState state(uint32_t shard) const;
  uint32_t consecutive_failures(uint32_t shard) const;
  /// Total closed->open (and half-open->open) transitions, all shards.
  uint64_t opens() const { return opens_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    std::atomic<uint8_t> state{0};
    std::atomic<uint32_t> consecutive_failures{0};
    std::atomic<uint64_t> open_until_ms{0};
    std::atomic<bool> probe_in_flight{false};
  };

  uint32_t failure_threshold_;
  uint32_t open_ms_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::atomic<uint64_t> opens_{0};
};

}  // namespace sargus

#endif  // SARGUS_SHARD_TRANSPORT_H_
