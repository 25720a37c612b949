// In-process collectives — the NCCL / Ray.SGD synchronization substrate.
//
// The paper's data-parallel strategy synchronizes replica gradients with
// an allreduce every step (tf.MirroredStrategy within a node, Ray.SGD
// across nodes, NCCL underneath). This module provides the same
// collectives for replicas that are threads of one process, using the
// MPI naming scheme: a fixed group of `size` ranks, each owning a
// Communicator handle bound to a shared CollectiveContext.
//
// all_reduce_sum runs a real communication schedule — by default the
// *chunked ring* NCCL uses (reduce-scatter + all-gather, 2(n-1)
// barrier-separated steps) rather than a trivial shared-memory
// reduction, so the communication structure (and the 2*(n-1)/n
// traffic factor modeled by the cluster simulator) is real. The
// schedule is pluggable (comm/algorithms.hpp): DMIS_COMM_ALGO or
// GroupOptions::algo selects ring, recursive halving/doubling (tree),
// an intra-node-ring + inter-node-tree hierarchy (hier), or auto —
// a calibrated AlgoTuner (comm/algo_tuner.hpp) picking per message.
//
// Usage is SPMD: every rank must call the same collectives in the same
// order. Blocking collectives block until the whole group participates.
//
// Nonblocking path: all_reduce_sum_async hands the operation to this
// rank's *comm worker* — one thread per rank, owned by the context,
// started lazily on the first async submission — and returns an
// AsyncRequest immediately, so the issuing thread can keep computing
// (backward) while the ring runs. Per-rank submission order is the
// execution order; the SPMD contract extends unchanged: every rank must
// submit the same collectives in the same order. Once the workers are
// live, blocking collectives are routed through the same per-rank FIFO
// queue (submit + wait), which keeps barrier rendezvous matched when
// async and sync calls interleave. Buffers passed to an async collective
// must stay alive and untouched until wait() returns.
//
// Failure semantics (the part NCCL gets from its watchdog):
//  * Deadlines. Every collective — blocking or async — observes a
//    per-collective deadline (DMIS_COMM_TIMEOUT_MS, or the explicit
//    timeout handed to the context; 0 = wait forever, the pre-failure-
//    semantics behavior). A rank whose rendezvous wait exceeds the
//    deadline throws CommError{kTimeout}, marks the ranks that never
//    arrived as suspects in the health table, and poisons the group.
//  * Poison pill. abort() (or an internal timeout) marks the context
//    aborted — *sticky* — and wakes every rank blocked in any
//    rendezvous; they throw CommError{kPeerFailed or kAborted} instead
//    of deadlocking. Every later collective on the context fails fast
//    the same way. An aborted group is dead; recovery means building a
//    new (smaller) group — see train::MirroredStrategy's elastic mode.
//  * Health table. Each rank heartbeats at collective entry (timestamp
//    + op count). Timeouts turn laggards into suspects; abort() and
//    fencing turn ranks into kDead.
//  * Agreement. After an abort, survivors call agree_on_failures():
//    each registers itself alive and folds in its suspicions; the round
//    *seals* once every rank is either registered or suspected/dead (or
//    a grace deadline passes, condemning the missing). Every registered
//    caller returns the same sealed dead-set; a rank arriving after the
//    seal finds itself condemned and is fenced out with kAborted. This
//    is what lets all survivors rebuild the same shrunken group.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "comm/algo_tuner.hpp"
#include "comm/algorithms.hpp"
#include "common/check.hpp"

namespace dmis::comm {

class CollectiveContext;
class Communicator;

/// Group construction knobs: the first three fields are the
/// DMIS_COMM_TIMEOUT_MS / DMIS_COMM_ALGO / DMIS_COMM_RANKS_PER_NODE knobs
/// (common/knobs.hpp).
struct GroupOptions {
  /// Per-collective deadline in ms; 0 waits forever (the default).
  std::optional<int64_t> timeout_ms;
  /// All-reduce schedule; ring (the bitwise-stable default), or kAuto
  /// for the AlgoTuner.
  std::optional<AllReduceAlgo> algo;
  /// Logical ranks per node for the hierarchical algorithm and the
  /// tuner's topology; 0 = flat (single node, the default).
  std::optional<int> ranks_per_node;
  /// Pinned tuner cost parameters (tests / simulation studies);
  /// unset -> CommCostParams::calibrated() when kAuto is in play.
  std::optional<CommCostParams> cost;
  /// A flat group running the `algo` it names (which must be set) with
  /// no deadline unless `timeout_ms` names one, whatever the env says.
  /// Set by the tuner's own calibration groups: under
  /// `DMIS_COMM_ALGO=auto` the env would otherwise turn their ring back
  /// into auto and recurse into the calibration constructing them.
  bool internal = false;
};

/// Why a collective failed.
enum class CommErrorKind {
  kTimeout,     ///< This rank's own per-collective deadline expired.
  kPeerFailed,  ///< A peer was reported dead / timed out; group poisoned.
  kAborted,     ///< Explicit abort(), or fenced out after the agreement.
};

const char* comm_error_kind_name(CommErrorKind kind);

/// Typed failure of a collective. Ranks blocked in a rendezvous when the
/// group is poisoned throw this instead of deadlocking.
class CommError : public Error {
 public:
  CommError(CommErrorKind kind, const std::string& what)
      : Error(what), kind_(kind) {}
  CommErrorKind kind() const { return kind_; }

 private:
  CommErrorKind kind_;
};

/// Per-rank liveness as observed through collective heartbeats.
enum class RankHealth : uint8_t {
  kHealthy,  ///< Beating normally.
  kSuspect,  ///< Missed a rendezvous deadline somebody else hit.
  kDead,     ///< Aborted itself, or condemned by the agreement round.
};

/// Completion handle for a nonblocking collective. Copyable (shared
/// state); wait() may be called from any thread, any number of times,
/// and in any order relative to other requests.
class AsyncRequest {
 public:
  AsyncRequest() = default;
  ~AsyncRequest();
  AsyncRequest(const AsyncRequest&) = default;
  AsyncRequest& operator=(const AsyncRequest&) = default;
  AsyncRequest(AsyncRequest&&) noexcept = default;
  AsyncRequest& operator=(AsyncRequest&&) noexcept = default;

  /// True if this handle refers to a submitted operation.
  bool valid() const { return state_ != nullptr; }

  /// True once the operation has completed (successfully or not).
  bool done() const;

  /// Blocks until the operation completes; rethrows any error the comm
  /// worker hit while executing it (e.g. common::FaultInjected, or
  /// CommError once the group is poisoned).
  void wait();

  struct State;  // defined in communicator.cpp

 private:
  friend class CollectiveContext;
  explicit AsyncRequest(std::shared_ptr<State> state);

  std::shared_ptr<State> state_;
};

/// Waits on every request (even after one fails, so no operation is
/// still touching caller buffers on return), then rethrows the first
/// error encountered in request order.
void wait_all(std::vector<AsyncRequest>& requests);

/// Shared rendezvous state for one group of ranks.
class CollectiveContext {
 public:
  /// The knobs resolve here, once.
  CollectiveContext(int size, const GroupOptions& options);
  ~CollectiveContext();

  CollectiveContext(const CollectiveContext&) = delete;
  CollectiveContext& operator=(const CollectiveContext&) = delete;

  int size() const { return size_; }

  /// Effective per-collective deadline in ms (0 = none).
  int64_t timeout_ms() const { return timeout_ms_; }

  /// Resolved all-reduce algorithm. kAuto means the tuner picks per
  /// message size.
  AllReduceAlgo algo() const { return algo_; }

  /// Effective ranks per node in [1, size]: size when flat.
  int ranks_per_node() const { return ranks_per_node_; }

  /// The tuner backing kAuto (constructed for any algo so callers can
  /// inspect predictions; choose() is only consulted under kAuto).
  const AlgoTuner& tuner() const { return *tuner_; }

  /// True once the group has been poisoned (sticky).
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  /// Health of `rank` as currently recorded.
  RankHealth health(int rank) const;

  /// Microsecond timestamp (obs::Tracer::now_us clock) of `rank`'s most
  /// recent collective heartbeat; 0 if it never entered a collective.
  /// The membership layer renews per-rank leases off this table.
  int64_t last_beat_us(int rank) const;

 private:
  friend class Communicator;
  friend class CollectiveOps;

  struct Task {
    std::function<void()> fn;
    std::shared_ptr<AsyncRequest::State> state;
  };
  struct RankQueue {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Task> tasks;
  };
  struct RankState {
    std::atomic<int64_t> last_beat_us{0};
    std::atomic<int64_t> ops{0};
    std::atomic<uint8_t> health{
        static_cast<uint8_t>(RankHealth::kHealthy)};
  };
  /// Per-collective deadline, computed once at collective entry and
  /// shared by every rendezvous of that collective.
  struct Deadline {
    std::chrono::steady_clock::time_point at;
    bool armed = false;
  };

  Deadline collective_deadline() const;

  /// Heartbeat: `rank` entered a collective.
  void beat(int rank);

  /// Abortable, deadline-aware barrier replacing std::barrier. Throws
  /// CommError on timeout (after poisoning the group) or when woken by
  /// a poison pill.
  void sync(const Deadline& deadline, int rank);

  /// Poisons the group: records kind/reason for ranks that wake out of
  /// a rendezvous, wakes them all, and makes every later collective
  /// fail fast. Idempotent — the first cause wins.
  void abort(CommErrorKind kind, const std::string& reason);

  /// Marks `rank` dead and poisons the group with kPeerFailed.
  void mark_failed(int rank, const std::string& why);

  /// Post-abort agreement round (see file comment). Returns the sealed
  /// dead-set (sorted rank ids); throws CommError{kAborted} if this
  /// rank was condemned before it arrived (fenced out).
  std::vector<int> agree_on_failures(int rank, int64_t grace_ms);

  [[noreturn]] void throw_poisoned_locked() const;

  /// Rank health table as a JSON object (flight-recorder provider).
  std::string render_health_json() const;

  /// Starts the per-rank comm workers (idempotent, thread-safe).
  void ensure_workers();
  /// True once workers have started; acquire pairs with the release in
  /// ensure_workers so a rank that observes true also sees the queues.
  bool workers_active() const {
    return workers_active_.load(std::memory_order_acquire);
  }
  /// Enqueues `fn` on `rank`'s worker; returns the completion handle.
  AsyncRequest submit(int rank, std::function<void()> fn);
  void worker_loop(int rank);

  int size_;
  int64_t timeout_ms_ = 0;
  AllReduceAlgo algo_ = AllReduceAlgo::kRing;
  int ranks_per_node_ = 1;  // effective: in [1, size_]
  std::unique_ptr<AlgoTuner> tuner_;
  std::vector<float*> ptrs_;          // per-rank buffer registration
  std::vector<const float*> cptrs_;   // per-rank const registration
  std::vector<size_t> sizes_;

  // Rendezvous state (the abortable barrier).
  mutable std::mutex barrier_mutex_;
  std::condition_variable barrier_cv_;
  int arrived_ = 0;
  uint64_t generation_ = 0;
  int64_t sync_ops_ = 0;  // op-seq of the current rendezvous (see sync())
  std::atomic<bool> aborted_{false};
  CommErrorKind abort_kind_ = CommErrorKind::kAborted;  // barrier_mutex_
  std::string abort_reason_;                            // barrier_mutex_

  // Health table; entries are written under barrier_mutex_ or by the
  // owning rank (beat), read lock-free.
  std::vector<RankState> rank_state_;

  // Agreement round state.
  std::mutex agree_mutex_;
  std::condition_variable agree_cv_;
  std::vector<bool> agree_joined_;
  bool agree_sealed_ = false;
  std::vector<int> agreed_dead_;

  std::once_flag workers_once_;
  std::atomic<bool> workers_active_{false};
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<RankQueue>> queues_;
  std::vector<std::thread> workers_;

  // Flight-recorder integration: the group publishes its rank health
  // table ("comm.group<id>") for crash dumps.
  int group_id_ = 0;
  int flight_token_ = -1;
};

/// One rank's view of one in-flight collective — the surface an
/// AllReduceStrategy builds on. Constructed by the Communicator after
/// the registration rendezvous, so peer() pointers are already valid.
/// Every strategy step must end with sync(); the strategy's final sync
/// is what licenses ranks to leave (no peer reads a buffer after it).
class CollectiveOps {
 public:
  int rank() const { return rank_; }
  int world() const { return ctx_->size(); }
  int ranks_per_node() const { return ctx_->ranks_per_node(); }

  /// This rank's registered buffer.
  float* mine() const { return ctx_->ptrs_[static_cast<size_t>(rank_)]; }
  /// Rank r's registered buffer (valid between syncs).
  const float* peer(int r) const {
    return ctx_->ptrs_[static_cast<size_t>(r)];
  }
  /// Element count (identical on every rank — checked at entry).
  size_t len() const { return ctx_->sizes_[static_cast<size_t>(rank_)]; }

  /// Global deadline-aware barrier over all world() ranks.
  void sync() { ctx_->sync(deadline_, rank_); }

 private:
  friend class Communicator;
  CollectiveOps(CollectiveContext* ctx, int rank,
                CollectiveContext::Deadline deadline)
      : ctx_(ctx), rank_(rank), deadline_(deadline) {}

  CollectiveContext* ctx_;
  int rank_;
  CollectiveContext::Deadline deadline_;
};

/// One rank's handle onto the group.
class Communicator {
 public:
  Communicator(std::shared_ptr<CollectiveContext> ctx, int rank);

  int rank() const { return rank_; }
  int size() const { return ctx_->size(); }

  /// Per-collective deadline in ms (0 = none).
  int64_t timeout_ms() const { return ctx_->timeout_ms(); }

  /// Resolved all-reduce algorithm (kAuto = tuner picks per message).
  AllReduceAlgo algo() const { return ctx_->algo(); }

  /// Effective topology: ranks per node in [1, size] (size when flat).
  int ranks_per_node() const { return ctx_->ranks_per_node(); }

  /// The tuner backing kAuto (also inspectable under fixed algorithms).
  const AlgoTuner& tuner() const { return ctx_->tuner(); }

  /// True once the group has been poisoned.
  bool aborted() const { return ctx_->aborted(); }

  /// Health of `rank` as observed through collective heartbeats.
  RankHealth health(int rank) const { return ctx_->health(rank); }

  /// Timestamp (µs) of `rank`'s last collective heartbeat (0 = never).
  int64_t last_beat_us(int rank) const { return ctx_->last_beat_us(rank); }

  /// Poison pill: marks this rank dead, wakes every rank blocked in a
  /// collective (they throw CommError{kPeerFailed}) and makes all later
  /// collectives on this group fail fast. Call when this rank is about
  /// to die so failure propagates instead of deadlocking the ring.
  void abort(const std::string& reason);

  /// After the group is poisoned: joins the survivor agreement round
  /// and returns the sealed set of dead ranks (identical on every
  /// surviving caller). Waits at most `grace_ms` for peers to register
  /// before condemning them. Throws CommError{kAborted} if this rank
  /// was itself condemned (fenced out) — the caller must treat itself
  /// as dead.
  std::vector<int> agree_on_failures(int64_t grace_ms = 250);

  /// Blocks until every rank has arrived.
  void barrier();

  /// Copies root's buffer into every rank's buffer (sizes must match).
  void broadcast(std::span<float> data, int root);

  /// Element-wise sum across ranks; every rank ends with the total.
  /// Chunked ring algorithm (reduce-scatter + all-gather).
  void all_reduce_sum(std::span<float> data);

  /// all_reduce_sum followed by division by the group size — the
  /// gradient-averaging form used by data-parallel training. The
  /// division is fused into the final reduce-scatter step (each chunk
  /// is scaled once by its owning rank before the all-gather phase
  /// propagates it), so no extra pass over the buffer is made.
  void all_reduce_mean(std::span<float> data);

  /// Nonblocking all_reduce_sum: enqueues the ring on this rank's comm
  /// worker and returns immediately. `data` must stay alive and
  /// untouched until wait() returns. `scale` is folded into the ring
  /// exactly as in all_reduce_mean (every element of the result is the
  /// group sum times `scale`); all ranks must pass the same value.
  /// `wire` selects the element encoding of `data` (compress.hpp):
  /// under kFp16 the buffer holds packed half pairs and every reduction
  /// step decodes/adds in fp32 and rounds once back to the wire.
  AsyncRequest all_reduce_sum_async(std::span<float> data,
                                    float scale = 1.0F,
                                    WireFormat wire = WireFormat::kFp32);

  /// Group launch: one submission covering several buffers, reduced
  /// back-to-back by the comm worker in the given order under a single
  /// completion handle — the fused-bucket form used by GradBucketer.
  AsyncRequest all_reduce_sum_async(std::vector<std::span<float>> buffers,
                                    float scale = 1.0F,
                                    WireFormat wire = WireFormat::kFp32);

  /// Sums every rank's buffer into root's buffer (others unchanged).
  void reduce_sum(std::span<float> data, int root);

  /// Concatenates every rank's buffer in rank order; all ranks receive
  /// the full result. Buffers may have different lengths.
  std::vector<float> all_gather(std::span<const float> data);

 private:
  /// Common all-reduce entry: fault point, metrics/span, heartbeat,
  /// registration rendezvous, then dispatch to the resolved strategy
  /// (kAuto consults the tuner per message size and wire format).
  /// `scale` != 1 is folded into each element's final accumulation
  /// (mean fusion, in the wire's arithmetic).
  void all_reduce_impl(std::span<float> data, float scale,
                       WireFormat wire = WireFormat::kFp32);
  void broadcast_impl(std::span<float> data, int root);
  void reduce_sum_impl(std::span<float> data, int root);
  std::vector<float> all_gather_impl(std::span<const float> data);

  /// Runs a collective body in per-rank program order: directly while
  /// the context has no comm workers, through this rank's worker queue
  /// (submit + wait) once it does.
  void run_ordered(std::function<void()> fn);

  std::shared_ptr<CollectiveContext> ctx_;
  int rank_;
};

/// Creates one communicator per rank over a fresh shared context.
/// `timeout_ms` is the per-collective deadline (GroupOptions).
std::vector<Communicator> make_group(int size,
                                     std::optional<int64_t> timeout_ms = {});

/// Same, with the full knob set (algorithm, topology, tuner params).
std::vector<Communicator> make_group(int size, const GroupOptions& options);

}  // namespace dmis::comm
