#include "comm/communicator.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/fault_injector.hpp"
#include "common/knobs.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dmis::comm {
namespace {

// Failure points sit at collective *entry*, before the rank touches the
// rendezvous barrier — mirroring a NIC/NCCL fault detected when the
// operation is issued. Like the real thing, a rank that dies mid-group
// leaves its peers blocked (until a deadline fires, with
// DMIS_COMM_TIMEOUT_MS set), so lockstep chaos tests arm these points so
// that every rank of the group fails the same call (e.g. probability
// 1.0), while rank-scoped points (`comm.all_reduce.r<k>`) kill exactly
// one rank to exercise timeout/abort propagation. On the async path the
// point fires inside the comm worker, and the error surfaces from
// AsyncRequest::wait().
void inject(const char* point, int rank) {
  common::FaultInjector::instance().maybe_fail(point, rank);
}

struct CommMetrics {
  obs::Counter& allreduce_calls;
  obs::Counter& allreduce_bytes;
  obs::Counter& broadcast_bytes;
  obs::Counter& all_gather_bytes;
  obs::Counter& async_submissions;
  obs::Counter& timeouts;
  obs::Counter& aborts;
  obs::Counter& fenced;
  obs::Counter& algo_ring;
  obs::Counter& algo_tree;
  obs::Counter& algo_hier;
  obs::Gauge& async_inflight;
  obs::Histogram& barrier_wait_us;

  static CommMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static CommMetrics m{reg.counter("comm.allreduce_calls"),
                         reg.counter("comm.allreduce_bytes"),
                         reg.counter("comm.broadcast_bytes"),
                         reg.counter("comm.all_gather_bytes"),
                         reg.counter("comm.async.submissions"),
                         reg.counter("comm.timeouts"),
                         reg.counter("comm.aborts"),
                         reg.counter("comm.fenced"),
                         reg.counter("comm.allreduce.algo.ring"),
                         reg.counter("comm.allreduce.algo.tree"),
                         reg.counter("comm.allreduce.algo.hier"),
                         reg.gauge("comm.async.inflight"),
                         reg.histogram("comm.barrier_wait_us")};
    return m;
  }

  obs::Counter& algo_calls(AllReduceAlgo algo) {
    switch (algo) {
      case AllReduceAlgo::kTree: return algo_tree;
      case AllReduceAlgo::kHier: return algo_hier;
      default: return algo_ring;
    }
  }
};

// Global in-flight async-collective count behind the comm.async.inflight
// gauge. A last-write-wins gauge fed from racing fetch_add/fetch_sub
// pairs could publish a stale value after the queues drain, so the
// count-and-set runs under one process-wide mutex (submission rate is
// per-bucket, not per-element — the lock is cold).
void note_async_inflight(int64_t delta) {
  static std::mutex mutex;
  static int64_t inflight = 0;
  std::lock_guard<std::mutex> lock(mutex);
  inflight += delta;
  CommMetrics::get().async_inflight.set(static_cast<double>(inflight));
}

}  // namespace

const char* comm_error_kind_name(CommErrorKind kind) {
  switch (kind) {
    case CommErrorKind::kTimeout: return "timeout";
    case CommErrorKind::kPeerFailed: return "peer_failed";
    case CommErrorKind::kAborted: return "aborted";
  }
  return "?";
}

struct AsyncRequest::State {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr error;

  void complete(std::exception_ptr err) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      done = true;
      error = std::move(err);
    }
    cv.notify_all();
  }
};

AsyncRequest::AsyncRequest(std::shared_ptr<State> state)
    : state_(std::move(state)) {}

AsyncRequest::~AsyncRequest() = default;

bool AsyncRequest::done() const {
  DMIS_CHECK(state_ != nullptr, "done() on an empty AsyncRequest");
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

void AsyncRequest::wait() {
  DMIS_CHECK(state_ != nullptr, "wait() on an empty AsyncRequest");
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
  if (state_->error) std::rethrow_exception(state_->error);
}

void wait_all(std::vector<AsyncRequest>& requests) {
  std::exception_ptr first;
  for (AsyncRequest& req : requests) {
    try {
      req.wait();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

CollectiveContext::CollectiveContext(int size, const GroupOptions& options)
    : size_(size),
      ranks_per_node_(size),
      ptrs_(static_cast<size_t>(size), nullptr),
      cptrs_(static_cast<size_t>(size), nullptr),
      sizes_(static_cast<size_t>(size), 0),
      rank_state_(static_cast<size_t>(size)),
      agree_joined_(static_cast<size_t>(size), false) {
  DMIS_CHECK(size >= 1, "communicator group needs >= 1 rank, got " << size);
  if (options.internal) {
    // The tuner's calibration probes skip the env: DMIS_COMM_ALGO=auto
    // would recurse into the calibration constructing them.
    timeout_ms_ = options.timeout_ms.value_or(0);
    algo_ = options.algo.value();
  } else {
    timeout_ms_ = knobs::get<int64_t>(Knob::kCommTimeoutMs, options.timeout_ms);
    algo_ = knobs::get<AllReduceAlgo>(Knob::kCommAlgo, options.algo);
    const int rpn =
        knobs::get<int>(Knob::kCommRanksPerNode, options.ranks_per_node);
    if (rpn > 0 && rpn < size) ranks_per_node_ = rpn;
  }
  // The tuner only pays for calibration when auto is actually in play
  // (calibration itself builds a throwaway ring group — a concrete
  // algorithm here is what keeps that from recursing).
  const CommCostParams cost =
      options.cost.has_value()
          ? *options.cost
          : (algo_ == AllReduceAlgo::kAuto ? CommCostParams::calibrated()
                                           : CommCostParams::defaults());
  tuner_ = std::make_unique<AlgoTuner>(cost, size, ranks_per_node_);
  queues_.reserve(static_cast<size_t>(size));
  for (int r = 0; r < size; ++r) {
    queues_.push_back(std::make_unique<RankQueue>());
  }
  static std::atomic<int> next_group_id{0};
  group_id_ = next_group_id.fetch_add(1, std::memory_order_relaxed);
  flight_token_ = obs::FlightRecorder::instance().register_health_provider(
      "comm.group" + std::to_string(group_id_),
      [this] { return render_health_json(); });
}

CollectiveContext::~CollectiveContext() {
  obs::FlightRecorder::instance().unregister_health_provider(flight_token_);
  if (!workers_active_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  for (auto& q : queues_) q->cv.notify_all();
  for (auto& w : workers_) w.join();
}

std::string CollectiveContext::render_health_json() const {
  const char* names[] = {"healthy", "suspect", "dead"};
  std::ostringstream os;
  os << "{\"size\":" << size_
     << ",\"aborted\":" << (aborted() ? "true" : "false") << ",\"ranks\":[";
  for (int r = 0; r < size_; ++r) {
    const RankState& rs = rank_state_[static_cast<size_t>(r)];
    const uint8_t h = rs.health.load(std::memory_order_acquire);
    if (r > 0) os << ',';
    os << "{\"rank\":" << r << ",\"health\":\""
       << names[h < 3 ? h : 2] << "\",\"ops\":"
       << rs.ops.load(std::memory_order_acquire) << ",\"last_beat_us\":"
       << rs.last_beat_us.load(std::memory_order_relaxed) << '}';
  }
  os << "]}";
  return os.str();
}

RankHealth CollectiveContext::health(int rank) const {
  DMIS_CHECK(rank >= 0 && rank < size_, "bad rank " << rank);
  return static_cast<RankHealth>(
      rank_state_[static_cast<size_t>(rank)].health.load(
          std::memory_order_acquire));
}

int64_t CollectiveContext::last_beat_us(int rank) const {
  DMIS_CHECK(rank >= 0 && rank < size_, "bad rank " << rank);
  return rank_state_[static_cast<size_t>(rank)].last_beat_us.load(
      std::memory_order_relaxed);
}

CollectiveContext::Deadline CollectiveContext::collective_deadline() const {
  Deadline d;
  if (timeout_ms_ > 0) {
    d.at = std::chrono::steady_clock::now() +
           std::chrono::milliseconds(timeout_ms_);
    d.armed = true;
  }
  return d;
}

void CollectiveContext::beat(int rank) {
  RankState& rs = rank_state_[static_cast<size_t>(rank)];
  rs.last_beat_us.store(obs::Tracer::now_us(), std::memory_order_relaxed);
  rs.ops.fetch_add(1, std::memory_order_release);
}

void CollectiveContext::throw_poisoned_locked() const {
  throw CommError(abort_kind_, "collective group poisoned (" +
                                   std::string(comm_error_kind_name(
                                       abort_kind_)) +
                                   "): " + abort_reason_);
}

void CollectiveContext::sync(const Deadline& deadline, int rank) {
  std::unique_lock<std::mutex> lock(barrier_mutex_);
  if (aborted_.load(std::memory_order_relaxed)) throw_poisoned_locked();
  // The heartbeat op counter doubles as a collective sequence number:
  // every rank of one rendezvous must be on the same collective. A rank
  // that failed a collective at entry (never beat) and went on to the
  // next one would otherwise complete a rendezvous its peers are still
  // holding for the *previous* collective — with mismatched buffers.
  // Detect the desync here and poison the group instead of corrupting.
  const int64_t my_ops =
      rank_state_[static_cast<size_t>(rank)].ops.load(
          std::memory_order_relaxed);
  if (arrived_ == 0) {
    sync_ops_ = my_ops;
  } else if (my_ops != sync_ops_) {
    const std::string reason =
        "collective sequence mismatch: rank " + std::to_string(rank) +
        " is at op " + std::to_string(my_ops) +
        " while the rendezvous is for op " + std::to_string(sync_ops_) +
        " (a rank lost a collective)";
    abort_kind_ = CommErrorKind::kPeerFailed;
    abort_reason_ = reason;
    aborted_.store(true, std::memory_order_release);
    CommMetrics::get().aborts.add(1);
    lock.unlock();
    barrier_cv_.notify_all();
    agree_cv_.notify_all();
    obs::FlightRecorder::instance().dump("comm.abort.desync");
    throw CommError(CommErrorKind::kPeerFailed, reason);
  }
  const uint64_t gen = generation_;
  if (++arrived_ == size_) {
    arrived_ = 0;
    ++generation_;
    lock.unlock();
    barrier_cv_.notify_all();
    return;
  }
  for (;;) {
    if (!deadline.armed) {
      barrier_cv_.wait(lock);
    } else if (barrier_cv_.wait_until(lock, deadline.at) ==
               std::cv_status::timeout) {
      if (generation_ != gen) return;  // released at the buzzer
      if (!aborted_.load(std::memory_order_relaxed)) {
        // This rank's deadline expired first: condemn the laggards —
        // every rank whose heartbeat op-count is behind ours never even
        // entered this collective — and poison the group.
        CommMetrics::get().timeouts.add(1);
        const int64_t my_ops =
            rank_state_[static_cast<size_t>(rank)].ops.load(
                std::memory_order_acquire);
        std::ostringstream suspects;
        for (int r = 0; r < size_; ++r) {
          if (r == rank) continue;
          RankState& rs = rank_state_[static_cast<size_t>(r)];
          if (rs.ops.load(std::memory_order_acquire) < my_ops) {
            uint8_t healthy =
                static_cast<uint8_t>(RankHealth::kHealthy);
            rs.health.compare_exchange_strong(
                healthy, static_cast<uint8_t>(RankHealth::kSuspect),
                std::memory_order_acq_rel);
            suspects << ' ' << r;
          }
        }
        const std::string who = suspects.str();
        abort_kind_ = CommErrorKind::kPeerFailed;
        abort_reason_ = "rank " + std::to_string(rank) +
                        " timed out after " + std::to_string(timeout_ms_) +
                        " ms in a collective rendezvous" +
                        (who.empty() ? std::string(
                                           " (no laggard identified)")
                                     : "; suspect rank(s):" + who);
        aborted_.store(true, std::memory_order_release);
        CommMetrics::get().aborts.add(1);
        lock.unlock();
        barrier_cv_.notify_all();
        obs::FlightRecorder::instance().dump("comm.abort.timeout");
        throw CommError(CommErrorKind::kTimeout,
                        "collective deadline of " +
                            std::to_string(timeout_ms_) +
                            " ms expired on rank " + std::to_string(rank) +
                            (who.empty() ? "" : "; suspect rank(s):" + who));
      }
    }
    if (generation_ != gen) return;
    if (aborted_.load(std::memory_order_relaxed)) throw_poisoned_locked();
  }
}

void CollectiveContext::abort(CommErrorKind kind, const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(barrier_mutex_);
    if (aborted_.load(std::memory_order_relaxed)) return;  // first wins
    abort_kind_ = kind;
    abort_reason_ = reason;
    aborted_.store(true, std::memory_order_release);
    CommMetrics::get().aborts.add(1);
  }
  barrier_cv_.notify_all();
  agree_cv_.notify_all();
  // After the locks are gone: a fatal group poisoning is exactly the
  // moment the flight recorder exists for.
  obs::FlightRecorder::instance().dump("comm.abort");
}

void CollectiveContext::mark_failed(int rank, const std::string& why) {
  rank_state_[static_cast<size_t>(rank)].health.store(
      static_cast<uint8_t>(RankHealth::kDead), std::memory_order_release);
  abort(CommErrorKind::kPeerFailed,
        "rank " + std::to_string(rank) + " failed: " + why);
}

std::vector<int> CollectiveContext::agree_on_failures(int rank,
                                                      int64_t grace_ms) {
  DMIS_CHECK(aborted(), "agree_on_failures() before the group was "
                        "poisoned — survivors only agree after an abort");
  std::unique_lock<std::mutex> lock(agree_mutex_);
  RankState& self = rank_state_[static_cast<size_t>(rank)];
  if (agree_sealed_ || self.health.load(std::memory_order_acquire) ==
                           static_cast<uint8_t>(RankHealth::kDead)) {
    // Arrived after the seal (or already condemned): fenced out.
    if (!agree_sealed_ ||
        std::find(agreed_dead_.begin(), agreed_dead_.end(), rank) !=
            agreed_dead_.end()) {
      CommMetrics::get().fenced.add(1);
      throw CommError(CommErrorKind::kAborted,
                      "rank " + std::to_string(rank) +
                          " fenced out of the group (arrived after the "
                          "failure agreement sealed)");
    }
    return agreed_dead_;  // sealed as a survivor before we re-asked
  }
  // Register alive; a suspect that makes it here in time is exonerated.
  agree_joined_[static_cast<size_t>(rank)] = true;
  uint8_t suspect = static_cast<uint8_t>(RankHealth::kSuspect);
  self.health.compare_exchange_strong(
      suspect, static_cast<uint8_t>(RankHealth::kHealthy),
      std::memory_order_acq_rel);
  agree_cv_.notify_all();

  const auto covered = [&] {
    for (int r = 0; r < size_; ++r) {
      if (agree_joined_[static_cast<size_t>(r)]) continue;
      if (rank_state_[static_cast<size_t>(r)].health.load(
              std::memory_order_acquire) ==
          static_cast<uint8_t>(RankHealth::kHealthy)) {
        return false;
      }
    }
    return true;
  };

  const auto grace_deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(grace_ms);
  while (!agree_sealed_) {
    if (covered()) {
      // Seal: everyone not registered by now is dead — suspects and
      // self-reported failures alike.
      agreed_dead_.clear();
      for (int r = 0; r < size_; ++r) {
        if (agree_joined_[static_cast<size_t>(r)]) continue;
        rank_state_[static_cast<size_t>(r)].health.store(
            static_cast<uint8_t>(RankHealth::kDead),
            std::memory_order_release);
        agreed_dead_.push_back(r);
      }
      agree_sealed_ = true;
      agree_cv_.notify_all();
      break;
    }
    if (agree_cv_.wait_until(lock, grace_deadline) ==
        std::cv_status::timeout) {
      if (agree_sealed_) break;
      // Grace expired: condemn everyone still missing, healthy or not.
      for (int r = 0; r < size_; ++r) {
        if (agree_joined_[static_cast<size_t>(r)]) continue;
        rank_state_[static_cast<size_t>(r)].health.store(
            static_cast<uint8_t>(RankHealth::kDead),
            std::memory_order_release);
      }
      // Loop re-evaluates covered() — now true — and seals.
    }
  }
  return agreed_dead_;
}

void CollectiveContext::ensure_workers() {
  std::call_once(workers_once_, [&] {
    workers_.reserve(static_cast<size_t>(size_));
    for (int r = 0; r < size_; ++r) {
      workers_.emplace_back([this, r] { worker_loop(r); });
    }
    workers_active_.store(true, std::memory_order_release);
  });
}

AsyncRequest CollectiveContext::submit(int rank, std::function<void()> fn) {
  ensure_workers();
  auto state = std::make_shared<AsyncRequest::State>();
  CommMetrics::get().async_submissions.add(1);
  note_async_inflight(+1);
  auto& q = *queues_[static_cast<size_t>(rank)];
  {
    std::lock_guard<std::mutex> lock(q.mutex);
    q.tasks.push_back(Task{std::move(fn), state});
  }
  q.cv.notify_one();
  return AsyncRequest(state);
}

void CollectiveContext::worker_loop(int rank) {
  auto& q = *queues_[static_cast<size_t>(rank)];
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(q.mutex);
      q.cv.wait(lock, [&] {
        return !q.tasks.empty() || stopping_.load(std::memory_order_acquire);
      });
      // Drain everything already submitted before honoring a stop, so a
      // group torn down right after its last wait() completes cleanly.
      if (q.tasks.empty()) return;
      task = std::move(q.tasks.front());
      q.tasks.pop_front();
    }
    std::exception_ptr err;
    try {
      task.fn();
    } catch (...) {
      err = std::current_exception();
    }
    note_async_inflight(-1);
    task.state->complete(std::move(err));
  }
}

Communicator::Communicator(std::shared_ptr<CollectiveContext> ctx, int rank)
    : ctx_(std::move(ctx)), rank_(rank) {
  DMIS_CHECK(ctx_ != nullptr, "null collective context");
  DMIS_CHECK(rank >= 0 && rank < ctx_->size(),
             "rank " << rank << " out of range for group of "
                     << ctx_->size());
}

void Communicator::abort(const std::string& reason) {
  ctx_->mark_failed(rank_, reason);
}

std::vector<int> Communicator::agree_on_failures(int64_t grace_ms) {
  return ctx_->agree_on_failures(rank_, grace_ms);
}

void Communicator::run_ordered(std::function<void()> fn) {
  // Once comm workers exist, every collective of this rank must pass
  // through its FIFO queue: per-rank barrier arrivals then follow
  // submission order, which keeps rendezvous matched even when async
  // and blocking collectives interleave.
  if (ctx_->workers_active()) {
    ctx_->submit(rank_, std::move(fn)).wait();
  } else {
    fn();
  }
}

void Communicator::barrier() {
  run_ordered([this] {
    DMIS_TRACE_SPAN("comm.barrier");
    ctx_->beat(rank_);
    const int64_t t0 = obs::Tracer::now_us();
    ctx_->sync(ctx_->collective_deadline(), rank_);
    CommMetrics::get().barrier_wait_us.observe(
        static_cast<double>(obs::Tracer::now_us() - t0));
  });
}

void Communicator::broadcast(std::span<float> data, int root) {
  run_ordered([this, data, root] { broadcast_impl(data, root); });
}

void Communicator::broadcast_impl(std::span<float> data, int root) {
  inject("comm.broadcast", rank_);
  DMIS_TRACE_SPAN("comm.broadcast",
                  {{"bytes", static_cast<int64_t>(data.size() *
                                                  sizeof(float))},
                   {"root", root}});
  CommMetrics::get().broadcast_bytes.add(
      static_cast<int64_t>(data.size() * sizeof(float)));
  DMIS_CHECK(root >= 0 && root < size(), "bad broadcast root " << root);
  auto& ctx = *ctx_;
  ctx.beat(rank_);
  const auto deadline = ctx.collective_deadline();
  ctx.ptrs_[static_cast<size_t>(rank_)] = data.data();
  ctx.sizes_[static_cast<size_t>(rank_)] = data.size();
  ctx.sync(deadline, rank_);
  DMIS_CHECK(ctx.sizes_[static_cast<size_t>(root)] == data.size(),
             "broadcast size mismatch: root has "
                 << ctx.sizes_[static_cast<size_t>(root)] << ", rank "
                 << rank_ << " has " << data.size());
  if (rank_ != root) {
    const float* src = ctx.ptrs_[static_cast<size_t>(root)];
    std::memcpy(data.data(), src, data.size() * sizeof(float));
  }
  ctx.sync(deadline, rank_);
}

void Communicator::all_reduce_sum(std::span<float> data) {
  run_ordered([this, data] { all_reduce_impl(data, 1.0F); });
}

void Communicator::all_reduce_mean(std::span<float> data) {
  const float inv = 1.0F / static_cast<float>(size());
  run_ordered([this, data, inv] { all_reduce_impl(data, inv); });
}

AsyncRequest Communicator::all_reduce_sum_async(std::span<float> data,
                                                float scale,
                                                WireFormat wire) {
  return ctx_->submit(rank_, [this, data, scale, wire] {
    all_reduce_impl(data, scale, wire);
  });
}

AsyncRequest Communicator::all_reduce_sum_async(
    std::vector<std::span<float>> buffers, float scale, WireFormat wire) {
  return ctx_->submit(rank_,
                      [this, buffers = std::move(buffers), scale, wire] {
    for (const std::span<float> data : buffers) {
      all_reduce_impl(data, scale, wire);
    }
  });
}

void Communicator::all_reduce_impl(std::span<float> data, float scale,
                                   WireFormat wire) {
  inject("comm.all_reduce", rank_);
  const int n = size();
  // Auto resolves here, per message: choose() is a pure function of the
  // byte count and wire format on an immutable tuner, so every SPMD
  // rank lands on the same schedule without communicating about it.
  AllReduceAlgo algo = ctx_->algo();
  if (algo == AllReduceAlgo::kAuto) {
    algo = ctx_->tuner().choose(data.size() * sizeof(float), wire);
  }
  DMIS_TRACE_SPAN("comm.allreduce",
                  {{"bytes", static_cast<int64_t>(data.size() *
                                                  sizeof(float))},
                   {"ranks", n},
                   {"algo", static_cast<int64_t>(algo)},
                   {"wire", static_cast<int64_t>(wire)}});
  CommMetrics& metrics = CommMetrics::get();
  metrics.allreduce_calls.add(1);
  // data.size() is the *wire* length — under compression this counter
  // reports the bytes peers actually pull, which is what the bench's
  // bytes-on-wire gate measures.
  metrics.allreduce_bytes.add(
      static_cast<int64_t>(data.size() * sizeof(float)));
  metrics.algo_calls(algo).add(1);
  if (n == 1) {
    if (scale != 1.0F) {
      wire_kernels(wire).scale(data.data(), 0, data.size(), scale);
    }
    return;
  }
  auto& ctx = *ctx_;
  ctx.beat(rank_);
  const auto deadline = ctx.collective_deadline();
  ctx.ptrs_[static_cast<size_t>(rank_)] = data.data();
  ctx.sizes_[static_cast<size_t>(rank_)] = data.size();
  ctx.sync(deadline, rank_);
  DMIS_CHECK(ctx.sizes_[0] == data.size(),
             "all_reduce size mismatch: rank 0 has " << ctx.sizes_[0]
                                                     << ", rank " << rank_
                                                     << " has " << data.size());
  CollectiveOps ops(&ctx, rank_, deadline);
  strategy_for(algo).run(ops, data, scale, wire);
}

void Communicator::reduce_sum(std::span<float> data, int root) {
  run_ordered([this, data, root] { reduce_sum_impl(data, root); });
}

void Communicator::reduce_sum_impl(std::span<float> data, int root) {
  inject("comm.reduce", rank_);
  DMIS_TRACE_SPAN("comm.reduce",
                  {{"bytes", static_cast<int64_t>(data.size() *
                                                  sizeof(float))},
                   {"root", root}});
  DMIS_CHECK(root >= 0 && root < size(), "bad reduce root " << root);
  auto& ctx = *ctx_;
  ctx.beat(rank_);
  const auto deadline = ctx.collective_deadline();
  ctx.ptrs_[static_cast<size_t>(rank_)] = data.data();
  ctx.sizes_[static_cast<size_t>(rank_)] = data.size();
  ctx.sync(deadline, rank_);
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      DMIS_CHECK(ctx.sizes_[static_cast<size_t>(r)] == data.size(),
                 "reduce size mismatch at rank " << r);
      const float* src = ctx.ptrs_[static_cast<size_t>(r)];
      for (size_t k = 0; k < data.size(); ++k) data[k] += src[k];
    }
  }
  ctx.sync(deadline, rank_);
}

std::vector<float> Communicator::all_gather(std::span<const float> data) {
  std::vector<float> out;
  run_ordered([this, data, &out] { out = all_gather_impl(data); });
  return out;
}

std::vector<float> Communicator::all_gather_impl(
    std::span<const float> data) {
  inject("comm.all_gather", rank_);
  DMIS_TRACE_SPAN("comm.all_gather",
                  {{"bytes", static_cast<int64_t>(data.size() *
                                                  sizeof(float))}});
  CommMetrics::get().all_gather_bytes.add(
      static_cast<int64_t>(data.size() * sizeof(float)));
  auto& ctx = *ctx_;
  ctx.beat(rank_);
  const auto deadline = ctx.collective_deadline();
  ctx.cptrs_[static_cast<size_t>(rank_)] = data.data();
  ctx.sizes_[static_cast<size_t>(rank_)] = data.size();
  ctx.sync(deadline, rank_);
  size_t total = 0;
  for (int r = 0; r < size(); ++r) total += ctx.sizes_[static_cast<size_t>(r)];
  std::vector<float> out;
  out.reserve(total);
  for (int r = 0; r < size(); ++r) {
    const float* src = ctx.cptrs_[static_cast<size_t>(r)];
    out.insert(out.end(), src, src + ctx.sizes_[static_cast<size_t>(r)]);
  }
  ctx.sync(deadline, rank_);
  return out;
}

std::vector<Communicator> make_group(int size,
                                     std::optional<int64_t> timeout_ms) {
  GroupOptions options;
  options.timeout_ms = timeout_ms;
  return make_group(size, options);
}

std::vector<Communicator> make_group(int size, const GroupOptions& options) {
  auto ctx = std::make_shared<CollectiveContext>(size, options);
  std::vector<Communicator> comms;
  comms.reserve(static_cast<size_t>(size));
  for (int r = 0; r < size; ++r) comms.emplace_back(ctx, r);
  return comms;
}

}  // namespace dmis::comm
