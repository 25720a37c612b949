// Multi-threaded segmentation serving with robustness semantics.
//
// SegmentationServer wraps core::SegmentationService in the deployment
// shape the north star demands: a bounded request queue feeding a pool
// of worker threads (N model instances sharing one checkpoint load),
// per-request deadlines enforced by a dedicated reaper thread,
// admission control and load shedding, a health/circuit-breaker state
// machine, and graceful drain on shutdown.
//
// Contract: submit() either returns a future or throws a ServeError
// (kQueueFull, kShedding, kBadInput). An admitted request's future
// resolves to exactly one of a SegmentationResult or a ServeError
// (kDeadlineExceeded, kBadInput, kBackendFailed) — and when the
// request carries a deadline, it resolves no later than that deadline
// even if the worker processing it is hung: the reaper settles the
// future and the worker's late result is discarded. Worker crashes
// (any exception escaping the backend) fail only the request being
// processed; the worker thread survives and keeps serving.
//
// Health state machine: kHealthy -> kDegraded after
// `breaker_trip_failures` consecutive backend failures; while degraded
// the breaker admits one probe request at a time and sheds the rest;
// `breaker_recovery_successes` consecutive successes close the breaker.
// kDraining (entered via drain()/destruction) rejects all new arrivals
// with kShedding and completes in-flight work. Deadline misses are
// load signals, not backend failures — they never trip the breaker.
//
// Knobs: DMIS_SERVE_{WORKERS,QUEUE,DEADLINE_MS,VOXEL_BUDGET}, the
// ServeOptions fields of the same meaning (common/knobs.hpp).
//
// Fault points (common::FaultInjector): serve.queue (admission),
// serve.worker (request pickup; rank-scoped by worker id),
// serve.infer (before each forward pass / tile), and
// serve.infer.corrupt (scribbles NaN into the produced probabilities,
// which output validation converts into kBackendFailed).
//
// Observability: counters serve.accepted/shed/timeouts/errors/
// completed/discarded, serve.breaker.trips/recoveries, gauges
// serve.queue_depth and serve.health (0 healthy / 1 degraded /
// 2 draining), histogram serve.latency_ms, spans serve.request
// (enqueue -> settle) and serve.infer.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/knobs.hpp"
#include "core/serve.hpp"
#include "serve/error.hpp"

namespace dmis::serve {

enum class HealthState {
  kHealthy = 0,
  kDegraded = 1,
  kDraining = 2,
};

const char* health_state_name(HealthState state);

struct ServeOptions {
  int num_workers = knobs::default_value<int>(Knob::kServeWorkers);
  int64_t queue_capacity = knobs::default_value<int64_t>(Knob::kServeQueue);
  /// Default deadline applied to requests that do not set one;
  /// 0 = no deadline.
  int64_t default_deadline_ms =
      knobs::default_value<int64_t>(Knob::kServeDeadlineMs);
  /// Spatial voxel budget above which sliding-window inference is used;
  /// 0 = always full-volume.
  int64_t full_volume_voxel_budget =
      knobs::default_value<int64_t>(Knob::kServeVoxelBudget);
  nn::SlidingWindowOptions sliding_window;
  /// Shed a deadline-carrying request at admission when the estimated
  /// queue wait (depth x EMA latency / workers) already exceeds it.
  bool shed_on_predicted_miss = true;
  /// Consecutive backend failures that open the circuit breaker.
  int breaker_trip_failures = 3;
  /// Consecutive successes (while degraded) that close it again.
  int breaker_recovery_successes = 2;
};

struct RequestOptions {
  float threshold = 0.5F;
  /// -1 = use the server default; 0 = no deadline; > 0 = milliseconds.
  int64_t deadline_ms = -1;
};

/// Point-in-time server statistics (per-server, independent of the
/// process-wide obs registry so tests stay isolated).
struct ServerStats {
  int64_t accepted = 0;       ///< Requests admitted to the queue.
  int64_t shed = 0;           ///< Rejected at admission (queue full,
                              ///< overload, breaker, draining).
  int64_t timeouts = 0;       ///< Futures settled kDeadlineExceeded.
  int64_t errors = 0;         ///< kBadInput + kBackendFailed outcomes.
  int64_t completed = 0;      ///< Futures settled with a result.
  int64_t discarded = 0;      ///< Worker results dropped because the
                              ///< future was already settled (late work).
  int64_t breaker_trips = 0;
  int64_t breaker_recoveries = 0;
  int64_t queue_depth = 0;
  int64_t in_flight = 0;
  /// The training world size (train.elastic.world_size gauge) observed
  /// at server start and re-read after every breaker recovery — a
  /// recovery often coincides with the trainer having shrunk or grown,
  /// and capacity planning wants the post-recovery value, not the one
  /// from boot. 0 until an elastic trainer publishes the gauge.
  int64_t observed_world_size = 0;
  HealthState health = HealthState::kHealthy;
};

class SegmentationServer {
 public:
  /// Loads the checkpoint once (empty path = fresh weights), fans the
  /// weight set out to `options.num_workers` model instances and starts
  /// the worker + reaper threads. options() returns `options` resolved
  /// against the DMIS_SERVE_* knobs. Throws core::BackendError when the
  /// checkpoint cannot be restored.
  SegmentationServer(const nn::UNet3dOptions& model_options,
                     const std::string& checkpoint_path,
                     ServeOptions options = {});

  /// Drains and stops all threads.
  ~SegmentationServer();

  SegmentationServer(const SegmentationServer&) = delete;
  SegmentationServer& operator=(const SegmentationServer&) = delete;

  /// Submits one volume. Throws ServeError on admission rejection; the
  /// returned future resolves to a result or throws a ServeError.
  std::future<core::SegmentationResult> submit(data::Volume volume,
                                               RequestOptions request = {});

  /// Synchronous convenience: submit + wait.
  core::SegmentationResult segment(data::Volume volume,
                                   RequestOptions request = {});

  /// Stops admission (new arrivals shed with kShedding) and blocks
  /// until queued and in-flight work has settled. Idempotent.
  void drain();

  HealthState health() const;
  ServerStats stats() const;
  const ServeOptions& options() const { return options_; }

 private:
  struct Request;
  using RequestPtr = std::shared_ptr<Request>;

  void worker_loop(int worker_id);
  void reaper_loop();
  void process(int worker_id, core::SegmentationService& service,
               const RequestPtr& req);
  /// Wins (or loses) the one-settle race for `req`.
  static bool try_claim(const RequestPtr& req);
  /// Span + counters + promise fulfilment; caller must hold the claim.
  void deliver_result(const RequestPtr& req,
                      core::SegmentationResult&& result);
  void deliver_error(const RequestPtr& req, ServeErrorKind kind,
                     const std::string& message);
  /// Server-state bookkeeping (probe slot, EMA, circuit breaker).
  void finish_request(const RequestPtr& req, bool success,
                      bool backend_failure, double latency_ms);
  /// Snapshots train.elastic.world_size into observed_world_size_ and
  /// the serve.observed_world_size gauge (start + breaker recovery).
  void observe_world_size();
  void stop_threads();

  ServeOptions options_;
  nn::UNet3dOptions model_options_;
  std::vector<std::unique_ptr<core::SegmentationService>> instances_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable reaper_cv_;
  std::condition_variable drain_cv_;
  std::deque<RequestPtr> queue_;
  std::multimap<std::chrono::steady_clock::time_point,
                std::weak_ptr<Request>>
      deadlines_;
  int64_t next_id_ = 0;
  int64_t in_flight_ = 0;
  bool draining_ = false;
  bool stop_ = false;
  HealthState health_ = HealthState::kHealthy;
  int consecutive_failures_ = 0;
  int recovery_successes_ = 0;
  bool probe_in_flight_ = false;
  double ema_latency_ms_ = 0.0;

  std::atomic<int64_t> accepted_{0};
  std::atomic<int64_t> shed_{0};
  std::atomic<int64_t> timeouts_{0};
  std::atomic<int64_t> errors_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> discarded_{0};
  std::atomic<int64_t> breaker_trips_{0};
  std::atomic<int64_t> breaker_recoveries_{0};
  std::atomic<int64_t> observed_world_size_{0};

  std::vector<std::thread> workers_;
  std::thread reaper_;
};

}  // namespace dmis::serve
