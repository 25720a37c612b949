#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "common/fault_injector.hpp"
#include "common/knobs.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dmis::serve {
namespace {

using Clock = std::chrono::steady_clock;

/// Thrown by the progress hook to abandon an in-flight request whose
/// deadline passed (or whose future was already settled by the reaper).
struct RequestAbandoned : Error {
  RequestAbandoned() : Error("request abandoned") {}
};

obs::Counter& counter(const char* name) {
  return obs::MetricsRegistry::instance().counter(name);
}

std::vector<double> latency_bounds_ms() {
  return {1,    2,    5,    10,   20,    50,    100,
          200,  500,  1000, 2000, 5000,  10000, 30000};
}

}  // namespace

const char* health_state_name(HealthState state) {
  switch (state) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kDraining: return "draining";
  }
  return "unknown";
}

struct SegmentationServer::Request {
  int64_t id = 0;
  data::Volume volume;
  float threshold = 0.5F;
  bool probe = false;
  bool has_deadline = false;
  Clock::time_point deadline = Clock::time_point::max();
  Clock::time_point enqueue_time;
  int64_t enqueue_us = 0;  ///< Tracer timestamp for the request span.
  std::atomic<bool> settled{false};
  std::promise<core::SegmentationResult> promise;
};

SegmentationServer::SegmentationServer(const nn::UNet3dOptions& model_options,
                                       const std::string& checkpoint_path,
                                       ServeOptions options)
    : options_(options), model_options_(model_options) {
  options_.num_workers =
      knobs::get<int>(Knob::kServeWorkers, options.num_workers);
  options_.queue_capacity =
      knobs::get<int64_t>(Knob::kServeQueue, options.queue_capacity);
  options_.default_deadline_ms = knobs::get<int64_t>(
      Knob::kServeDeadlineMs, options.default_deadline_ms);
  options_.full_volume_voxel_budget = knobs::get<int64_t>(
      Knob::kServeVoxelBudget, options.full_volume_voxel_budget);
  DMIS_CHECK(options_.num_workers >= 1, "num_workers must be >= 1, got "
                                        << options_.num_workers);
  DMIS_CHECK(options_.queue_capacity >= 1, "queue_capacity must be >= 1, got "
                                           << options_.queue_capacity);
  // One checkpoint load (with CRC verification), then fan the weight
  // set out to the remaining instances in memory.
  instances_.reserve(static_cast<size_t>(options_.num_workers));
  instances_.emplace_back(std::make_unique<core::SegmentationService>(
      model_options_, checkpoint_path));
  for (int i = 1; i < options_.num_workers; ++i) {
    instances_.emplace_back(std::make_unique<core::SegmentationService>(
        model_options_, *instances_[0]));
  }
  obs::MetricsRegistry::instance().gauge("serve.workers")
      .set(static_cast<double>(options_.num_workers));
  obs::MetricsRegistry::instance().gauge("serve.health").set(0.0);
  observe_world_size();

  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  reaper_ = std::thread([this] { reaper_loop(); });
}

SegmentationServer::~SegmentationServer() {
  drain();
  stop_threads();
}

std::future<core::SegmentationResult> SegmentationServer::submit(
    data::Volume volume, RequestOptions request) {
  common::FaultInjector::instance().maybe_fail("serve.queue");

  // Cheap validation before touching the queue; the expensive
  // degeneracy scan happens on the worker.
  if (!(request.threshold > 0.0F && request.threshold < 1.0F)) {
    std::ostringstream os;
    os << "threshold must be in (0,1), got " << request.threshold;
    errors_.fetch_add(1);
    counter("serve.errors").add(1);
    throw ServeError(ServeErrorKind::kBadInput, os.str());
  }
  if (volume.channels() != model_options_.in_channels) {
    std::ostringstream os;
    os << "expected " << model_options_.in_channels << " modalities, got "
       << volume.channels();
    errors_.fetch_add(1);
    counter("serve.errors").add(1);
    throw ServeError(ServeErrorKind::kBadInput, os.str());
  }

  const Clock::time_point now = Clock::now();
  const int64_t deadline_ms = request.deadline_ms >= 0
                                  ? request.deadline_ms
                                  : options_.default_deadline_ms;

  std::unique_lock<std::mutex> lock(mutex_);
  if (stop_ || draining_) {
    shed_.fetch_add(1);
    counter("serve.shed").add(1);
    throw ServeError(ServeErrorKind::kShedding, "server is draining");
  }
  bool probe = false;
  if (health_ == HealthState::kDegraded) {
    if (probe_in_flight_) {
      shed_.fetch_add(1);
      counter("serve.shed").add(1);
      throw ServeError(ServeErrorKind::kShedding,
                       "circuit breaker open (probe in flight)");
    }
    probe = true;
  }
  if (static_cast<int64_t>(queue_.size()) >= options_.queue_capacity) {
    shed_.fetch_add(1);
    counter("serve.shed").add(1);
    std::ostringstream os;
    os << "queue at capacity (" << options_.queue_capacity << ")";
    throw ServeError(ServeErrorKind::kQueueFull, os.str());
  }
  if (!probe && deadline_ms > 0 && options_.shed_on_predicted_miss &&
      ema_latency_ms_ > 0.0) {
    const double wait_ms =
        static_cast<double>(queue_.size() + in_flight_) * ema_latency_ms_ /
        static_cast<double>(options_.num_workers);
    if (wait_ms + ema_latency_ms_ > static_cast<double>(deadline_ms)) {
      shed_.fetch_add(1);
      counter("serve.shed").add(1);
      std::ostringstream os;
      os << "predicted wait " << wait_ms << "ms exceeds deadline "
         << deadline_ms << "ms";
      throw ServeError(ServeErrorKind::kShedding, os.str());
    }
  }

  auto req = std::make_shared<Request>();
  req->id = next_id_++;
  req->volume = std::move(volume);
  req->threshold = request.threshold;
  req->probe = probe;
  req->enqueue_time = now;
  req->enqueue_us = obs::Tracer::now_us();
  if (deadline_ms > 0) {
    req->has_deadline = true;
    req->deadline = now + std::chrono::milliseconds(deadline_ms);
  }
  if (probe) probe_in_flight_ = true;

  std::future<core::SegmentationResult> future = req->promise.get_future();
  queue_.push_back(req);
  obs::MetricsRegistry::instance().gauge("serve.queue_depth")
      .set(static_cast<double>(queue_.size()));
  accepted_.fetch_add(1);
  counter("serve.accepted").add(1);
  if (req->has_deadline) {
    const bool new_earliest =
        deadlines_.empty() || req->deadline < deadlines_.begin()->first;
    deadlines_.emplace(req->deadline, req);
    if (new_earliest) reaper_cv_.notify_one();
  }
  lock.unlock();
  work_cv_.notify_one();
  return future;
}

core::SegmentationResult SegmentationServer::segment(data::Volume volume,
                                                     RequestOptions request) {
  return submit(std::move(volume), request).get();
}

void SegmentationServer::worker_loop(int worker_id) {
  core::SegmentationService& service = *instances_[static_cast<size_t>(
      worker_id)];
  for (;;) {
    RequestPtr req;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      req = queue_.front();
      queue_.pop_front();
      obs::MetricsRegistry::instance().gauge("serve.queue_depth")
          .set(static_cast<double>(queue_.size()));
      if (req->settled.load(std::memory_order_acquire)) {
        // Timed out while queued; the reaper already settled it.
        if (req->probe) probe_in_flight_ = false;
        if (queue_.empty() && in_flight_ == 0) drain_cv_.notify_all();
        continue;
      }
      ++in_flight_;
    }
    process(worker_id, service, req);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) drain_cv_.notify_all();
    }
  }
}

void SegmentationServer::process(int worker_id,
                                 core::SegmentationService& service,
                                 const RequestPtr& req) {
  auto& injector = common::FaultInjector::instance();
  try {
    // A fired crash here models the worker dying as it picks up the
    // request; a hang models a stuck worker (the reaper still settles
    // the request at its deadline).
    injector.maybe_fail("serve.worker", worker_id);

    if (Clock::now() >= req->deadline) {
      const bool claimed = try_claim(req);
      finish_request(req, /*success=*/false, /*backend_failure=*/false, 0.0);
      if (claimed) {
        deliver_error(req, ServeErrorKind::kDeadlineExceeded,
                      "deadline expired while queued");
      }
      return;
    }

    core::SegmentOptions opts;
    opts.threshold = req->threshold;
    opts.full_volume_voxel_budget = options_.full_volume_voxel_budget;
    opts.sliding_window = options_.sliding_window;
    opts.progress_hook = [&injector, &req] {
      injector.maybe_fail("serve.infer");
      if (req->settled.load(std::memory_order_acquire) ||
          Clock::now() >= req->deadline) {
        throw RequestAbandoned();
      }
    };

    core::SegmentationResult result;
    {
      DMIS_TRACE_SPAN("serve.infer", {{"id", req->id}});
      result = service.segment(req->volume, opts);
    }

    if (injector.active() && injector.should_fail("serve.infer.corrupt")) {
      // Model a backend scribbling garbage into its output buffer; the
      // validation below must turn this into a typed failure.
      result.probabilities.tensor().fill(
          std::numeric_limits<float>::quiet_NaN());
    }
    for (int64_t i = 0; i < result.probabilities.tensor().numel(); ++i) {
      const float p = result.probabilities.tensor()[i];
      if (!std::isfinite(p)) {
        throw InternalError("backend produced non-finite probabilities");
      }
    }

    const double latency_ms =
        std::chrono::duration<double, std::milli>(Clock::now() -
                                                  req->enqueue_time)
            .count();
    if (try_claim(req)) {
      // Breaker/probe bookkeeping happens before the promise is
      // fulfilled so a client observing .get() sees consistent state.
      finish_request(req, /*success=*/true, /*backend_failure=*/false,
                     latency_ms);
      deliver_result(req, std::move(result));
    } else {
      discarded_.fetch_add(1);
      counter("serve.discarded").add(1);
      finish_request(req, /*success=*/false, /*backend_failure=*/false, 0.0);
    }
  } catch (const RequestAbandoned&) {
    const bool claimed = try_claim(req);
    finish_request(req, /*success=*/false, /*backend_failure=*/false, 0.0);
    if (claimed) {
      deliver_error(req, ServeErrorKind::kDeadlineExceeded,
                    "deadline expired during inference");
    }
  } catch (const InvalidArgument& e) {
    // Bad input fails the request, never the backend's health.
    const bool claimed = try_claim(req);
    finish_request(req, /*success=*/false, /*backend_failure=*/false, 0.0);
    if (claimed) deliver_error(req, ServeErrorKind::kBadInput, e.what());
  } catch (const std::exception& e) {
    const bool claimed = try_claim(req);
    finish_request(req, /*success=*/false, /*backend_failure=*/true, 0.0);
    if (claimed) deliver_error(req, ServeErrorKind::kBackendFailed, e.what());
  }
}

bool SegmentationServer::try_claim(const RequestPtr& req) {
  return !req->settled.exchange(true, std::memory_order_acq_rel);
}

void SegmentationServer::deliver_result(const RequestPtr& req,
                                        core::SegmentationResult&& result) {
  const int64_t now_us = obs::Tracer::now_us();
  obs::Tracer::instance().record_span("serve.request", req->enqueue_us,
                                      now_us - req->enqueue_us,
                                      {{"id", req->id}, {"ok", 1}});
  completed_.fetch_add(1);
  counter("serve.completed").add(1);
  req->promise.set_value(std::move(result));
}

void SegmentationServer::deliver_error(const RequestPtr& req,
                                       ServeErrorKind kind,
                                       const std::string& message) {
  const int64_t now_us = obs::Tracer::now_us();
  obs::Tracer::instance().record_span("serve.request", req->enqueue_us,
                                      now_us - req->enqueue_us,
                                      {{"id", req->id}, {"ok", 0}});
  if (kind == ServeErrorKind::kDeadlineExceeded) {
    timeouts_.fetch_add(1);
    counter("serve.timeouts").add(1);
  } else {
    errors_.fetch_add(1);
    counter("serve.errors").add(1);
  }
  req->promise.set_exception(
      std::make_exception_ptr(ServeError(kind, message)));
}

void SegmentationServer::finish_request(const RequestPtr& req, bool success,
                                        bool backend_failure,
                                        double latency_ms) {
  bool tripped = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (req->probe) probe_in_flight_ = false;
    if (success) {
      static obs::Histogram& latency = obs::MetricsRegistry::instance()
          .histogram("serve.latency_ms", latency_bounds_ms());
      latency.observe(latency_ms);
      ema_latency_ms_ = ema_latency_ms_ <= 0.0
                            ? latency_ms
                            : 0.8 * ema_latency_ms_ + 0.2 * latency_ms;
      consecutive_failures_ = 0;
      if (health_ == HealthState::kDegraded) {
        if (++recovery_successes_ >= options_.breaker_recovery_successes) {
          health_ = HealthState::kHealthy;
          recovery_successes_ = 0;
          breaker_recoveries_.fetch_add(1);
          counter("serve.breaker.recoveries").add(1);
          obs::MetricsRegistry::instance().gauge("serve.health").set(0.0);
          // A trip+recovery often brackets an elastic transition in the
          // co-located trainer: refresh the observed world size so
          // capacity decisions use the post-recovery topology.
          observe_world_size();
        }
      }
    } else if (backend_failure) {
      recovery_successes_ = 0;
      if (++consecutive_failures_ >= options_.breaker_trip_failures &&
          health_ == HealthState::kHealthy) {
        health_ = HealthState::kDegraded;
        breaker_trips_.fetch_add(1);
        counter("serve.breaker.trips").add(1);
        obs::MetricsRegistry::instance().gauge("serve.health").set(1.0);
        tripped = true;
      }
    }
  }
  // Dump outside the server lock: the recorder calls back into health
  // providers, and the dump itself does file IO.
  if (tripped) obs::FlightRecorder::instance().dump("serve.breaker_trip");
}

void SegmentationServer::reaper_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (stop_) return;
    if (deadlines_.empty()) {
      reaper_cv_.wait(lock, [this] { return stop_ || !deadlines_.empty(); });
      continue;
    }
    const Clock::time_point next = deadlines_.begin()->first;
    if (Clock::now() < next) {
      reaper_cv_.wait_until(lock, next);
      continue;
    }
    // Settle every expired, still-pending request — queued or in
    // flight — so futures resolve at their deadline even when all
    // workers are hung.
    const Clock::time_point now = Clock::now();
    while (!deadlines_.empty() && deadlines_.begin()->first <= now) {
      const RequestPtr req = deadlines_.begin()->second.lock();
      deadlines_.erase(deadlines_.begin());
      // Probe/breaker bookkeeping is left to the worker that owns the
      // request; the reaper only guarantees the future resolves on time.
      if (req != nullptr && try_claim(req)) {
        deliver_error(req, ServeErrorKind::kDeadlineExceeded,
                      "deadline expired");
      }
    }
  }
}

void SegmentationServer::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!draining_) {
    draining_ = true;
    obs::MetricsRegistry::instance().gauge("serve.health").set(2.0);
  }
  drain_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void SegmentationServer::stop_threads() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  reaper_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  if (reaper_.joinable()) reaper_.join();
}

HealthState SegmentationServer::health() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_ ? HealthState::kDraining : health_;
}

ServerStats SegmentationServer::stats() const {
  ServerStats stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.queue_depth = static_cast<int64_t>(queue_.size());
    stats.in_flight = in_flight_;
    stats.health = draining_ ? HealthState::kDraining : health_;
  }
  stats.accepted = accepted_.load();
  stats.shed = shed_.load();
  stats.timeouts = timeouts_.load();
  stats.errors = errors_.load();
  stats.completed = completed_.load();
  stats.discarded = discarded_.load();
  stats.breaker_trips = breaker_trips_.load();
  stats.breaker_recoveries = breaker_recoveries_.load();
  stats.observed_world_size = observed_world_size_.load();
  return stats;
}

void SegmentationServer::observe_world_size() {
  const double world =
      obs::MetricsRegistry::instance().gauge("train.elastic.world_size")
          .value();
  observed_world_size_.store(static_cast<int64_t>(world));
  obs::MetricsRegistry::instance().gauge("serve.observed_world_size")
      .set(world);
}

}  // namespace dmis::serve
