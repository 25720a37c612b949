#include "train/mirrored.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <mutex>
#include <thread>

#include "comm/communicator.hpp"
#include "comm/membership.hpp"
#include "common/check.hpp"
#include "common/knobs.hpp"
#include "common/logging.hpp"
#include "nn/checkpoint.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "train/grad_bucketer.hpp"
#include "train/straggler.hpp"

namespace dmis::train {
namespace {

// Emits the train.grad_sync.overlap / train.grad_sync.tail span pair
// plus the overlap histogram for one replica step: `overlap` covers
// first-bucket-launch -> backward-end (comm hidden under compute),
// `tail` covers backward-end -> wait-end (comm left exposed).
void record_overlap(const GradBucketer& bucketer, int64_t backward_end_us) {
  const int64_t first = bucketer.first_fire_us();
  if (first < 0) return;
  const int64_t wait_end = obs::Tracer::now_us();
  const int64_t overlap_end =
      backward_end_us < first ? first : std::min(backward_end_us, wait_end);
  static obs::Histogram& overlap_ms =
      obs::MetricsRegistry::instance().histogram("train.grad_sync.overlap_ms");
  overlap_ms.observe(static_cast<double>(overlap_end - first) / 1000.0);
  if (obs::trace_enabled()) {
    auto& tracer = obs::Tracer::instance();
    tracer.record_span("train.grad_sync.overlap", first,
                       overlap_end - first);
    tracer.record_span("train.grad_sync.tail", overlap_end,
                       wait_end - overlap_end);
  }
}

// Rows [lo, lo + count) of a batch-major array.
NDArray rows(const NDArray& a, int64_t lo, int64_t count) {
  const int64_t per = a.numel() / a.shape().dim(0);
  return NDArray(a.shape().with_dim(0, count),
                 std::span<const float>(a.data() + lo * per,
                                        static_cast<size_t>(count * per)));
}

// The checkpoint contract joiners are validated against: ordered
// (name, shape) of everything the grow broadcast will push.
comm::WorldSignature world_signature(nn::UNet3d& model) {
  comm::WorldSignature sig;
  for (const nn::Param& p : model.checkpoint_params()) {
    comm::ParamSig ps;
    ps.name = p.name;
    const Shape& s = p.value->shape();
    for (int d = 0; d < s.rank(); ++d) ps.dims.push_back(s.dim(d));
    sig.push_back(std::move(ps));
  }
  return sig;
}

// Total |residual| across a set of exported bucketer states — the
// error-feedback mass that must survive an elastic transition.
double residual_mass(
    const std::vector<GradBucketer::ResidualState>& states) {
  double mass = 0.0;
  for (const GradBucketer::ResidualState& state : states) {
    for (const std::vector<float>& bucket : state) {
      for (const float v : bucket) mass += std::abs(static_cast<double>(v));
    }
  }
  return mass;
}

// Everything one failed step leaves behind for the driver: which
// replicas reported themselves dead, the dead-set the survivor
// agreement round sealed (identical on every survivor, recorded once),
// and the first error for fail-fast rethrow.
struct StepFailure {
  explicit StepFailure(int world) : self_dead(static_cast<size_t>(world), 0) {}

  bool happened() const { return failed; }

  void record(std::exception_ptr err) {
    const std::lock_guard<std::mutex> lock(mutex);
    failed = true;
    if (!first) first = std::move(err);
  }

  std::mutex mutex;
  bool failed = false;
  std::exception_ptr first;
  std::vector<char> self_dead;   // replica crashed or was fenced out
  std::vector<int> agreed_dead;  // sealed by the agreement round
  bool agreed = false;
};

}  // namespace

struct MirroredStrategy::Impl {
  std::vector<comm::Communicator> comms;
  std::vector<std::unique_ptr<ModelStep<nn::UNet3d>>> steps;
  std::vector<std::unique_ptr<GradBucketer>> bucketers;  // empty: per-tensor
  std::unique_ptr<StragglerDetector> straggler;
  bool elastic = false;
  bool elastic_grow = false;
  std::string ckpt_path;  // elastic_dir + "/elastic.ckpt"
  int64_t recoveries = 0;
  int64_t grows = 0;

  // Elastic scale-up state (elastic_grow only).
  comm::WorldSignature signature;
  std::unique_ptr<comm::MembershipService> membership;
  std::mutex joiner_mutex;
  std::vector<std::thread> joiners;  // request_rejoin agent threads
};

MirroredStrategy::MirroredStrategy(const nn::UNet3dOptions& model_options,
                                   const MirroredOptions& options)
    : options_(options),
      model_options_(model_options),
      impl_(std::make_unique<Impl>()) {
  DMIS_CHECK(options.num_replicas >= 1,
             "need >= 1 replica, got " << options.num_replicas);
  // The bucketer launches collectives during each backward pass, so a
  // replica cannot hold gradients back across batches.
  DMIS_CHECK(options.train.grad_accumulation == 1,
             "MirroredStrategy cannot accumulate gradients, got "
             "grad_accumulation " << options.train.grad_accumulation);
  const int r = options.num_replicas;
  replicas_.reserve(static_cast<size_t>(r));
  for (int i = 0; i < r; ++i) {
    // Same seed in model_options -> bit-identical initial weights.
    replicas_.push_back(std::make_unique<nn::UNet3d>(model_options));
  }
  impl_->elastic = knobs::get<bool>(Knob::kElastic, options.elastic);
  if (impl_->elastic) {
    DMIS_CHECK(!options_.elastic_dir.empty(),
               "elastic mode needs MirroredOptions::elastic_dir for the "
               "step-consistent checkpoint");
    impl_->ckpt_path = options_.elastic_dir + "/elastic.ckpt";
  }
  impl_->elastic_grow =
      knobs::get<bool>(Knob::kElasticGrow, options.elastic_grow);
  if (impl_->elastic_grow) {
    DMIS_CHECK(impl_->elastic,
               "elastic_grow requires elastic mode: the grow path reuses "
               "the step-consistent checkpoint and recovery machinery");
    impl_->signature = world_signature(*replicas_.front());
    impl_->membership = std::make_unique<comm::MembershipService>(
        r, impl_->signature, options_.lease_ms);
  }
  build_group();
}

MirroredStrategy::~MirroredStrategy() {
  // Wake any joiner agent still parked in await_admission (kShutdown),
  // then reap the agent threads before members are torn down.
  if (impl_->membership != nullptr) impl_->membership->shutdown();
  std::vector<std::thread> joiners;
  {
    const std::lock_guard<std::mutex> lock(impl_->joiner_mutex);
    joiners.swap(impl_->joiners);
  }
  for (std::thread& t : joiners) {
    if (t.joinable()) t.join();
  }
}

bool MirroredStrategy::elastic() const { return impl_->elastic; }

bool MirroredStrategy::elastic_grow() const { return impl_->elastic_grow; }

int64_t MirroredStrategy::recoveries() const { return impl_->recoveries; }

int64_t MirroredStrategy::grows() const { return impl_->grows; }

comm::MembershipService& MirroredStrategy::membership() {
  DMIS_CHECK(impl_->membership != nullptr,
             "membership() requires elastic_grow mode");
  return *impl_->membership;
}

void MirroredStrategy::request_rejoin() {
  DMIS_CHECK(impl_->membership != nullptr,
             "request_rejoin() requires elastic_grow mode");
  const std::lock_guard<std::mutex> lock(impl_->joiner_mutex);
  impl_->joiners.emplace_back([this] {
    try {
      const comm::JoinTicket ticket =
          impl_->membership->request_join(impl_->signature);
      (void)impl_->membership->await_admission(ticket,
                                               options_.join_timeout_ms);
    } catch (const comm::MembershipError& e) {
      // Rejected, timed out, or the strategy shut down: this agent's
      // node simply stays out of the group.
      DMIS_LOG(kInfo) << "rejoin agent not admitted: " << e.what();
    }
  });
}

double MirroredStrategy::effective_lr() const {
  const int world =
      replicas_.empty() ? options_.num_replicas : world_size();
  return options_.scale_lr ? options_.train.lr * static_cast<double>(world)
                           : options_.train.lr;
}

void MirroredStrategy::build_group() {
  const int r = world_size();
  // Teardown order matters: hooks and bucketers reference the old
  // communicators; the old context's destructor joins its comm workers.
  for (auto& model : replicas_) {
    model->graph().set_grad_ready_hook(nullptr);
  }
  impl_->bucketers.clear();
  impl_->steps.clear();
  impl_->comms.clear();
  comm::GroupOptions group_options;
  group_options.timeout_ms = options_.comm_timeout_ms;
  group_options.algo = options_.comm_algo;
  group_options.ranks_per_node = options_.comm_ranks_per_node;
  impl_->comms = comm::make_group(r, group_options);
  const size_t bucket_bytes =
      knobs::get<size_t>(Knob::kBucketBytes, options_.bucket_bytes);
  const double lr_scale = options_.scale_lr ? static_cast<double>(r) : 1.0;
  for (int i = 0; i < r; ++i) {
    nn::UNet3d& model = *replicas_[static_cast<size_t>(i)];
    impl_->steps.push_back(std::make_unique<ModelStep<nn::UNet3d>>(
        model, options_.train, lr_scale));
    if (bucket_bytes == 0) continue;
    impl_->bucketers.push_back(std::make_unique<GradBucketer>(
        model.params(), impl_->comms[static_cast<size_t>(i)], bucket_bytes,
        options_.compress));
    // Fires each bucket's allreduce mid-backward; disarmed outside
    // begin_step()/wait_all(), so forward-only use stays free.
    model.graph().set_grad_ready_hook(
        [b = impl_->bucketers.back().get()](const nn::Param& p) {
          b->on_grad_ready(p);
        });
  }
  // Fresh detector per group: after an elastic shrink the surviving
  // replicas are renumbered, so old per-rank windows no longer apply.
  impl_->straggler = std::make_unique<StragglerDetector>(r);
}

TrainReport MirroredStrategy::fit(data::BatchStream& train,
                                  data::BatchStream* val,
                                  const EpochCallback& callback) {
  const bool elastic = impl_->elastic;
  auto& reg = obs::MetricsRegistry::instance();
  obs::Gauge& world_gauge = reg.gauge("train.elastic.world_size");
  obs::Counter& recovery_counter = reg.counter("train.elastic.recoveries");
  obs::Counter& grow_counter = reg.counter("train.elastic.grows");
  world_gauge.set(static_cast<double>(world_size()));

  // The __progress__ rider checkpointed with the weights: epoch, steps
  // completed in that epoch, optimizer step count, and the epoch's
  // running loss sum (float-rounded; only the reported mean is
  // affected, never the weights).
  NDArray progress(Shape({4}));

  const auto save_state = [&](const LoopPosition& at) {
    progress[0] = static_cast<float>(at.epoch);
    progress[1] = static_cast<float>(at.steps);
    progress[2] =
        static_cast<float>(impl_->steps.front()->optimizer().step_count());
    progress[3] = static_cast<float>(at.loss_sum);
    std::vector<nn::Param> params = replicas_.front()->checkpoint_params();
    for (nn::Param& sp : impl_->steps.front()->optimizer().state_params()) {
      params.push_back(sp);
    }
    params.push_back(nn::Param{"__progress__", &progress, &progress});
    nn::save_checkpoint(impl_->ckpt_path, params);
  };

  if (elastic) {
    std::filesystem::create_directories(options_.elastic_dir);
    nn::sweep_stale_checkpoints(options_.elastic_dir);
    save_state({});  // step-0 snapshot: a failure in the very first
                     // step restores to initial weights
  }

  // Set by elastic recovery to resume a partially completed epoch.
  LoopPosition resume;

  // Shrinks to the survivors of a failed step and restores the last
  // step-consistent checkpoint into every one of them. Rethrows when
  // nobody survived.
  const auto recover = [&](StepFailure& failure) {
    DMIS_TRACE_SPAN("train.elastic.recovery");
    const int old_world = world_size();
    std::vector<char> dead(static_cast<size_t>(world_size()), 0);
    for (const int d : failure.agreed_dead) {
      dead[static_cast<size_t>(d)] = 1;
    }
    for (size_t i = 0; i < failure.self_dead.size(); ++i) {
      if (failure.self_dead[i] != 0) dead[i] = 1;
    }
    std::vector<std::unique_ptr<nn::UNet3d>> survivors;
    // Carry each survivor's error-feedback residuals across the
    // rebuild: the codec's accumulated-but-unsent gradient mass must
    // not vanish with the group (the layout is parameter-determined,
    // so exported state fits the rebuilt bucketer exactly).
    std::vector<GradBucketer::ResidualState> residuals;
    for (size_t i = 0; i < replicas_.size(); ++i) {
      if (dead[i] != 0) continue;
      survivors.push_back(std::move(replicas_[i]));
      if (i < impl_->bucketers.size() && impl_->bucketers[i] != nullptr) {
        residuals.push_back(impl_->bucketers[i]->export_residuals());
      }
    }
    if (survivors.empty()) std::rethrow_exception(failure.first);
    reg.gauge("train.elastic.residual_mass_exported")
        .set(residual_mass(residuals));
    replicas_ = std::move(survivors);
    ++impl_->recoveries;
    recovery_counter.add(1);
    build_group();
    for (size_t i = 0;
         i < impl_->bucketers.size() && i < residuals.size(); ++i) {
      impl_->bucketers[i]->import_residuals(residuals[i]);
    }
    reg.gauge("train.elastic.residual_mass_imported")
        .set(residual_mass(residuals));
    world_gauge.set(static_cast<double>(world_size()));
    if (impl_->membership != nullptr) {
      impl_->membership->set_world(world_size(), obs::Tracer::now_us());
    }
    obs::FlightRecorder::instance().dump(
        "train.elastic.shrink(" + std::to_string(old_world) + "->" +
        std::to_string(world_size()) + ")");
    for (size_t i = 0; i < replicas_.size(); ++i) {
      std::vector<nn::Param> params = replicas_[i]->checkpoint_params();
      for (nn::Param& sp : impl_->steps[i]->optimizer().state_params()) {
        params.push_back(sp);
      }
      params.push_back(nn::Param{"__progress__", &progress, &progress});
      nn::load_checkpoint(impl_->ckpt_path, params);
      impl_->steps[i]->optimizer().set_step_count(
          static_cast<int64_t>(progress[2]));
    }
    resume = {static_cast<int64_t>(progress[0]),
              static_cast<int64_t>(progress[1]),
              static_cast<double>(progress[3])};
  };

  // Elastic scale-up, run at epoch boundaries: no collective is in
  // flight, the in-flight buckets are drained (wait_all completed for
  // every step of the epoch), and a step-consistent checkpoint was just
  // written — the one moment the world can change shape safely.
  const auto maybe_grow = [&]() {
    if (impl_->membership == nullptr) return;
    comm::MembershipService& ms = *impl_->membership;
    // Renew survivor leases off the collective heartbeat table.
    for (int rnk = 0; rnk < world_size(); ++rnk) {
      const int64_t beat =
          impl_->comms[static_cast<size_t>(rnk)].last_beat_us(rnk);
      if (beat > 0) ms.renew(rnk, beat);
    }
    if (ms.parked() == 0) return;
    const std::vector<int> expired = ms.expired_ranks(obs::Tracer::now_us());
    if (!expired.empty()) {
      // A group that cannot keep its own leases fresh must not take on
      // joiners; the request stays parked for the next boundary.
      DMIS_LOG(kWarn) << "elastic grow: deferring admission, "
                     << expired.size() << " survivor lease(s) expired";
      return;
    }
    const int admitted = ms.admit_pending();
    if (admitted == 0) return;
    DMIS_TRACE_SPAN("train.elastic.grow");
    const int old_world = world_size();
    // Capture rank 0's optimizer slots and step count before teardown:
    // build_group() hands every replica a fresh optimizer, and the
    // post-rebuild broadcast needs a root that still holds real state.
    std::vector<std::vector<float>> slot_values;
    for (nn::Param& sp : impl_->steps.front()->optimizer().state_params()) {
      slot_values.emplace_back(sp.value->data(),
                               sp.value->data() + sp.value->numel());
    }
    const int64_t opt_steps = impl_->steps.front()->optimizer().step_count();
    // Survivor error-feedback residuals ride across the rebuild; the
    // bucket layout is a pure function of the parameter list, so the
    // exported state fits the enlarged group's bucketers exactly.
    std::vector<GradBucketer::ResidualState> residuals;
    for (const auto& b : impl_->bucketers) {
      residuals.push_back(b->export_residuals());
    }
    reg.gauge("train.elastic.residual_mass_exported")
        .set(residual_mass(residuals));
    for (int j = 0; j < admitted; ++j) {
      replicas_.push_back(std::make_unique<nn::UNet3d>(model_options_));
    }
    build_group();  // enlarged world: lr rescaled back up, fresh
                    // AlgoTuner calibration and straggler baselines
    {
      std::vector<nn::Param> sps =
          impl_->steps.front()->optimizer().state_params();
      DMIS_CHECK(sps.size() == slot_values.size(),
                 "optimizer slot count changed across elastic rebuild");
      for (size_t s = 0; s < sps.size(); ++s) {
        DMIS_CHECK(static_cast<size_t>(sps[s].value->numel()) ==
                       slot_values[s].size(),
                   "optimizer slot '" << sps[s].name
                                      << "' resized across rebuild");
        std::copy(slot_values[s].begin(), slot_values[s].end(),
                  sps[s].value->data());
      }
    }
    // Broadcast weights + optimizer slots + __progress__ from rank 0 —
    // the joiners' first collectives on the new group, and a live smoke
    // of the rebuilt communicator before training resumes.
    const int world = world_size();
    std::exception_ptr bcast_err;
    std::mutex bcast_mutex;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(world));
    for (int rnk = 0; rnk < world; ++rnk) {
      threads.emplace_back([&, rnk] {
        try {
          comm::Communicator& comm = impl_->comms[static_cast<size_t>(rnk)];
          for (nn::Param& p :
               replicas_[static_cast<size_t>(rnk)]->checkpoint_params()) {
            comm.broadcast(p.value->span(), /*root=*/0);
          }
          for (nn::Param& sp : impl_->steps[static_cast<size_t>(rnk)]
                                   ->optimizer()
                                   .state_params()) {
            comm.broadcast(sp.value->span(), /*root=*/0);
          }
          NDArray prog(Shape({4}));
          if (rnk == 0) {
            for (int64_t k = 0; k < 4; ++k) prog[k] = progress[k];
          }
          comm.broadcast(prog.span(), /*root=*/0);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(bcast_mutex);
          if (!bcast_err) bcast_err = std::current_exception();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    if (bcast_err) std::rethrow_exception(bcast_err);
    for (auto& step : impl_->steps) {
      step->optimizer().set_step_count(opt_steps);
    }
    for (size_t s = 0; s < impl_->bucketers.size() && s < residuals.size();
         ++s) {
      impl_->bucketers[s]->import_residuals(residuals[s]);
    }
    reg.gauge("train.elastic.residual_mass_imported")
        .set(residual_mass(residuals));
    // Commit: joiners wake with their ranks, leases restart fresh, and
    // every member of the new world agrees on (world, epoch).
    const int committed = ms.commit_transition(obs::Tracer::now_us());
    DMIS_CHECK(committed == world,
               "membership world " << committed
                                   << " diverged from strategy world "
                                   << world);
    ++impl_->grows;
    grow_counter.add(1);
    world_gauge.set(static_cast<double>(world));
    obs::FlightRecorder::instance().dump(
        "train.elastic.grow(" + std::to_string(old_world) + "->" +
        std::to_string(world) + ")");
  };

  // One global step: split the batch, run every replica's shared step
  // on its own thread with the gradient allreduce as the sync, and
  // capture failures.
  const auto global_step = [&](const data::Batch& batch, double lr,
                               const LoopPosition& at)
      -> std::optional<double> {
    const int r = world_size();
    const int64_t total = batch.size();
    std::vector<double> replica_loss(static_cast<size_t>(r), 0.0);
    StepFailure failure(r);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(r));
    for (int i = 0; i < r; ++i) {
      threads.emplace_back([&, i] {
        nn::UNet3d& model = *replicas_[static_cast<size_t>(i)];
        comm::Communicator& comm = impl_->comms[static_cast<size_t>(i)];
        GradBucketer* bucketer =
            impl_->bucketers.empty()
                ? nullptr
                : impl_->bucketers[static_cast<size_t>(i)].get();
        try {
          const int64_t step_begin_us = obs::Tracer::now_us();
          int64_t sync_wait_us = 0;
          // Contiguous split of the global batch: replica i takes
          // total/r (+1 for the first total%r replicas) samples.
          const int64_t count = total / r + (i < total % r ? 1 : 0);
          const int64_t lo = i * (total / r) + std::min<int64_t>(i, total % r);

          // Weight local mean-gradients by sample count, sum across
          // the ring, then renormalize by the global batch — exact
          // even for ragged final batches and idle replicas. On the
          // bucketed path both scalings are folded into the
          // pack/unpack copies.
          const float weight = static_cast<float>(count);
          const float inv_total = 1.0F / static_cast<float>(total);
          const auto sync = [&] {
            const int64_t wait_begin_us = obs::Tracer::now_us();
            if (bucketer != nullptr) {
              // Buckets whose last gradient arrived mid-backward are
              // already in flight; flush the stragglers (all of them
              // for an idle replica), then drain and unpack.
              bucketer->flush();
              bucketer->wait_all();
            } else {
              for (nn::Param& p : model.params()) {
                p.grad->scale_(weight);
                comm.all_reduce_sum(p.grad->span());
                p.grad->scale_(inv_total);
              }
            }
            sync_wait_us = obs::Tracer::now_us() - wait_begin_us;
            if (bucketer != nullptr) {
              record_overlap(*bucketer, count > 0 ? wait_begin_us : -1);
            }
          };

          if (bucketer != nullptr) bucketer->begin_step(weight, inv_total);
          std::optional<data::Batch> shard;
          if (count > 0) {
            shard = data::Batch{rows(batch.images, lo, count),
                                rows(batch.labels, lo, count), {}};
          }
          replica_loss[static_cast<size_t>(i)] =
              impl_->steps[static_cast<size_t>(i)]->run(
                  shard ? &*shard : nullptr, lr, sync) *
              static_cast<double>(count);
          impl_->straggler->record_step(
              i, static_cast<double>(obs::Tracer::now_us() - step_begin_us));
          impl_->straggler->record_wait(i, static_cast<double>(sync_wait_us));
        } catch (const comm::CommError&) {
          // A peer failed (or our own deadline fired): the group is
          // poisoned. Let go of the bucket buffers, then — in elastic
          // mode — join the survivor agreement so every survivor
          // leaves with the same dead-set.
          if (bucketer != nullptr) bucketer->abandon();
          failure.record(std::current_exception());
          if (elastic) {
            try {
              std::vector<int> sealed =
                  comm.agree_on_failures(options_.agree_grace_ms);
              const std::lock_guard<std::mutex> lock(failure.mutex);
              if (!failure.agreed) {
                failure.agreed_dead = std::move(sealed);
                failure.agreed = true;
              }
            } catch (const comm::CommError&) {
              // Fenced out: the survivors sealed without us.
              const std::lock_guard<std::mutex> lock(failure.mutex);
              failure.self_dead[static_cast<size_t>(i)] = 1;
            }
          }
        } catch (const std::exception& e) {
          // This replica itself crashed: poison the group so peers
          // blocked in the ring wake with kPeerFailed instead of
          // deadlocking, and report ourselves dead.
          comm.abort(e.what());
          if (bucketer != nullptr) bucketer->abandon();
          {
            const std::lock_guard<std::mutex> lock(failure.mutex);
            failure.self_dead[static_cast<size_t>(i)] = 1;
          }
          failure.record(std::current_exception());
        }
      });
    }
    for (auto& t : threads) t.join();

    if (failure.happened()) {
      if (!elastic) std::rethrow_exception(failure.first);
      recover(failure);
      return std::nullopt;  // replay from the restored position
    }

    double batch_loss = 0.0;
    for (double l : replica_loss) batch_loss += l;
    const double loss = batch_loss / static_cast<double>(total);
    if (elastic && options_.checkpoint_every_steps > 0 &&
        (at.steps + 1) % options_.checkpoint_every_steps == 0) {
      save_state({at.epoch, at.steps + 1, at.loss_sum + loss});
    }
    return loss;
  };

  Loop<nn::UNet3d> loop;
  loop.lead = [this]() -> ModelStep<nn::UNet3d>& {
    return *impl_->steps.front();
  };
  loop.step = global_step;
  loop.resume = &resume;
  loop.epoch_end = [&](int64_t next_epoch, bool more) {
    // Compare the ranks' rolling step-time p50s and flag (metrics +
    // warning) if one rank is dragging the group.
    impl_->straggler->check();
    if (elastic) save_state({next_epoch});  // epoch-boundary snapshot
    if (more) maybe_grow();
  };
  return run_epochs(options_.train, loop, train, val, callback);
}

}  // namespace dmis::train
