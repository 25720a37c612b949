// The three sweep workloads: the paper's Table I sweep run on one device
// (sweep_seq), data-parallel over four replicas (sweep_dp) and
// experiment-parallel over four Tune slots (sweep_ep).
//
// The program is driven only through its public entry points, the way
// core::DistMisPipeline::run_* do. In the traced run the benchmark wraps
// the train stream and the epoch callback it hands in, and so times the
// data, train and raylite layers from outside.
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "raylite/tune.hpp"
#include "stats.hpp"
#include "train/mirrored.hpp"
#include "train/trainer.hpp"

namespace perfbench {

using namespace dmis;

namespace {

constexpr int64_t kEpochs = 3;
constexpr int64_t kSubjects = 16;
constexpr int kSetupRepeats = 30;

// ---- Traced-run instrumentation -------------------------------------------

struct Pull {
  double t0 = 0.0;
  double t1 = 0.0;
  bool got = false;
};

/// What the traced run records about one trial, from outside the program.
/// Written only by the thread that consumes the trial's train stream.
struct TrialRecord {
  bool heavy = false;
  int64_t batch = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::vector<Pull> pulls;
  std::vector<double> callbacks_ms;
};

/// Times every next() of the train stream it wraps.
class TimedStream final : public data::ExampleStream {
 public:
  TimedStream(data::StreamPtr inner, TrialRecord* rec)
      : inner_(std::move(inner)), rec_(rec) {}
  std::optional<data::Example> next() override {
    Pull p;
    p.t0 = now_ms();
    auto e = inner_->next();
    p.t1 = now_ms();
    p.got = e.has_value();
    rec_->pulls.push_back(p);
    return e;
  }
  void reset() override { inner_->reset(); }
  int64_t size_hint() const override { return inner_->size_hint(); }

 private:
  data::StreamPtr inner_;
  TrialRecord* rec_;
};

data::StreamPtr maybe_timed(data::StreamPtr s, TrialRecord* rec) {
  if (rec == nullptr) return s;
  return std::make_unique<TimedStream>(std::move(s), rec);
}

/// Per-layer figures derived from the trial records of one sweep.
struct TrainLayer {
  std::vector<double> step_ms[2];  ///< [light, heavy]
  std::vector<double> validate_ms;
  std::vector<double> build_ms;
  double wait_ms = 0.0;
  double trial_ms = 0.0;
};

/// Splits a trial's pulls into batches. The interval from the end of one
/// batch pull to the next pull is that step's compute time; the pull that
/// ends an epoch (nothing returned, nothing pending) starts validation,
/// which ends when the epoch callback fires.
void analyse(const TrialRecord& r, TrainLayer& layer) {
  if (r.pulls.empty()) return;
  layer.trial_ms += r.end_ms - r.start_ms;
  layer.build_ms.push_back(r.pulls.front().t0 - r.start_ms);
  std::vector<double> epoch_ends;
  int64_t pending = 0;
  std::optional<double> batch_end;
  for (const Pull& p : r.pulls) {
    layer.wait_ms += p.t1 - p.t0;
    if (batch_end) {
      layer.step_ms[r.heavy ? 1 : 0].push_back(p.t0 - *batch_end);
      batch_end.reset();
    }
    if (p.got) {
      if (++pending == r.batch) {
        batch_end = p.t1;
        pending = 0;
      }
    } else if (pending > 0) {
      batch_end = p.t1;
      pending = 0;
    } else {
      epoch_ends.push_back(p.t1);
    }
  }
  for (size_t i = 0; i < epoch_ends.size() && i < r.callbacks_ms.size(); ++i) {
    layer.validate_ms.push_back(r.callbacks_ms[i] - epoch_ends[i]);
  }
}

// ---- One sweep ------------------------------------------------------------

enum class Mode { kSeq, kDp, kEp };

struct SweepResult {
  double wall_s = 0.0;
  /// Wall time of the whole sweep less the time stolen during it.
  Stolen<double> unstolen;
  /// Mean over trials of the last epoch's train loss: where a fixed
  /// number of samples got the models (deterministic per seed).
  double loss = 0.0;
  double tune_start_ms = 0.0;  ///< tune_run call (sweep_ep)
  std::vector<TrialRecord> trials;
};

bool finite_history(const train::TrainReport& r, int64_t epochs) {
  if (static_cast<int64_t>(r.history.size()) != epochs) return false;
  for (const auto& e : r.history) {
    if (!std::isfinite(e.train_loss)) return false;
  }
  return std::isfinite(r.best_val_dice);
}

/// True when every replica's parameters are bitwise equal to replica 0's.
bool replicas_identical(train::MirroredStrategy& s) {
  const auto ref = s.replica(0).params();
  for (int r = 1; r < s.world_size(); ++r) {
    const auto other = s.replica(r).params();
    if (other.size() != ref.size()) return false;
    for (size_t i = 0; i < ref.size(); ++i) {
      const NDArray& a = *ref[i].value;
      const NDArray& b = *other[i].value;
      if (a.numel() != b.numel() ||
          std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) != 0) {
        return false;
      }
    }
  }
  return true;
}

train::TrainOptions train_options(const core::ExperimentConfig& cfg) {
  train::TrainOptions topt;
  topt.epochs = cfg.epochs;
  topt.lr = cfg.lr;
  topt.loss = cfg.loss;
  return topt;
}

/// One single-device trial, as the paper's training function runs it.
train::TrainReport train_single(core::DistMisPipeline& pipe,
                                const core::ExperimentConfig& cfg,
                                TrialRecord* rec,
                                const train::EpochCallback& extra) {
  nn::UNet3d model(pipe.model_options(cfg));
  train::Trainer trainer(model, train_options(cfg));
  data::BatchStream train(maybe_timed(pipe.train_stream(cfg.augment), rec),
                          cfg.batch_per_replica);
  data::BatchStream val(pipe.val_stream(), cfg.batch_per_replica);
  return trainer.fit(train, &val, [&](const train::EpochStats& s) {
    if (rec != nullptr) rec->callbacks_ms.push_back(now_ms());
    return extra ? extra(s) : true;
  });
}

SweepResult run_one_sweep(Mode mode, core::DistMisPipeline& pipe,
                          const std::vector<core::ExperimentConfig>& cfgs,
                          bool traced, Output& out) {
  const Unstolen timer;
  SweepResult res;
  res.trials.resize(cfgs.size());
  std::vector<double> final_loss(cfgs.size(), 1.0);
  auto last_loss = [](const train::TrainReport& r) {
    return r.history.empty() ? 1.0 : r.history.back().train_loss;
  };
  for (size_t i = 0; i < cfgs.size(); ++i) {
    res.trials[i].heavy = is_heavy(cfgs[i]);
    res.trials[i].batch = cfgs[i].batch_per_replica *
                          (mode == Mode::kDp ? kWorkers : 1);
  }
  auto rec_of = [&](size_t i) { return traced ? &res.trials[i] : nullptr; };

  if (mode == Mode::kEp) {
    std::map<std::string, size_t> by_key;
    std::vector<ray::ParamSet> params;
    for (size_t i = 0; i < cfgs.size(); ++i) {
      params.push_back(cfgs[i].to_params());
      by_key[ray::param_set_str(params.back())] = i;
    }
    std::vector<char> ok(cfgs.size(), 0);
    const ray::Trainable trainable = [&](const ray::ParamSet& p,
                                         ray::Reporter& reporter) {
      const size_t i = by_key.at(ray::param_set_str(p));
      res.trials[i].start_ms = now_ms();
      const auto report = train_single(
          pipe, cfgs[i], rec_of(i), [&](const train::EpochStats& s) {
            reporter.report(s.epoch, {{"train_loss", s.train_loss},
                                      {"val_dice", s.val_dice.value_or(0.0)}});
            return !reporter.should_stop();
          });
      res.trials[i].end_ms = now_ms();
      ok[i] = finite_history(report, cfgs[i].epochs) ? 1 : 0;
      final_loss[i] = last_loss(report);
    };
    ray::TuneOptions topts;
    topts.num_gpus = kWorkers;
    topts.per_trial = ray::Resources{1, 1};
    res.tune_start_ms = now_ms();
    const ray::TuneResult tr = ray::tune_run(trainable, params, topts);
    for (size_t i = 0; i < cfgs.size(); ++i) {
      const ray::Trial& t = tr.trials.at(i);
      out.check(t.status == ray::TrialStatus::kTerminated &&
                    t.iterations == cfgs[i].epochs && ok[i] != 0,
                "ep trial " + cfgs[i].name() + " status " +
                    ray::trial_status_name(t.status) + " " + t.error);
    }
  } else {
    for (size_t i = 0; i < cfgs.size(); ++i) {
      const core::ExperimentConfig& cfg = cfgs[i];
      TrialRecord* rec = rec_of(i);
      res.trials[i].start_ms = now_ms();
      bool ok = false;
      std::string why;
      try {
        if (mode == Mode::kSeq) {
          const auto report = train_single(pipe, cfg, rec, nullptr);
          res.trials[i].end_ms = now_ms();
          ok = finite_history(report, cfg.epochs);
          final_loss[i] = last_loss(report);
        } else {
          train::MirroredOptions mopt;
          mopt.num_replicas = kWorkers;
          mopt.train = train_options(cfg);
          mopt.scale_lr = true;  // the paper's lr x replicas rule
          train::MirroredStrategy strategy(pipe.model_options(cfg), mopt);
          const int64_t global = cfg.batch_per_replica * kWorkers;
          data::BatchStream train(
              maybe_timed(pipe.train_stream(cfg.augment), rec), global);
          data::BatchStream val(pipe.val_stream(), global);
          const auto report =
              strategy.fit(train, &val, [&](const train::EpochStats&) {
                if (rec != nullptr) rec->callbacks_ms.push_back(now_ms());
                return true;
              });
          res.trials[i].end_ms = now_ms();
          const bool same = replicas_identical(strategy);
          if (!same) why = " replicas diverged";
          ok = finite_history(report, cfg.epochs) && same;
          final_loss[i] = last_loss(report);
        }
      } catch (const std::exception& e) {
        res.trials[i].end_ms = now_ms();
        why = std::string(" threw: ") + e.what();
      }
      out.check(ok, "trial " + cfg.name() + why);
    }
  }

  double first = res.trials.front().start_ms;
  double last = res.trials.front().end_ms;
  for (const TrialRecord& r : res.trials) {
    first = std::min(first, r.start_ms);
    last = std::max(last, r.end_ms);
  }
  res.wall_s = (last - first) / 1000.0;
  res.loss = mean(final_loss);
  res.unstolen = timer.stop();
  return res;
}

Mode mode_of(const std::string& workload) {
  if (workload == "sweep_seq") return Mode::kSeq;
  if (workload == "sweep_dp") return Mode::kDp;
  return Mode::kEp;
}

int64_t heavy_param_count(uint64_t seed, const std::string& dir) {
  core::DistMisPipeline pipe(pipeline_options(seed, dir));
  for (const auto& cfg : sweep_configs(seed)) {
    if (is_heavy(cfg)) {
      nn::UNet3d model(pipe.model_options(cfg));
      return model.num_params();
    }
  }
  return 0;
}

/// Per-layer metrics of a traced sweep (see README.md for definitions).
void report_layers(Mode mode, const SweepResult& traced,
                   const obs::MetricsSnapshot& before,
                   const obs::MetricsSnapshot& after,
                   const std::vector<obs::TraceEvent>& events,
                   const Args& args, Output& out) {
  TrainLayer layer;
  for (const TrialRecord& r : traced.trials) analyse(r, layer);
  out.add("data.wait_ms", layer.wait_ms);
  out.add("data.wait_share",
          layer.trial_ms > 0 ? layer.wait_ms / layer.trial_ms : 0.0);
  auto delta = [&](const char* n) { return counter_delta(before, after, n); };
  out.add("data.examples_read", delta("data.examples_read"));
  out.add("data.prefetch_stalls", delta("data.prefetch_stalls"));
  const char* cls[2] = {"light", "heavy"};
  for (int c = 0; c < 2; ++c) {
    out.add(std::string("train.step_ms.p50.") + cls[c],
            quantile(layer.step_ms[c], 0.5));
    out.add(std::string("train.step_ms.p90.") + cls[c],
            quantile(layer.step_ms[c], 0.9));
    out.add(std::string("train.steps.") + cls[c],
            static_cast<double>(layer.step_ms[c].size()));
  }
  out.add("train.validate_ms", median(layer.validate_ms));
  out.add("train.trial_build_ms", median(layer.build_ms));

  out.add("comm.allreduce_bytes", delta("comm.allreduce_bytes"));
  out.add("comm.allreduce_calls", delta("comm.allreduce_calls"));
  out.add("comm.allreduce.buckets", delta("comm.allreduce.buckets"));

  // In-run collective time per call, inside the heavy trials' windows (the
  // probe below times the heavy gradient size).
  std::vector<double> allreduce_ms;
  std::vector<double> sync_wait_ms;
  for (const obs::TraceEvent& e : events) {
    const double t = static_cast<double>(e.ts_us) / 1000.0;
    bool in_heavy = false;
    for (const TrialRecord& r : traced.trials) {
      in_heavy = in_heavy || (r.heavy && t >= r.start_ms && t <= r.end_ms);
    }
    if (std::strcmp(e.name, "comm.allreduce") == 0 && in_heavy) {
      allreduce_ms.push_back(static_cast<double>(e.dur_us) / 1000.0);
    } else if (std::strcmp(e.name, "train.grad_sync.wait") == 0) {
      sync_wait_ms.push_back(static_cast<double>(e.dur_us) / 1000.0);
    }
  }
  if (mode == Mode::kDp) {
    const double transfer_ms = probe_allreduce_ms(
        kWorkers, heavy_param_count(args.seed, args.work_dir + "/probe"));
    const double in_run_ms = mean(allreduce_ms);
    out.add("comm.allreduce_ms", transfer_ms);
    out.add("comm.sync_wait_ms", in_run_ms);
    out.add("comm.peer_wait_share", peer_wait_share(transfer_ms, in_run_ms));
    out.add("train.grad_sync_wait_ms", mean(sync_wait_ms));
  }

  if (mode != Mode::kEp) return;
  // The Tune schedule, from the trainable's entry and exit times.
  std::vector<double> queue_ms;
  std::vector<double> trial_s;
  std::vector<Interval> busy;
  double t1 = traced.tune_start_ms;
  for (const TrialRecord& r : traced.trials) {
    queue_ms.push_back(r.start_ms - traced.tune_start_ms);
    trial_s.push_back((r.end_ms - r.start_ms) / 1000.0);
    busy.push_back({r.start_ms, r.end_ms});
    t1 = std::max(t1, r.end_ms);
  }
  out.add("raylite.queue_wait_ms", mean(queue_ms));
  out.add("raylite.trial_s.p50", median(trial_s));
  out.add("raylite.trial_s.max", quantile(trial_s, 1.0));
  out.add("raylite.slot_idle_share",
          slot_idle_share(busy, kWorkers, traced.tune_start_ms, t1));
}

}  // namespace

core::PipelineOptions pipeline_options(uint64_t seed, const std::string& dir) {
  core::PipelineOptions po;
  po.work_dir = dir;
  po.num_subjects = kSubjects;
  po.phantom.depth = 11;  // 8 after the crop stage
  po.phantom.height = 16;
  po.phantom.width = 16;
  po.phantom.seed = seed;
  po.seed = seed;
  po.model_depth = kModelDepth;
  return po;
}

std::vector<core::ExperimentConfig> sweep_configs(uint64_t seed) {
  std::vector<core::ExperimentConfig> cfgs;
  for (double lr : {1e-3, 1e-4}) {
    for (const char* loss : {"dice", "qdice"}) {
      for (int64_t bf : {4, 8}) {
        core::ExperimentConfig c;
        c.lr = lr;
        c.loss = loss;
        c.base_filters = bf;
        c.augment = bf == 8;
        c.batch_per_replica = kBatchPerReplica;
        c.epochs = kEpochs;
        c.seed = seed * 1000 + cfgs.size();
        cfgs.push_back(c);
      }
    }
  }
  return cfgs;
}

void run_sweep(const Args& args, Output& out) {
  const Mode mode = mode_of(args.workload);
  const std::vector<core::ExperimentConfig> cfgs = sweep_configs(args.seed);

  // Set-up: offline preparation, repeated into fresh directories. Each
  // repetition is a timed unit (see Unstolen and kMaxSteal).
  HostSpeed speed;
  speed.sample();
  std::vector<Stolen<double>> setup_units;
  std::unique_ptr<core::DistMisPipeline> pipe;
  for (int k = 0; k < kSetupRepeats; ++k) {
    pipe = std::make_unique<core::DistMisPipeline>(pipeline_options(
        args.seed, args.work_dir + "/prep" + std::to_string(k)));
    const Unstolen timer;
    pipe->prepare();
    setup_units.push_back(timer.stop());
  }
  int64_t setup_aside = 0;
  const double setup_s =
      median(least_stolen(setup_units, kMaxSteal, kMinUnits, setup_aside));
  speed.sample();

  if (!args.trace) {
    // Whole sweeps until the time is up; the first is a warm-up. Each
    // later sweep is a timed unit (see Unstolen and kMaxSteal).
    std::vector<Stolen<double>> sweep_s;
    std::vector<double> wall_s;
    double loss = -1.0;
    const auto t0 = Clock::now();
    for (size_t n = 0;; ++n) {
      const double t = seconds_since(t0);
      if (n > kMinUnits &&
          ((t >= args.seconds && clean_count(sweep_s, kMaxSteal) >= kMinUnits) ||
           t >= kStealGrace * args.seconds)) {
        break;
      }
      const SweepResult r = run_one_sweep(mode, *pipe, cfgs, false, out);
      out.check(loss < 0 || r.loss == loss,
                "training differs between repeats of one seed");
      // Peak memory of set-up plus one sweep; later repeats only add
      // allocator noise.
      if (loss < 0) out.add("peak_rss_mb", peak_rss_mb());
      loss = r.loss;
      speed.sample();
      if (n == 0) continue;
      sweep_s.push_back(r.unstolen);
      wall_s.push_back(r.wall_s);
    }
    int64_t set_aside = 0;
    out.add("setup_s", setup_s * speed.scale());
    out.add("elapsed_s",
            median(least_stolen(sweep_s, kMaxSteal, kMinUnits, set_aside)) *
                speed.scale());
    out.add("seg_loss", loss);
    out.info.push_back({"sweeps_timed", std::to_string(sweep_s.size())});
    out.info.push_back({"sweeps_set_aside_for_steal", std::to_string(set_aside)});
    out.info.push_back({"sweep_wall_s_median", std::to_string(median(wall_s))});
    out.info.push_back({"host_speed_scale", std::to_string(speed.scale())});
    return;
  }

  // Traced run: one plain sweep, then one with the tracer and wrappers on.
  out.add("core.prepare_s", setup_s * speed.scale());
  const SweepResult plain = run_one_sweep(mode, *pipe, cfgs, false, out);
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  const obs::MetricsSnapshot before = obs::MetricsRegistry::instance().snapshot();
  tracer.enable();
  const SweepResult traced = run_one_sweep(mode, *pipe, cfgs, true, out);
  tracer.disable();
  const obs::MetricsSnapshot after = obs::MetricsRegistry::instance().snapshot();
  const std::vector<obs::TraceEvent> events = tracer.events();
  tracer.clear();
  out.add("obs.trace_overhead", traced.wall_s / plain.wall_s);
  report_layers(mode, traced, before, after, events, args, out);
  probe_nn_and_tensor(args, out);
}

}  // namespace perfbench
