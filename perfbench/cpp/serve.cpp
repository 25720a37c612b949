// The serve_mixed workload: an open loop of Poisson arrivals against a
// two-worker serve::SegmentationServer. Most requests are full-volume;
// a fixed share are larger than the server's voxel budget and take the
// sliding-window path. Forward passes only: no backward, optimizer,
// comm, record pipeline or raylite.
#include <cmath>
#include <cstring>
#include <future>
#include <list>
#include <thread>

#include "bench.hpp"
#include "data/phantom.hpp"
#include "nn/checkpoint.hpp"
#include "nn/metrics.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "tensor/rng.hpp"
#include "train/trainer.hpp"

namespace perfbench {

using namespace dmis;

namespace {

constexpr int kSetupRepeats = 9;
// Two workers, not four: four server workers each running parallel_for
// on the 4-thread global pool oversubscribe the cores, and their open-loop
// latency spread by 30-50% between identical runs on a 4-vCPU host.
constexpr int kServeWorkers = 2;
constexpr int kPoolFull = 12;
constexpr int kPoolTiled = 4;
constexpr int kQualityVolumes = 64;  // full-size volumes seg_loss is scored on
constexpr double kTiledShare = 0.2;
constexpr int64_t kVoxelBudget = 10000;   // 15x24x24 fits, 15x24x40 does not
constexpr uint64_t kModelSeed = 2022;     // the served model is a fixed artifact
constexpr double kNominalRate = 30.0;     // vol/s, about 1/4 of capacity
constexpr int64_t kP99Requests = 1000;    // a p99 needs ten samples beyond
constexpr int kPassesPerRep = 2;          // sequential passes over the pool
constexpr double kPhaseSeconds = 1.25;    // one nominal-rate phase

struct Item {
  data::Volume volume;
  core::SegmentationResult reference;
  bool tiled = false;
};

serve::ServeOptions server_options() {
  serve::ServeOptions o;
  o.num_workers = kServeWorkers;
  o.queue_capacity = 512;
  o.default_deadline_ms = 2000;
  o.full_volume_voxel_budget = kVoxelBudget;
  o.sliding_window.patch_depth = 16;
  o.sliding_window.patch_height = 24;
  o.sliding_window.patch_width = 24;
  o.sliding_window.halo = 4;
  return o;
}

core::SegmentOptions segment_options() {
  const serve::ServeOptions so = server_options();
  core::SegmentOptions o;
  o.full_volume_voxel_budget = so.full_volume_voxel_budget;
  o.sliding_window = so.sliding_window;
  return o;
}

/// Trains the light sweep model's first config the way a sweep trial does
/// and checkpoints it, so the server loads a model that segments. The
/// model is the same for every --seed, like a released checkpoint; the
/// seed drives only the requests. Returns the checkpoint path; `model`
/// receives the model options.
std::string train_served_model(const Args& args, nn::UNet3dOptions& model) {
  core::DistMisPipeline pipe(
      pipeline_options(kModelSeed, args.work_dir + "/serve_train"));
  pipe.prepare();
  core::ExperimentConfig cfg;
  for (const auto& c : sweep_configs(kModelSeed)) {
    if (!is_heavy(c)) {
      cfg = c;
      break;
    }
  }
  model = pipe.model_options(cfg);
  nn::UNet3d net(model);
  train::TrainOptions topt;
  topt.epochs = cfg.epochs;
  topt.lr = cfg.lr;
  topt.loss = cfg.loss;
  train::Trainer trainer(net, topt);
  data::BatchStream train(pipe.train_stream(cfg.augment),
                          cfg.batch_per_replica);
  trainer.fit(train, nullptr);
  const std::string path = args.work_dir + "/served.ckpt";
  nn::save_checkpoint(path, net.checkpoint_params());
  return path;
}

/// The request pool: phantom volumes of two sizes, generated from the
/// seed, with their reference outputs from a lone SegmentationService.
std::vector<Item> make_pool(const Args& args, const nn::UNet3dOptions& model,
                            const std::string& ckpt) {
  std::vector<Item> pool;
  for (const bool tiled : {false, true}) {
    data::PhantomOptions po;
    po.depth = 15;
    po.height = 24;
    po.width = tiled ? 40 : 24;
    po.seed = args.seed;
    const data::PhantomGenerator gen(po);
    for (int i = 0; i < (tiled ? kPoolTiled : kPoolFull); ++i) {
      Item it;
      it.volume = gen.generate(i).image;
      it.tiled = tiled;
      pool.push_back(std::move(it));
    }
  }
  core::SegmentationService ref(model, ckpt);
  for (Item& it : pool) it.reference = ref.segment(it.volume, segment_options());
  return pool;
}

/// 1 - mean hard Dice of the served model's masks against the ground
/// truth, over kQualityVolumes full-size phantoms generated from the seed.
double served_loss(const Args& args, const nn::UNet3dOptions& model,
                   const std::string& ckpt) {
  data::PhantomOptions po;
  po.depth = 15;
  po.height = 24;
  po.width = 24;
  po.seed = args.seed;
  const data::PhantomGenerator gen(po);
  core::SegmentationService svc(model, ckpt);
  double sum = 0.0;
  for (int i = 0; i < kQualityVolumes; ++i) {
    const data::PhantomSubject s = gen.generate(1000 + i);
    NDArray truth = s.labels.tensor();
    for (int64_t v = 0; v < truth.numel(); ++v) {
      truth[v] = truth[v] > 0.0F ? 1.0F : 0.0F;
    }
    sum += nn::dice_score(svc.segment(s.image, segment_options()).mask.tensor(),
                          truth);
  }
  return 1.0 - sum / kQualityVolumes;
}

struct Phase {
  std::vector<Request> done;  ///< completed requests, in completion order
  std::vector<bool> done_tiled;
  std::vector<double> admit_us;
  int64_t sent = 0;
  int64_t shed = 0;
  int64_t timeouts = 0;
  int64_t errors = 0;
  int64_t mismatches = 0;
  bool tiled_bitwise = true;
  int64_t failed() const { return shed + timeouts + errors + mismatches; }
  void merge(const Phase& o) {
    done.insert(done.end(), o.done.begin(), o.done.end());
    done_tiled.insert(done_tiled.end(), o.done_tiled.begin(),
                      o.done_tiled.end());
    admit_us.insert(admit_us.end(), o.admit_us.begin(), o.admit_us.end());
    sent += o.sent;
    shed += o.shed;
    timeouts += o.timeouts;
    errors += o.errors;
    mismatches += o.mismatches;
    tiled_bitwise = tiled_bitwise && o.tiled_bitwise;
  }
};

/// Compares a response with the reference: bitwise for full-volume
/// requests, within 1e-5 for tiled ones.
bool matches(const Item& it, const core::SegmentationResult& r,
             bool& bitwise) {
  const NDArray& a = it.reference.probabilities.tensor();
  const NDArray& b = r.probabilities.tensor();
  if (a.numel() != b.numel()) return false;
  const bool same =
      std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0 &&
      r.tumor_voxels == it.reference.tumor_voxels;
  if (same || !it.tiled) return same;
  bitwise = false;
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (std::fabs(a[i] - b[i]) > 1e-5F) return false;
  }
  return true;
}

/// Sends `n` Poisson arrivals at `rate` and observes the replies, all from
/// this one thread: between due times it waits on the outstanding futures.
/// Latency runs from each request's due time.
Phase open_loop(serve::SegmentationServer& server,
                const std::vector<Item>& pool, double rate, int64_t n,
                uint64_t seed) {
  Rng rng(seed);
  std::vector<double> due(n);
  std::vector<size_t> pick(n);
  double t = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.uniform()) / rate * 1000.0;
    due[i] = t;
    const bool tiled = rng.uniform() < kTiledShare;
    pick[i] = tiled ? kPoolFull + rng.uniform_int(0, kPoolTiled - 1)
                    : rng.uniform_int(0, kPoolFull - 1);
  }

  struct Pending {
    size_t item;
    Request req;
    std::future<core::SegmentationResult> f;
  };
  constexpr double kPollMs = 1.0;
  Phase ph;
  ph.sent = n;
  std::list<Pending> live;
  // Settles every ready future.
  auto poll = [&] {
    for (auto it = live.begin(); it != live.end();) {
      if (it->f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++it;
        continue;
      }
      it->req.done_ms = now_ms();
      try {
        const core::SegmentationResult r = it->f.get();
        if (matches(pool[it->item], r, ph.tiled_bitwise)) {
          ph.done.push_back(it->req);
          ph.done_tiled.push_back(pool[it->item].tiled);
        } else {
          ++ph.mismatches;
        }
      } catch (const serve::ServeError& e) {
        if (e.kind() == serve::ServeErrorKind::kDeadlineExceeded) {
          ++ph.timeouts;
        } else {
          ++ph.errors;
        }
      } catch (const std::exception&) {
        ++ph.errors;
      }
      it = live.erase(it);
    }
  };
  // Blocks until the oldest outstanding reply arrives or `limit_ms`
  // passes; replies that overtook it are picked up by the poll after.
  auto wait_some = [&](double limit_ms) {
    const auto d = std::chrono::duration<double, std::milli>(
        std::min(limit_ms, kPollMs));
    if (live.empty()) {
      std::this_thread::sleep_for(d);
    } else {
      live.front().f.wait_for(d);
    }
    poll();
  };

  const double t0 = now_ms();
  for (int64_t i = 0; i < n; ++i) {
    const double due_ms = t0 + due[i];
    for (double now = now_ms(); now < due_ms; now = now_ms()) {
      wait_some(due_ms - now);
    }
    Pending p{pick[i], {due_ms, now_ms(), 0.0}, {}};
    try {
      p.f = server.submit(pool[pick[i]].volume);
      ph.admit_us.push_back((now_ms() - p.req.sent_ms) * 1000.0);
      live.push_back(std::move(p));
    } catch (const serve::ServeError&) {
      ++ph.shed;
    }
  }
  while (!live.empty()) wait_some(kPollMs);
  return ph;
}

std::vector<double> latencies(const Phase& ph) {
  std::vector<double> v;
  for (const Request& r : ph.done) v.push_back(latency_ms(r));
  return v;
}

std::vector<double> service_ms(core::SegmentationService& svc,
                               const std::vector<Item>& pool, bool tiled) {
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    for (const Item& it : pool) {
      if (it.tiled != tiled) continue;
      const double t0 = now_ms();
      svc.segment(it.volume, segment_options());
      ms.push_back(now_ms() - t0);
    }
  }
  return ms;
}

}  // namespace

void run_serve(const Args& args, Output& out) {
  nn::UNet3dOptions model;
  const std::string ckpt = train_served_model(args, model);
  const std::vector<Item> pool = make_pool(args, model, ckpt);

  // Set-up: server construction (one checkpoint load fanned out to the
  // workers) plus a warm-up request on each path. Each repetition is a
  // timed unit (see Unstolen and kMaxSteal).
  HostSpeed speed;
  speed.sample();
  std::vector<Stolen<double>> setup_units;
  std::unique_ptr<serve::SegmentationServer> server;
  for (int k = 0; k < kSetupRepeats; ++k) {
    server.reset();
    const Unstolen timer;
    server = std::make_unique<serve::SegmentationServer>(model, ckpt,
                                                         server_options());
    server->segment(pool.front().volume);  // one full-volume request
    server->segment(pool.back().volume);   // one tiled request
    setup_units.push_back(timer.stop());
    // Peak memory of one set-up; rebuilding the server again only adds
    // allocator noise.
    if (k == 0 && !args.trace) out.add("peak_rss_mb", peak_rss_mb());
  }
  if (!args.trace) {
    speed.sample();
    out.add("seg_loss", served_loss(args, model, ckpt));

    // Repetitions of a nominal-rate phase and sequential passes over the
    // pool until the time is up; the first repetition is a warm-up. Each
    // pass is a timed unit (see Unstolen and kMaxSteal). Every reply, in
    // the phases too, is checked.
    std::vector<Stolen<double>> pass_s;
    uint64_t phase_seed = args.seed * 7919;
    const auto per_phase = static_cast<int64_t>(kNominalRate * kPhaseSeconds);
    const auto t0 = Clock::now();
    for (size_t n = 0;; ++n) {
      const double t = seconds_since(t0);
      if (n > kMinUnits &&
          ((t >= args.seconds && clean_count(pass_s, kMaxSteal) >= kMinUnits) ||
           t >= kStealGrace * args.seconds)) {
        break;
      }
      const Phase ph =
          open_loop(*server, pool, kNominalRate, per_phase, ++phase_seed);
      out.tally(ph.sent, ph.failed(), "nominal-rate request failed");
      for (int b = 0; b < kPassesPerRep; ++b) {
        const Unstolen timer;
        bool bitwise = true;
        for (const Item& it : pool) {
          out.check(matches(it, server->segment(it.volume), bitwise),
                    "sequential response differs from the reference");
        }
        if (n > 0) pass_s.push_back(timer.stop());
      }
      speed.sample();
    }
    int64_t set_aside = 0;
    int64_t setup_aside = 0;
    out.add("setup_s",
            median(least_stolen(setup_units, kMaxSteal, kMinUnits, setup_aside)) *
                speed.scale());
    out.add("elapsed_s",
            median(least_stolen(pass_s, kMaxSteal, kMinUnits, set_aside)) *
                speed.scale());
    out.info.push_back({"passes_timed", std::to_string(pass_s.size())});
    out.info.push_back({"passes_set_aside_for_steal", std::to_string(set_aside)});
    out.info.push_back({"host_speed_scale", std::to_string(speed.scale())});
    server->drain();
    return;
  }

  // Traced run: a plain phase long enough for a p99, then a shorter one
  // at the same load with the tracer on, for the spans.
  const uint64_t phase_seed = args.seed * 7919;
  const Phase plain =
      open_loop(*server, pool, kNominalRate, kP99Requests, phase_seed);
  const int64_t n = static_cast<int64_t>(kNominalRate * 0.3 * args.seconds);
  auto& tracer = obs::Tracer::instance();
  tracer.clear();
  const obs::MetricsSnapshot before = obs::MetricsRegistry::instance().snapshot();
  tracer.enable();
  const Phase traced = open_loop(*server, pool, kNominalRate, n, phase_seed);
  tracer.disable();
  const obs::MetricsSnapshot after = obs::MetricsRegistry::instance().snapshot();
  const std::vector<obs::TraceEvent> events = tracer.events();
  tracer.clear();
  server->drain();
  for (const Phase* ph : {&plain, &traced}) {
    out.tally(ph->sent, ph->failed(), "nominal-rate request failed");
  }
  out.add("obs.trace_overhead",
          median(latencies(traced)) / median(latencies(plain)));

  core::SegmentationService alone(model, ckpt);
  const double full_ms = median(service_ms(alone, pool, false));
  const double tiled_ms = median(service_ms(alone, pool, true));
  out.add("serve.service_ms.full", full_ms);
  out.add("serve.service_ms.tiled", tiled_ms);
  const std::vector<double> lat = latencies(plain);
  out.add("serve.p99_ms", supported_tail(lat, 0.99).value);
  std::vector<double> queue_ms;
  for (size_t i = 0; i < plain.done.size(); ++i) {
    queue_ms.push_back(lat[i] - (plain.done_tiled[i] ? tiled_ms : full_ms));
  }
  out.add("serve.queue_ms", median(queue_ms));
  std::vector<double> infer_ms;
  for (const obs::TraceEvent& e : events) {
    if (std::strcmp(e.name, "serve.infer") == 0) {
      infer_ms.push_back(static_cast<double>(e.dur_us) / 1000.0);
    }
  }
  out.add("serve.infer_ms", median(infer_ms));
  out.add("serve.admit_us", median(plain.admit_us));
  double lag = 0.0;
  for (const Request& r : plain.done) lag = std::max(lag, gen_lag_ms(r));
  out.add("serve.gen_lag_ms.max", lag);
  out.add("serve.shed", static_cast<double>(plain.shed + traced.shed));
  out.add("serve.timeouts", static_cast<double>(plain.timeouts + traced.timeouts));
  out.add("serve.tiled_bitwise",
          plain.tiled_bitwise && traced.tiled_bitwise ? 1.0 : 0.0);
  for (const char* c : {"data.examples_read", "data.prefetch_stalls",
                        "comm.allreduce_bytes", "comm.allreduce_calls",
                        "comm.allreduce.buckets"}) {
    out.add(c, counter_delta(before, after, c));
  }
  probe_nn_and_tensor(args, out);
}

}  // namespace perfbench
