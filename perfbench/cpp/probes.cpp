// Layer probes of the traced run: the benchmark calls one layer's public
// function directly, on the sweep configs' shapes, once with a single
// caller and once with four concurrent callers.
#include <immintrin.h>

#include <barrier>
#include <functional>
#include <thread>

#include "bench.hpp"
#include "comm/communicator.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "stats.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"

namespace perfbench {

using namespace dmis;

namespace {

constexpr int kNnIters = 8;

/// Runs fn(i) on `n` threads released together; joins them all.
void run_concurrently(int n, const std::function<void(int)>& fn) {
  std::barrier start(n);
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      fn(i);
    });
  }
  for (auto& t : threads) t.join();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One convolution of the U-Net, as multiply-adds per output voxel.
struct ConvShape {
  int64_t cin = 0;
  int64_t cout = 0;
  int64_t taps = 0;  ///< kernel taps feeding one output voxel
  int64_t d = 0, h = 0, w = 0;  ///< output extents
  double macs() const {
    return static_cast<double>(cin * cout * taps * d * h * w);
  }
};

/// The convolutions of nn::UNet3d (see nn/unet3d.cpp), in graph order.
std::vector<ConvShape> unet_convs(const nn::UNet3dOptions& o, int64_t d,
                                  int64_t h, int64_t w) {
  std::vector<ConvShape> convs;
  auto at = [&](int s, int64_t cin, int64_t cout, int64_t taps) {
    const int sh = s - 1;
    convs.push_back({cin, cout, taps, d >> sh, h >> sh, w >> sh});
  };
  int64_t prev = o.in_channels;
  for (int s = 1; s <= o.depth; ++s) {
    at(s, prev, o.filters(s), 27);
    at(s, o.filters(s), o.filters(s), 27);
    prev = o.filters(s);
  }
  for (int s = o.depth - 1; s >= 1; --s) {
    at(s, prev, prev, 1);  // 2x2x2 stride-2 transposed conv
    at(s, prev + o.filters(s), o.filters(s), 27);
    at(s, o.filters(s), o.filters(s), 27);
    prev = o.filters(s);
  }
  at(1, prev, o.out_channels, 1);
  return convs;
}

/// Forward FLOPs of one pass over a (n, C, d, h, w) batch (2 per MAC).
double forward_flops(const nn::UNet3dOptions& o, const Shape& batch) {
  double macs = 0.0;
  for (const ConvShape& c :
       unet_convs(o, batch.dim(2), batch.dim(3), batch.dim(4))) {
    macs += c.macs();
  }
  return 2.0 * macs * static_cast<double>(batch.dim(0));
}

// ---- nn ----------------------------------------------------------------

struct StepTimes {
  std::vector<double> fwd, loss, bwd, optim;
};

/// Times kNnIters training steps of a fresh model, split by phase.
void time_steps(const nn::UNet3dOptions& opts, const std::string& loss_name,
                double lr, const data::Batch& batch, StepTimes& t) {
  nn::UNet3d model(opts);
  const auto loss = nn::make_loss(loss_name);
  const auto optim = nn::make_optimizer("adam", model.params(), lr);
  for (int it = -2; it < kNnIters; ++it) {  // two warm-up steps
    optim->zero_grad();
    const auto t0 = Clock::now();
    const NDArray& pred = model.forward(batch.images, true);
    const auto t1 = Clock::now();
    nn::LossResult res = loss->compute(pred, batch.labels);
    const auto t2 = Clock::now();
    model.backward(res.grad);
    const auto t3 = Clock::now();
    optim->step();
    const auto t4 = Clock::now();
    if (it < 0) continue;
    t.fwd.push_back(ms_between(t0, t1));
    t.loss.push_back(ms_between(t1, t2));
    t.bwd.push_back(ms_between(t2, t3));
    t.optim.push_back(ms_between(t3, t4));
  }
}

// ---- tensor -------------------------------------------------------------

/// The three GEMMs of one conv layer's training step, per sample:
/// forward W x col, weight gradient dY x col^T, column gradient W^T x dY.
struct ConvGemms {
  int64_t m, k, n;  // cout, cin*taps, voxels
  std::vector<float> w, col, dy, dw, dcol;
  explicit ConvGemms(const ConvShape& c)
      : m(c.cout), k(c.cin * c.taps), n(c.d * c.h * c.w),
        w(m * k, 0.01F), col(k * n, 0.5F), dy(m * n, 0.25F), dw(m * k),
        dcol(k * n) {}
  double flops() const { return 3.0 * 2.0 * static_cast<double>(m * k * n); }
  void run() {
    sgemm(false, false, m, n, k, w.data(), k, col.data(), n, dy.data(), n);
    sgemm(false, true, m, k, n, dy.data(), n, col.data(), n, dw.data(), k);
    sgemm(true, false, k, n, m, w.data(), k, dy.data(), n, dcol.data(), n);
  }
};

/// GFLOP/s of `callers` threads each running the conv GEMMs `iters` times.
double sgemm_gflops(const ConvShape& c, int callers, int iters) {
  std::vector<std::unique_ptr<ConvGemms>> g;
  for (int i = 0; i < callers; ++i) g.push_back(std::make_unique<ConvGemms>(c));
  for (auto& x : g) x->run();  // warm the packing buffers
  const auto t0 = Clock::now();
  run_concurrently(callers, [&](int i) {
    for (int it = 0; it < iters; ++it) g[i]->run();
  });
  const double s = seconds_since(t0);
  return g.front()->flops() * callers * iters / s / 1e9;
}

// ---- host ---------------------------------------------------------------

constexpr int64_t kFmaIters = 50'000'000;

__attribute__((target("avx512f"))) double fma_loop_avx512(int64_t iters) {
  __m512 acc[12];
  for (int j = 0; j < 12; ++j) acc[j] = _mm512_set1_ps(0.001F * j);
  const __m512 a = _mm512_set1_ps(0.999999F);
  const __m512 b = _mm512_set1_ps(1e-7F);
  for (int64_t i = 0; i < iters; ++i) {
    for (int j = 0; j < 12; ++j) acc[j] = _mm512_fmadd_ps(acc[j], a, b);
  }
  float out[16];
  __m512 s = acc[0];
  for (int j = 1; j < 12; ++j) s = _mm512_add_ps(s, acc[j]);
  _mm512_storeu_ps(out, s);
  double r = 0.0;
  for (float x : out) r += x;
  return r;
}

__attribute__((target("avx2,fma"))) double fma_loop_avx2(int64_t iters) {
  __m256 acc[12];
  for (int j = 0; j < 12; ++j) acc[j] = _mm256_set1_ps(0.001F * j);
  const __m256 a = _mm256_set1_ps(0.999999F);
  const __m256 b = _mm256_set1_ps(1e-7F);
  for (int64_t i = 0; i < iters; ++i) {
    for (int j = 0; j < 12; ++j) acc[j] = _mm256_fmadd_ps(acc[j], a, b);
  }
  float out[8];
  __m256 s = acc[0];
  for (int j = 1; j < 12; ++j) s = _mm256_add_ps(s, acc[j]);
  _mm256_storeu_ps(out, s);
  double r = 0.0;
  for (float x : out) r += x;
  return r;
}

/// FMA throughput of every core at once: the denominator for GFLOP/s.
double probe_fma_peak_gflops() {
  const bool avx512 = __builtin_cpu_supports("avx512f");
  const int lanes = avx512 ? 16 : 8;
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<double> sink(n);
  const auto t0 = Clock::now();
  run_concurrently(n, [&](int i) {
    sink[i] = avx512 ? fma_loop_avx512(kFmaIters) : fma_loop_avx2(kFmaIters);
  });
  const double s = seconds_since(t0);
  if (!(mean(sink) > -1e30)) return 0.0;  // keeps the loops observable
  return 2.0 * lanes * 12.0 * kFmaIters * n / s / 1e9;
}

}  // namespace

double reference_loop_ms() {
  constexpr int64_t kIters = 800'000;  // about 2 ms per core
  const bool avx512 = __builtin_cpu_supports("avx512f");
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<double> ms(n);
  std::vector<double> sink(n);
  run_concurrently(n, [&](int i) {
    const auto t0 = Clock::now();
    sink[i] = avx512 ? fma_loop_avx512(kIters) : fma_loop_avx2(kIters);
    ms[i] = ms_between(t0, Clock::now());
  });
  if (!(mean(sink) > -1e30)) return 0.0;  // keeps the loops observable
  return median(ms);
}

void probe_nn_and_tensor(const Args& args, Output& out) {
  core::DistMisPipeline pipe(
      pipeline_options(args.seed, args.work_dir + "/nnprobe"));
  pipe.prepare();
  data::BatchStream batches(pipe.train_stream(false), kBatchPerReplica);
  const data::Batch batch = *batches.next();
  const Shape& shape = batch.images.shape();

  const auto cfgs = sweep_configs(args.seed);
  for (const bool heavy : {false, true}) {
    const std::string cls = heavy ? "heavy" : "light";
    core::ExperimentConfig cfg;
    for (const auto& c : cfgs) {
      if (is_heavy(c) == heavy) {
        cfg = c;
        break;
      }
    }
    const nn::UNet3dOptions opts = pipe.model_options(cfg);
    const double train_flops = 3.0 * forward_flops(opts, shape);
    for (const int callers : {1, kWorkers}) {
      std::vector<StepTimes> per(callers);
      run_concurrently(callers, [&](int i) {
        time_steps(opts, cfg.loss, cfg.lr, batch, per[i]);
      });
      StepTimes all;
      for (const StepTimes& p : per) {
        all.fwd.insert(all.fwd.end(), p.fwd.begin(), p.fwd.end());
        all.loss.insert(all.loss.end(), p.loss.begin(), p.loss.end());
        all.bwd.insert(all.bwd.end(), p.bwd.begin(), p.bwd.end());
        all.optim.insert(all.optim.end(), p.optim.begin(), p.optim.end());
      }
      const std::string sfx = "." + cls + ".x" + std::to_string(callers);
      const double fwd = median(all.fwd);
      const double bwd = median(all.bwd);
      out.add("nn.forward_ms" + sfx, fwd);
      out.add("nn.backward_ms" + sfx, bwd);
      out.add("nn.loss_ms" + sfx, median(all.loss));
      out.add("nn.optim_ms" + sfx, median(all.optim));
      out.add("nn.train_gflops" + sfx,
              callers * train_flops / (fwd + bwd) / 1e6);
    }

    if (!heavy) continue;
    // The heavy model's dominant 3x3x3 convolution by FLOPs.
    ConvShape top;
    for (const ConvShape& c :
         unet_convs(opts, shape.dim(2), shape.dim(3), shape.dim(4))) {
      if (c.taps == 27 && c.macs() > top.macs()) top = c;
    }
    out.add("tensor.sgemm_gflops", sgemm_gflops(top, 1, 200));
    out.add("tensor.sgemm_gflops.x4", sgemm_gflops(top, kWorkers, 100));
    const int64_t vox = top.d * top.h * top.w;
    std::vector<float> im(top.cin * vox, 1.0F);
    std::vector<float> col(top.cin * 27 * vox);
    std::vector<double> im2col_ms;
    for (int it = 0; it < 50; ++it) {
      const auto t0 = Clock::now();
      im2col_3d(im.data(), top.cin, top.d, top.h, top.w, 3, 1, 1, top.d,
                top.h, top.w, col.data());
      im2col_ms.push_back(ms_between(t0, Clock::now()));
    }
    out.add("tensor.im2col_ms", median(im2col_ms));
  }
  out.add("host.fma_peak_gflops", probe_fma_peak_gflops());
}

double probe_allreduce_ms(int ranks, int64_t floats) {
  comm::GroupOptions go;
  go.timeout_ms = 0;
  std::vector<comm::Communicator> comms = comm::make_group(ranks, go);
  constexpr int kIters = 40;
  std::vector<std::vector<double>> ms(ranks);
  run_concurrently(ranks, [&](int r) {
    std::vector<float> buf(static_cast<size_t>(floats), 1.0F);
    for (int it = -3; it < kIters; ++it) {
      comms[r].barrier();
      const auto t0 = Clock::now();
      comms[r].all_reduce_sum(buf);
      if (it >= 0) ms[r].push_back(ms_between(t0, Clock::now()));
    }
  });
  std::vector<double> per_iter;
  for (int it = 0; it < kIters; ++it) {
    double s = 0.0;
    for (int r = 0; r < ranks; ++r) s += ms[r][it];
    per_iter.push_back(s / ranks);
  }
  return median(per_iter);
}

}  // namespace perfbench
