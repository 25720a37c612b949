#include "nn/pipelined_unet3d.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

#include "common/check.hpp"

namespace dmis::nn {
namespace {

NDArray slice_batch(const NDArray& batch, int64_t lo, int64_t hi) {
  const Shape& s = batch.shape();
  const int64_t per = batch.numel() / s.n();
  Shape out_shape = s.with_dim(0, hi - lo);
  return NDArray(out_shape,
                 std::span<const float>(batch.data() + lo * per,
                                        static_cast<size_t>((hi - lo) * per)));
}

/// Single-producer single-consumer rendezvous of microbatch indices.
class IndexChannel {
 public:
  void push(int value) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ready_.push_back(value);
    }
    cv_.notify_one();
  }
  int pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return !ready_.empty(); });
    const int value = ready_.front();
    ready_.erase(ready_.begin());
    return value;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<int> ready_;
};

}  // namespace

PipelinedUNet3d::PipelinedUNet3d(const UNet3dOptions& options,
                                 int num_microbatches)
    : opts_(options), num_microbatches_(num_microbatches) {
  DMIS_CHECK(num_microbatches >= 1, "need >= 1 microbatch");

  // UNet3d's own builder, cut at the bottleneck: the analysis path goes
  // to stage 0, the synthesis path and head to stage 1. Every encoder
  // tensor the decoder reads — the bottleneck and the skips — crosses
  // the cut and becomes a decoder input of the same name.
  encoder_.add_input("input");
  std::set<std::string> encoder_nodes;
  std::string bottom;
  build_unet3d(opts_, [&](UNet3dNode n) {
    if (!n.synthesis) {
      encoder_.add(n.name, std::move(n.module), n.inputs);
      encoder_nodes.insert(n.name);
      bottom = n.name;
      return;
    }
    for (const std::string& in : n.inputs) {
      if (encoder_nodes.erase(in) != 0) {  // first read across the cut
        decoder_.add_input(in);
        boundary_.push_back(in);
      }
    }
    decoder_.add(n.name, std::move(n.module), n.inputs);
  });
  encoder_.set_output(bottom);
  decoder_.set_output("head_sigmoid");
}

std::map<std::string, NDArray> PipelinedUNet3d::run_stage0(
    const NDArray& input, bool training) {
  (void)encoder_.forward({{"input", &input}}, training);
  std::map<std::string, NDArray> boundary;
  for (const std::string& name : boundary_) {
    boundary.emplace(name, encoder_.node_output(name));
  }
  return boundary;
}

NDArray PipelinedUNet3d::forward(const NDArray& input, bool training) {
  const Shape& shape = input.shape();
  DMIS_CHECK(shape.rank() == 5, "expects (N,C,D,H,W), got " << shape.str());
  const int64_t n = shape.n();
  forward_was_training_ = training;

  // Microbatch boundaries (near-equal contiguous slices). A ragged
  // final batch smaller than the configured microbatch count degrades
  // gracefully to one sample per slice.
  const int m = static_cast<int>(
      std::min<int64_t>(num_microbatches_, n));
  inflight_.assign(static_cast<size_t>(m), Microbatch{});
  for (int i = 0; i < m; ++i) {
    inflight_[static_cast<size_t>(i)].lo = n * i / m;
    inflight_[static_cast<size_t>(i)].hi = n * (i + 1) / m;
  }

  std::vector<NDArray> outputs(static_cast<size_t>(m));
  IndexChannel to_stage1;

  // Stage 0 on its own thread; stage 1 on the calling thread. With the
  // fill-drain schedule, stage 0 runs microbatch i+1 while stage 1
  // consumes microbatch i.
  std::thread stage0([&] {
    for (int i = 0; i < m; ++i) {
      Microbatch& mb = inflight_[static_cast<size_t>(i)];
      mb.stage0_input = slice_batch(input, mb.lo, mb.hi);
      mb.boundary = run_stage0(mb.stage0_input, training);
      to_stage1.push(i);
    }
  });
  for (int done = 0; done < m; ++done) {
    const int i = to_stage1.pop();
    Microbatch& mb = inflight_[static_cast<size_t>(i)];
    std::map<std::string, const NDArray*> feeds;
    for (const auto& [name, tensor] : mb.boundary) {
      feeds.emplace(name, &tensor);
    }
    outputs[static_cast<size_t>(i)] = decoder_.forward(feeds, training);
  }
  stage0.join();

  // Stitch microbatch outputs back into the global batch.
  const Shape& out_shape0 = outputs.front().shape();
  Shape full = out_shape0.with_dim(0, n);
  NDArray out(full);
  const int64_t per = outputs.front().numel() /
                      out_shape0.n();
  for (int i = 0; i < m; ++i) {
    const Microbatch& mb = inflight_[static_cast<size_t>(i)];
    std::copy(outputs[static_cast<size_t>(i)].data(),
              outputs[static_cast<size_t>(i)].data() +
                  (mb.hi - mb.lo) * per,
              out.data() + mb.lo * per);
  }
  return out;
}

void PipelinedUNet3d::backward(const NDArray& grad_output) {
  DMIS_CHECK(!inflight_.empty(), "backward before forward");
  const int m = static_cast<int>(inflight_.size());
  const int64_t per = grad_output.numel() / grad_output.shape().n();
  (void)per;

  // Reverse fill-drain: stage 1 (this thread) recomputes and
  // back-propagates microbatch m-1..0, handing boundary gradients to
  // the stage-0 thread.
  std::vector<std::map<std::string, NDArray>> boundary_grads(
      static_cast<size_t>(m));
  IndexChannel to_stage0;

  std::thread stage0([&] {
    for (int done = 0; done < m; ++done) {
      const int i = to_stage0.pop();
      Microbatch& mb = inflight_[static_cast<size_t>(i)];
      // Recompute stage-0 forward to restore layer stashes, then seed
      // the bottleneck + skip nodes with the downstream gradients.
      (void)run_stage0(mb.stage0_input, forward_was_training_);
      std::map<std::string, const NDArray*> seeds;
      for (const auto& [name, grad] : boundary_grads[static_cast<size_t>(i)]) {
        seeds.emplace(name, &grad);
      }
      encoder_.backward_multi(seeds);
    }
  });

  for (int i = m - 1; i >= 0; --i) {
    Microbatch& mb = inflight_[static_cast<size_t>(i)];
    // Recompute stage-1 forward from the saved boundary tensors.
    std::map<std::string, const NDArray*> feeds;
    for (const auto& [name, tensor] : mb.boundary) {
      feeds.emplace(name, &tensor);
    }
    (void)decoder_.forward(feeds, forward_was_training_);
    const NDArray grad_slice = slice_batch(grad_output, mb.lo, mb.hi);
    decoder_.backward(grad_slice);

    auto& grads = boundary_grads[static_cast<size_t>(i)];
    for (const std::string& name : boundary_) {
      grads.emplace(name, decoder_.input_grad(name));
    }
    to_stage0.push(i);
  }
  stage0.join();
  inflight_.clear();
}

std::vector<Param> PipelinedUNet3d::params() {
  std::vector<Param> out;
  for (Param& p : encoder_.params()) {
    out.push_back(Param{"stage0." + p.name, p.value, p.grad});
  }
  for (Param& p : decoder_.params()) {
    out.push_back(Param{"stage1." + p.name, p.value, p.grad});
  }
  return out;
}

std::vector<Param> PipelinedUNet3d::checkpoint_params() {
  std::vector<Param> out;
  for (Param& p : encoder_.checkpoint_params()) {
    out.push_back(Param{"stage0." + p.name, p.value, p.grad});
  }
  for (Param& p : decoder_.checkpoint_params()) {
    out.push_back(Param{"stage1." + p.name, p.value, p.grad});
  }
  return out;
}

int64_t PipelinedUNet3d::num_params() { return param_count(params()); }

}  // namespace dmis::nn
