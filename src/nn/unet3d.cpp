#include "nn/unet3d.hpp"

#include <memory>
#include <vector>

#include "common/check.hpp"
#include "nn/layers/activations.hpp"
#include "nn/layers/batchnorm.hpp"
#include "nn/layers/instancenorm.hpp"
#include "nn/layers/concat.hpp"
#include "nn/layers/conv3d.hpp"
#include "nn/layers/conv_transpose3d.hpp"
#include "nn/layers/maxpool3d.hpp"

namespace dmis::nn {

void build_unet3d(const UNet3dOptions& opts,
                  const std::function<void(UNet3dNode)>& add) {
  DMIS_CHECK(opts.depth >= 2, "U-Net depth must be >= 2, got " << opts.depth);
  DMIS_CHECK(opts.in_channels > 0 && opts.out_channels > 0 &&
                 opts.base_filters > 0,
             "channel/filter counts must be positive");
  Rng rng(opts.seed);
  bool synthesis = false;
  const auto node = [&](std::string name, std::unique_ptr<Module> module,
                        std::vector<std::string> inputs) {
    add(UNet3dNode{synthesis, name, std::move(module), std::move(inputs)});
    return name;
  };
  // conv(3x3x3) [+norm] +ReLU; returns the output node name.
  const auto conv_block = [&](const std::string& name,
                              const std::string& input, int64_t cin,
                              int64_t cout) {
    std::string prev = node(
        name + "_conv", std::make_unique<Conv3d>(cin, cout, 3, 1, 1, rng),
        {input});
    switch (opts.norm) {
      case NormKind::kBatch:
        prev = node(name + "_bn", std::make_unique<BatchNorm>(cout), {prev});
        break;
      case NormKind::kInstance:
        prev =
            node(name + "_in", std::make_unique<InstanceNorm>(cout), {prev});
        break;
      case NormKind::kNone:
        break;
    }
    return node(name + "_relu", std::make_unique<ReLU>(), {prev});
  };

  // Analysis path. skip[s] holds the step-s feature map pre-pooling.
  std::vector<std::string> skip(static_cast<size_t>(opts.depth) + 1);
  std::string prev = "input";
  int64_t prev_c = opts.in_channels;
  for (int s = 1; s <= opts.depth; ++s) {
    if (s > 1) {
      prev = node("pool" + std::to_string(s - 1),
                  std::make_unique<MaxPool3d>(2, 2), {prev});
    }
    const int64_t f = opts.filters(s);
    const std::string base = "enc" + std::to_string(s);
    prev = conv_block(base + "a", prev, prev_c, f);
    prev = conv_block(base + "b", prev, f, f);
    skip[static_cast<size_t>(s)] = prev;
    prev_c = f;
  }

  // Synthesis path: up-convolution keeps channels, concat with the skip,
  // then two conv blocks at the step's filter count.
  synthesis = true;
  for (int s = opts.depth - 1; s >= 1; --s) {
    const int64_t f = opts.filters(s);
    const std::string base = "dec" + std::to_string(s);
    node(base + "_up",
         std::make_unique<ConvTranspose3d>(prev_c, prev_c, 2, 2, rng), {prev});
    node(base + "_cat", std::make_unique<Concat>(2),
         {base + "_up", skip[static_cast<size_t>(s)]});
    const int64_t cat_c = prev_c + f;
    prev = conv_block(base + "a", base + "_cat", cat_c, f);
    prev = conv_block(base + "b", prev, f, f);
    prev_c = f;
  }

  // 1x1x1 head + sigmoid (paper Fig 2).
  node("head_conv",
       std::make_unique<Conv3d>(prev_c, opts.out_channels, 1, 1, 0, rng),
       {prev});
  node("head_sigmoid", std::make_unique<Sigmoid>(), {"head_conv"});
}

UNet3d::UNet3d(const UNet3dOptions& opts) : opts_(opts) {
  graph_.add_input("input");
  build_unet3d(opts, [this](UNet3dNode n) {
    graph_.add(n.name, std::move(n.module), n.inputs);
  });
  graph_.set_output("head_sigmoid");
}

const NDArray& UNet3d::forward(const NDArray& input, bool training) {
  const Shape& s = input.shape();
  DMIS_CHECK(s.rank() == 5, "U-Net expects (N,C,D,H,W) input, got "
                                << s.str());
  DMIS_CHECK(s.c() == opts_.in_channels,
             "U-Net expects " << opts_.in_channels << " channels, got "
                              << s.c());
  const int64_t div = spatial_divisor();
  for (int axis = 2; axis < 5; ++axis) {
    DMIS_CHECK(s.dim(axis) % div == 0,
               "spatial extent " << s.dim(axis) << " (axis " << axis
                                 << ") not divisible by " << div);
  }
  return graph_.forward({{"input", &input}}, training);
}

void UNet3d::backward(const NDArray& grad_output) {
  graph_.backward(grad_output);
}

}  // namespace dmis::nn
