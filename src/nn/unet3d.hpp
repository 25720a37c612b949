// The paper's 3D U-Net (Cicek et al. 2016 as adapted in the paper, Fig 2).
//
// Analysis path: `depth` resolution steps; step s uses base_filters *
// 2^(s-1) filters in both of its 3x3x3 convolutions, each followed by
// batch normalization and ReLU, with 2x2x2/stride-2 max pooling between
// steps. Synthesis path: 2x2x2/stride-2 transposed convolutions,
// concatenation with the equal-resolution analysis feature map, then two
// conv+BN+ReLU blocks. A 1x1x1 convolution plus sigmoid yields per-voxel
// probabilities for `out_channels` labels (1 for the paper's binary
// whole-tumor task).
//
// Channel-policy note: the paper reports 406,793 parameters but does not
// pin the transposed-convolution channel policy. This preset keeps the
// channel count through the up-convolution (409,657 parameters for the
// paper configuration, +0.70%); see DESIGN.md section 12.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/graph.hpp"
#include "tensor/rng.hpp"

namespace dmis::nn {

/// Normalization placed before each ReLU.
enum class NormKind {
  kBatch,     ///< Batch norm (the paper's choice).
  kInstance,  ///< Instance norm (nnU-Net-style; batch-size independent).
  kNone,      ///< No normalization.
};

struct UNet3dOptions {
  int64_t in_channels = 4;    ///< MSD Task-1 modalities: T1w, T2w, T1gd, FLAIR.
  int64_t out_channels = 1;   ///< Binary whole-tumor mask.
  int64_t base_filters = 8;   ///< Filters at the first resolution step.
  int depth = 4;              ///< Resolution steps (paper: 4).
  NormKind norm = NormKind::kBatch;  ///< Normalization flavour.
  uint64_t seed = 42;         ///< Initializer stream.

  /// The exact configuration benchmarked in the paper.
  static UNet3dOptions paper() { return UNet3dOptions{}; }

  /// Filters at resolution step s in [1, depth].
  int64_t filters(int s) const { return base_filters << (s - 1); }
};

/// One U-Net node as build_unet3d() emits it.
struct UNet3dNode {
  bool synthesis = false;  ///< Synthesis path or head (else analysis path).
  std::string name;
  std::unique_ptr<Module> module;
  std::vector<std::string> inputs;
};

/// Builds the U-Net of `opts` node by node, in the order that fixes its
/// weights (the RNG draw order): analysis path, synthesis path, head.
/// The first node reads the graph input "input"; the last one is the
/// output "head_sigmoid". UNet3d adds every node to one graph;
/// PipelinedUNet3d cuts them into an encoder and a decoder stage.
void build_unet3d(const UNet3dOptions& opts,
                  const std::function<void(UNet3dNode)>& add);

/// A ready-wired U-Net graph with single-tensor convenience entry points.
class UNet3d {
 public:
  explicit UNet3d(const UNet3dOptions& opts);

  /// Runs the network on a (N, in_channels, D, H, W) volume batch. Each
  /// spatial extent must be divisible by spatial_divisor().
  const NDArray& forward(const NDArray& input, bool training);

  /// Back-propagates d(loss)/d(output); accumulates parameter gradients.
  void backward(const NDArray& grad_output);

  std::vector<Param> params() { return graph_.params(); }
  std::vector<Param> checkpoint_params() {
    return graph_.checkpoint_params();
  }
  int64_t num_params() { return graph_.num_params(); }
  Graph& graph() { return graph_; }
  const UNet3dOptions& options() const { return opts_; }

  /// Input spatial extents must be divisible by 2^(depth-1).
  int64_t spatial_divisor() const { return int64_t{1} << (opts_.depth - 1); }

 private:
  UNet3dOptions opts_;
  Graph graph_;
};

}  // namespace dmis::nn
