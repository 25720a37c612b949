// PipelineParallelStrategy: training driver for the pipelined (model
// parallel) U-Net — the paper's future-work direction, runnable today
// on the real backend. Every batch is one step of the pipelined model
// under the shared loop of train/trainer.hpp; API mirrors
// Trainer/MirroredStrategy.
#pragma once

#include "nn/pipelined_unet3d.hpp"
#include "train/trainer.hpp"

namespace dmis::train {

struct PipelineParallelOptions {
  int num_microbatches = 2;
  TrainOptions train;
};

class PipelineParallelStrategy {
 public:
  PipelineParallelStrategy(const nn::UNet3dOptions& model_options,
                           const PipelineParallelOptions& options);

  /// Trains on `train` (batch size = global batch, split into
  /// microbatches each step); validates with the pipelined forward.
  TrainReport fit(data::BatchStream& train, data::BatchStream* val,
                  const EpochCallback& callback = nullptr);

  /// Mean per-sample Dice over a validation stream.
  double evaluate(data::BatchStream& val);

  nn::PipelinedUNet3d& model() { return model_; }

 private:
  PipelineParallelOptions options_;
  nn::PipelinedUNet3d model_;
  ModelStep<nn::PipelinedUNet3d> step_;
};

}  // namespace dmis::train
