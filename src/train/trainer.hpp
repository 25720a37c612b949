// The training loop, shared by Trainer (single device: every batch is
// one step of one U-Net), MirroredStrategy and PipelineParallelStrategy.
// ModelStep is one model's step — forward, Dice-family loss, backward,
// an optional gradient sync, optimizer step (optionally under a cyclic
// learning-rate schedule, as the paper uses when scaling the base
// rate). run_epochs() loops it over epochs with a validation sweep
// computing the hard Dice score, the paper's correctness reference
// metric; its spans and train.* metrics count global batches.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "nn/loss.hpp"
#include "nn/lr_schedule.hpp"
#include "nn/optim.hpp"
#include "nn/unet3d.hpp"

namespace dmis::train {

/// Triangular cyclic-LR configuration (paper section IV-B).
struct CyclicLrSpec {
  double base_lr = 1e-4;
  double max_lr = 1e-3;
  int64_t step_size = 100;  ///< optimizer steps per half-cycle
};

struct TrainOptions {
  int64_t epochs = 10;
  double lr = 1e-4;                    ///< paper: 1e-4 x #GPUs
  std::string optimizer = "adam";      ///< "adam" | "sgd"
  std::string loss = "dice";           ///< "dice" | "qdice" | "bce"
  std::optional<CyclicLrSpec> cyclic;  ///< unset -> constant lr
  /// When set (and a validation stream exists), the parameters are
  /// checkpointed here every time validation Dice improves.
  std::string checkpoint_path;
  /// Stop when val Dice has not improved for this many epochs (0 = off).
  int64_t early_stop_patience = 0;
  /// Accumulate gradients over this many consecutive batches before
  /// each optimizer step — the single-device answer to the paper's
  /// memory-capped batch sizes (effective batch = batch x this).
  int64_t grad_accumulation = 1;
};

struct EpochStats {
  int64_t epoch = 0;          ///< 0-based
  double train_loss = 0.0;    ///< mean over steps
  int64_t steps = 0;
  std::optional<double> val_dice;  ///< set when a validation stream exists
  double lr = 0.0;            ///< lr at the last step of the epoch
};

struct TrainReport {
  std::vector<EpochStats> history;
  double best_val_dice = 0.0;
  int64_t total_steps = 0;
};

/// Per-epoch observer (metrics reporting, early stopping, ...). Return
/// false to stop training after the current epoch.
using EpochCallback = std::function<bool(const EpochStats&)>;

/// Mean per-sample hard Dice of `model` over `val` (eval mode). The
/// stream is reset afterwards so it can be reused next epoch. Defined
/// for nn::UNet3d and nn::PipelinedUNet3d.
template <class Model>
double evaluate_dice(Model& model, data::BatchStream& val);

/// One model's training step. Owns the model's loss, optimizer and lr
/// schedule; defined for nn::UNet3d and nn::PipelinedUNet3d.
template <class Model>
class ModelStep {
 public:
  /// Borrows `model`. `lr_scale` multiplies every rate of the schedule
  /// (`options.lr`, or the cyclic base and max): the data-parallel
  /// linear-scaling rule. Throws InvalidArgument for epochs < 1 or
  /// grad_accumulation < 1.
  ModelStep(Model& model, const TrainOptions& options,
            double lr_scale = 1.0);

  Model& model() { return model_; }
  nn::Optimizer& optimizer() { return *optimizer_; }

  /// Scheduled learning rate for the next optimizer step.
  double lr() const { return schedule_->lr(optimizer_->step_count()); }

  /// Runs one (micro-)batch at learning rate `lr` and returns its mean
  /// loss. A null `batch` (a replica with no samples this step) only
  /// zeroes the gradients, syncs and steps. `sync`, when set, runs
  /// between the last backward and the optimizer step.
  double run(const data::Batch* batch, double lr,
             const std::function<void()>& sync = nullptr);

  /// Applies gradients still accumulating at the end of an epoch.
  void finish() {
    if (pending_ > 0) optimizer_->step();
    pending_ = 0;
  }

 private:
  Model& model_;
  int64_t accumulation_;
  int64_t pending_ = 0;  ///< micro-steps since the last optimizer step
  std::unique_ptr<nn::Loss> loss_;
  std::unique_ptr<nn::Optimizer> optimizer_;
  std::unique_ptr<nn::LrSchedule> schedule_;
};

/// Where a fit stands: the epoch, the global steps completed in it, and
/// the sum of their losses.
struct LoopPosition {
  int64_t epoch = 0;
  int64_t steps = 0;
  double loss_sum = 0.0;
};

/// What a driver hands run_epochs().
template <class Model>
struct Loop {
  /// The step whose model is validated and checkpointed and whose
  /// optimizer drives the lr schedule.
  std::function<ModelStep<Model>&()> lead;
  /// One global step on `batch` at `lr` from position `at`: the batch's
  /// mean loss, or nullopt when abandoned (the loop then restarts from
  /// `*resume`). Unset: the lead step runs the whole batch.
  std::function<std::optional<double>(const data::Batch& batch, double lr,
                                      const LoopPosition& at)>
      step;
  const LoopPosition* resume = nullptr;
  /// Runs after each completed epoch: next epoch, whether training goes on.
  std::function<void(int64_t next_epoch, bool more)> epoch_end;
};

/// Trains over `train` (reset each epoch) for `options.epochs`,
/// evaluating on `val` per epoch when provided.
template <class Model>
TrainReport run_epochs(const TrainOptions& options, const Loop<Model>& loop,
                       data::BatchStream& train, data::BatchStream* val,
                       const EpochCallback& callback);

/// run_epochs() for a driver that trains one model with `step`.
template <class Model>
TrainReport run_epochs(const TrainOptions& options, ModelStep<Model>& step,
                       data::BatchStream& train, data::BatchStream* val,
                       const EpochCallback& callback) {
  Loop<Model> loop;
  loop.lead = [&step]() -> ModelStep<Model>& { return step; };
  return run_epochs(options, loop, train, val, callback);
}

class Trainer {
 public:
  /// Borrows `model`; the caller keeps ownership and the trained weights.
  Trainer(nn::UNet3d& model, const TrainOptions& options);

  /// Trains over `train` (reset each epoch); evaluates on `val` per
  /// epoch when provided.
  TrainReport fit(data::BatchStream& train, data::BatchStream* val,
                  const EpochCallback& callback = nullptr);

  /// Mean hard-Dice over a validation stream (model in eval mode).
  double evaluate(data::BatchStream& val);

  nn::Optimizer& optimizer() { return step_.optimizer(); }

 private:
  TrainOptions options_;
  ModelStep<nn::UNet3d> step_;
};

}  // namespace dmis::train
