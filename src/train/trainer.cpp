#include "train/trainer.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "nn/checkpoint.hpp"
#include "nn/metrics.hpp"
#include "nn/pipelined_unet3d.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dmis::train {

template <class Model>
double evaluate_dice(Model& model, data::BatchStream& val) {
  double dice_sum = 0.0;
  int64_t n = 0;
  while (auto batch = val.next()) {
    const auto& pred = model.forward(batch->images, /*training=*/false);
    // Per-sample Dice, matching how the paper reports DSC.
    const int64_t bs = batch->size();
    const int64_t per = pred.numel() / bs;
    for (int64_t i = 0; i < bs; ++i) {
      NDArray p(Shape{per}, std::span<const float>(pred.data() + i * per,
                                                   static_cast<size_t>(per)));
      NDArray t(Shape{per},
                std::span<const float>(batch->labels.data() + i * per,
                                       static_cast<size_t>(per)));
      dice_sum += nn::dice_score(p, t);
      ++n;
    }
  }
  val.reset();
  DMIS_CHECK(n > 0, "validation stream produced no examples");
  return dice_sum / static_cast<double>(n);
}

template <class Model>
ModelStep<Model>::ModelStep(Model& model, const TrainOptions& options,
                            double lr_scale)
    : model_(model), accumulation_(options.grad_accumulation) {
  DMIS_CHECK(options.epochs >= 1, "epochs must be >= 1, got "
                                      << options.epochs);
  DMIS_CHECK(options.grad_accumulation >= 1,
             "grad_accumulation must be >= 1, got "
                 << options.grad_accumulation);
  loss_ = nn::make_loss(options.loss);
  const double lr = options.lr * lr_scale;
  optimizer_ = nn::make_optimizer(options.optimizer, model.params(), lr);
  if (options.cyclic.has_value()) {
    schedule_ = std::make_unique<nn::CyclicLr>(
        options.cyclic->base_lr * lr_scale, options.cyclic->max_lr * lr_scale,
        options.cyclic->step_size);
  } else {
    schedule_ = std::make_unique<nn::ConstantLr>(lr);
  }
}

template <class Model>
double ModelStep<Model>::run(const data::Batch* batch, double lr,
                             const std::function<void()>& sync) {
  if (pending_ == 0) {
    optimizer_->set_lr(lr);
    optimizer_->zero_grad();
  }
  double loss = 0.0;
  if (batch != nullptr) {
    // UNet3d returns a reference to its output, PipelinedUNet3d a value.
    decltype(auto) pred = [&]() -> decltype(auto) {
      DMIS_TRACE_SPAN("train.forward");
      return model_.forward(batch->images, /*training=*/true);
    }();
    nn::LossResult res = [&] {
      DMIS_TRACE_SPAN("train.loss");
      return loss_->compute(pred, batch->labels);
    }();
    if (accumulation_ > 1) {
      // Average the accumulated gradients over the micro-steps.
      res.grad.scale_(1.0F / static_cast<float>(accumulation_));
    }
    {
      DMIS_TRACE_SPAN("train.backward");
      model_.backward(res.grad);
    }
    loss = res.value;
  }
  if (++pending_ < accumulation_) return loss;
  pending_ = 0;
  if (sync) sync();
  DMIS_TRACE_SPAN("train.optim");
  optimizer_->step();
  return loss;
}

template <class Model>
TrainReport run_epochs(const TrainOptions& options, const Loop<Model>& loop,
                       data::BatchStream& train, data::BatchStream* val,
                       const EpochCallback& callback) {
  TrainReport report;
  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter& steps_metric = reg.counter("train.steps");
  obs::Counter& epochs_metric = reg.counter("train.epochs");
  obs::Counter& optim_steps_metric = reg.counter("train.optim_steps");
  obs::Histogram& step_us_metric = reg.histogram("train.step_us");
  int64_t epochs_since_best = 0;
  LoopPosition pos;
  while (pos.epoch < options.epochs) {
    DMIS_TRACE_SPAN("train.epoch", {{"epoch", pos.epoch}});
    double lr = loop.lead().lr();
    bool abandoned = false;
    int64_t skip = pos.steps;  // fast-forward after a mid-epoch restart
    while (auto batch = train.next()) {
      if (skip > 0) {
        --skip;
        continue;
      }
      const int64_t step_t0 = obs::Tracer::now_us();
      DMIS_TRACE_SPAN("train.step", {{"n", batch->size()}});
      ModelStep<Model>& lead = loop.lead();
      lr = lead.lr();
      const int64_t optim_steps = lead.optimizer().step_count();
      const std::optional<double> loss =
          loop.step ? loop.step(*batch, lr, pos) : lead.run(&*batch, lr);
      if (!loss.has_value()) {
        abandoned = true;
        break;
      }
      optim_steps_metric.add(lead.optimizer().step_count() - optim_steps);
      pos.loss_sum += *loss;
      ++pos.steps;
      steps_metric.add(1);
      step_us_metric.observe(
          static_cast<double>(obs::Tracer::now_us() - step_t0));
    }
    train.reset();
    if (abandoned) {
      pos = *loop.resume;
      continue;
    }
    ModelStep<Model>& lead = loop.lead();
    const int64_t optim_steps = lead.optimizer().step_count();
    lead.finish();
    optim_steps_metric.add(lead.optimizer().step_count() - optim_steps);
    epochs_metric.add(1);
    DMIS_CHECK(pos.steps > 0, "training stream produced no batches");

    EpochStats stats;
    stats.epoch = pos.epoch;
    stats.steps = pos.steps;
    stats.train_loss = pos.loss_sum / static_cast<double>(pos.steps);
    stats.lr = lr;
    report.total_steps += pos.steps;
    if (val != nullptr) {
      stats.val_dice = [&] {
        DMIS_TRACE_SPAN("train.validate", {{"epoch", pos.epoch}});
        return evaluate_dice(lead.model(), *val);
      }();
      if (*stats.val_dice > report.best_val_dice || pos.epoch == 0) {
        report.best_val_dice = std::max(report.best_val_dice, *stats.val_dice);
        epochs_since_best = 0;
        if (!options.checkpoint_path.empty()) {
          // Persist trainable parameters AND batch-norm running stats
          // so restored models evaluate identically.
          nn::save_checkpoint(options.checkpoint_path,
                              lead.model().checkpoint_params());
        }
      } else {
        ++epochs_since_best;
      }
    }
    report.history.push_back(stats);
    const bool stop = (callback && !callback(stats)) ||
                      (options.early_stop_patience > 0 &&
                       epochs_since_best >= options.early_stop_patience);
    pos = LoopPosition{pos.epoch + 1};
    if (loop.epoch_end) {
      loop.epoch_end(pos.epoch, !stop && pos.epoch < options.epochs);
    }
    if (stop) break;
  }
  return report;
}

#define DMIS_TRAIN_INSTANTIATE(Model)                                      \
  template double evaluate_dice(Model&, data::BatchStream&);              \
  template class ModelStep<Model>;                                         \
  template TrainReport run_epochs(const TrainOptions&, const Loop<Model>&, \
                                  data::BatchStream&, data::BatchStream*,  \
                                  const EpochCallback&);
DMIS_TRAIN_INSTANTIATE(nn::UNet3d)
DMIS_TRAIN_INSTANTIATE(nn::PipelinedUNet3d)
#undef DMIS_TRAIN_INSTANTIATE

Trainer::Trainer(nn::UNet3d& model, const TrainOptions& options)
    : options_(options), step_(model, options) {}

TrainReport Trainer::fit(data::BatchStream& train, data::BatchStream* val,
                         const EpochCallback& callback) {
  return run_epochs(options_, step_, train, val, callback);
}

double Trainer::evaluate(data::BatchStream& val) {
  return evaluate_dice(step_.model(), val);
}

}  // namespace dmis::train
