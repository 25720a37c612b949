#include "train/trainer.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "common/check.hpp"
#include "nn/checkpoint.hpp"
#include "tensor/rng.hpp"
#include "train/mirrored.hpp"
#include "train/pipeline_parallel.hpp"

namespace dmis::train {
namespace {

// Builds a tiny learnable dataset: bright cube on dark background, one
// channel, 8^3 volumes, with per-example noise.
std::vector<data::Example> cube_examples(int64_t n, uint64_t seed) {
  std::vector<data::Example> out;
  Rng rng(seed);
  const int64_t S = 8;
  for (int64_t id = 0; id < n; ++id) {
    data::Example ex;
    ex.id = id;
    ex.image = NDArray(Shape{1, S, S, S});
    ex.label = NDArray(Shape{1, S, S, S});
    const int64_t off = rng.uniform_int(1, 3);
    for (int64_t z = 0; z < S; ++z) {
      for (int64_t y = 0; y < S; ++y) {
        for (int64_t x = 0; x < S; ++x) {
          const bool inside = z >= off && z < off + 4 && y >= off &&
                              y < off + 4 && x >= off && x < off + 4;
          const int64_t i = (z * S + y) * S + x;
          ex.image[i] = (inside ? 1.0F : -1.0F) +
                        static_cast<float>(rng.normal(0.0, 0.1));
          ex.label[i] = inside ? 1.0F : 0.0F;
        }
      }
    }
    out.push_back(std::move(ex));
  }
  return out;
}

nn::UNet3dOptions tiny_model(uint64_t seed = 7, bool batch_norm = true) {
  nn::UNet3dOptions opts;
  opts.in_channels = 1;
  opts.base_filters = 2;
  opts.depth = 2;
  opts.seed = seed;
  opts.norm = batch_norm ? nn::NormKind::kBatch : nn::NormKind::kNone;
  return opts;
}

// The drivers that train through the shared loop. The option tests
// below run over every driver that supports the option.
enum class Driver { kTrainer, kMirrored, kPipeline };

const char* driver_name(Driver driver) {
  switch (driver) {
    case Driver::kTrainer: return "Trainer";
    case Driver::kMirrored: return "MirroredStrategy";
    case Driver::kPipeline: return "PipelineParallelStrategy";
  }
  return "?";
}

std::vector<float> flat_params(const std::vector<nn::Param>& params) {
  std::vector<float> out;
  for (const nn::Param& p : params) {
    out.insert(out.end(), p.value->data(),
               p.value->data() + p.value->numel());
  }
  return out;
}

struct Fitted {
  TrainReport report;
  std::vector<float> params;  ///< trained parameters, flattened
};

// Trains a fresh model built from `model_opts` with `driver`: two
// replicas for MirroredStrategy, two microbatches for the pipeline.
Fitted fit_with(Driver driver, const nn::UNet3dOptions& model_opts,
                const TrainOptions& opts, data::BatchStream& train,
                data::BatchStream* val) {
  switch (driver) {
    case Driver::kTrainer: {
      nn::UNet3d model(model_opts);
      Trainer trainer(model, opts);
      TrainReport report = trainer.fit(train, val);
      return {std::move(report), flat_params(model.params())};
    }
    case Driver::kMirrored: {
      MirroredOptions mopt;
      mopt.num_replicas = 2;
      mopt.train = opts;
      MirroredStrategy strategy(model_opts, mopt);
      TrainReport report = strategy.fit(train, val);
      return {std::move(report), flat_params(strategy.model().params())};
    }
    case Driver::kPipeline: {
      PipelineParallelOptions popt;
      popt.num_microbatches = 2;
      popt.train = opts;
      PipelineParallelStrategy strategy(model_opts, popt);
      TrainReport report = strategy.fit(train, val);
      return {std::move(report), flat_params(strategy.model().params())};
    }
  }
  return {};
}

// Validation Dice of the checkpoint at `path`, restored into a fresh,
// differently seeded model of the kind `driver` trains.
double restored_dice(Driver driver, nn::UNet3dOptions model_opts,
                     const std::string& path, data::BatchStream& val) {
  model_opts.seed = 99;
  if (driver == Driver::kPipeline) {
    nn::PipelinedUNet3d restored(model_opts, /*num_microbatches=*/2);
    auto params = restored.checkpoint_params();
    nn::load_checkpoint(path, params);
    return evaluate_dice(restored, val);
  }
  nn::UNet3d restored(model_opts);
  auto params = restored.checkpoint_params();
  nn::load_checkpoint(path, params);
  return evaluate_dice(restored, val);
}

TEST(TrainerTest, LossDecreasesAndDiceRises) {
  nn::UNet3d model(tiny_model());
  TrainOptions opts;
  opts.epochs = 30;
  opts.lr = 5e-3;
  Trainer trainer(model, opts);
  data::BatchStream train(data::from_examples(cube_examples(6, 1)), 2);
  data::BatchStream val(data::from_examples(cube_examples(2, 99)), 2);
  const TrainReport report = trainer.fit(train, &val);
  ASSERT_EQ(report.history.size(), 30U);
  EXPECT_LT(report.history.back().train_loss,
            0.6 * report.history.front().train_loss);
  EXPECT_GT(report.best_val_dice, 0.7);
  EXPECT_EQ(report.history.front().steps, 3);  // ceil(6/2)
  EXPECT_EQ(report.total_steps, 90);
}

TEST(TrainerTest, CallbackCanStopEarly) {
  nn::UNet3d model(tiny_model());
  TrainOptions opts;
  opts.epochs = 50;
  Trainer trainer(model, opts);
  data::BatchStream train(data::from_examples(cube_examples(4, 2)), 2);
  int epochs_seen = 0;
  const TrainReport report =
      trainer.fit(train, nullptr, [&](const EpochStats& stats) {
        ++epochs_seen;
        return stats.epoch < 4;  // stop after 5 epochs
      });
  EXPECT_EQ(epochs_seen, 5);
  EXPECT_EQ(report.history.size(), 5U);
}

TEST(TrainerTest, CyclicLrFollowsTriangle) {
  nn::UNet3d model(tiny_model());
  TrainOptions opts;
  opts.epochs = 4;
  opts.lr = 1e-3;
  opts.cyclic = CyclicLrSpec{1e-4, 1e-3, 4};
  Trainer trainer(model, opts);
  data::BatchStream train(data::from_examples(cube_examples(4, 3)), 1);
  std::vector<double> lrs;
  trainer.fit(train, nullptr, [&](const EpochStats& stats) {
    lrs.push_back(stats.lr);
    return true;
  });
  ASSERT_EQ(lrs.size(), 4U);
  // 4 steps/epoch, half-cycle 4 steps: epoch ends alternate between the
  // rising flank (high) and the falling flank (low), period 2 epochs.
  EXPECT_GT(lrs[0], lrs[1]);
  EXPECT_DOUBLE_EQ(lrs[0], lrs[2]);
  EXPECT_DOUBLE_EQ(lrs[1], lrs[3]);
}

TEST(TrainerTest, QuadraticDiceAlsoTrains) {
  nn::UNet3d model(tiny_model());
  TrainOptions opts;
  opts.epochs = 20;
  opts.lr = 5e-3;
  opts.loss = "qdice";
  Trainer trainer(model, opts);
  data::BatchStream train(data::from_examples(cube_examples(4, 4)), 2);
  const TrainReport report = trainer.fit(train, nullptr);
  EXPECT_LT(report.history.back().train_loss,
            report.history.front().train_loss);
}

TEST(TrainerTest, EvaluateReturnsPerSampleMeanDice) {
  nn::UNet3d model(tiny_model());
  TrainOptions opts;
  Trainer trainer(model, opts);
  data::BatchStream val(data::from_examples(cube_examples(3, 5)), 2);
  const double dice = trainer.evaluate(val);
  EXPECT_GE(dice, 0.0);
  EXPECT_LE(dice, 1.0);
  // Stream usable again (reset happened).
  EXPECT_NEAR(trainer.evaluate(val), dice, 1e-12);
}

TEST(TrainerTest, CheckpointsBestWeights) {
  for (const Driver driver :
       {Driver::kTrainer, Driver::kMirrored, Driver::kPipeline}) {
    SCOPED_TRACE(driver_name(driver));
    const auto path =
        std::filesystem::temp_directory_path() /
        ("dmis_trainer_ckpt_" + std::to_string(::getpid()) + ".bin");
    std::filesystem::remove(path);

    TrainOptions opts;
    opts.epochs = 8;
    opts.lr = 5e-3;
    opts.checkpoint_path = path.string();
    data::BatchStream train(data::from_examples(cube_examples(4, 6)), 2);
    data::BatchStream val(data::from_examples(cube_examples(2, 60)), 2);
    const TrainReport report =
        fit_with(driver, tiny_model(3), opts, train, &val).report;
    ASSERT_TRUE(std::filesystem::exists(path));

    // Restoring into a fresh (differently seeded) model must reproduce
    // the checkpointed validation Dice — including the batch-norm
    // running statistics, which checkpoint_params() captures.
    data::BatchStream val2(data::from_examples(cube_examples(2, 60)), 2);
    const double dice =
        restored_dice(driver, tiny_model(3), path.string(), val2);
    EXPECT_NEAR(dice, report.best_val_dice, 1e-6);
    std::filesystem::remove(path);
  }
}

TEST(TrainerTest, EarlyStoppingOnPlateau) {
  for (const Driver driver :
       {Driver::kTrainer, Driver::kMirrored, Driver::kPipeline}) {
    SCOPED_TRACE(driver_name(driver));
    TrainOptions opts;
    opts.epochs = 100;
    opts.lr = 1e-9;  // effectively frozen -> immediate plateau
    opts.early_stop_patience = 3;
    data::BatchStream train(data::from_examples(cube_examples(4, 7)), 2);
    data::BatchStream val(data::from_examples(cube_examples(2, 70)), 2);
    const TrainReport report =
        fit_with(driver, tiny_model(3), opts, train, &val).report;
    EXPECT_LT(report.history.size(), 10U);  // stopped long before 100
  }
}

TEST(TrainerTest, GradAccumulationMatchesLargeBatch) {
  // Batch 4 with accumulation 1 must equal batch 2 with accumulation 2
  // when the same 4 examples flow in the same order (no batch norm, so
  // no cross-sample coupling). MirroredStrategy cannot accumulate.
  for (const Driver driver : {Driver::kTrainer, Driver::kPipeline}) {
    SCOPED_TRACE(driver_name(driver));
    const auto examples = cube_examples(4, 8);
    const nn::UNet3dOptions mopts = tiny_model(3, /*batch_norm=*/false);

    TrainOptions big_opts;
    big_opts.epochs = 2;
    big_opts.lr = 1e-3;
    data::BatchStream big_stream(data::from_examples(examples), 4);
    const auto big =
        fit_with(driver, mopts, big_opts, big_stream, nullptr).params;

    TrainOptions accum_opts = big_opts;
    accum_opts.grad_accumulation = 2;
    data::BatchStream accum_stream(data::from_examples(examples), 2);
    const auto accum =
        fit_with(driver, mopts, accum_opts, accum_stream, nullptr).params;

    ASSERT_EQ(big.size(), accum.size());
    for (size_t i = 0; i < big.size(); ++i) {
      ASSERT_NEAR(big[i], accum[i], 2e-4F) << "param element " << i;
    }
  }
}

TEST(TrainerTest, RejectsBadOptions) {
  nn::UNet3d model(tiny_model());
  TrainOptions opts;
  opts.epochs = 0;
  EXPECT_THROW(Trainer(model, opts), InvalidArgument);
  TrainOptions bad_loss;
  bad_loss.loss = "focal";
  EXPECT_THROW(Trainer(model, bad_loss), InvalidArgument);
  TrainOptions bad_accum;
  bad_accum.grad_accumulation = 0;
  EXPECT_THROW(Trainer(model, bad_accum), InvalidArgument);
}

}  // namespace
}  // namespace dmis::train
