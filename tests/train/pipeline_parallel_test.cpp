#include "train/pipeline_parallel.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "tensor/rng.hpp"

namespace dmis::train {
namespace {

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

nn::UNet3dOptions tiny_model() {
  nn::UNet3dOptions opts;
  opts.in_channels = 1;
  opts.base_filters = 2;
  opts.depth = 2;
  opts.seed = 31;
  return opts;
}

TEST(PipelineParallelStrategyTest, TrainsToConvergence) {
  PipelineParallelOptions popt;
  popt.num_microbatches = 2;
  popt.train.epochs = 60;
  popt.train.lr = 1e-2;
  PipelineParallelStrategy strategy(tiny_model(), popt);
  data::BatchStream train(data::from_examples(cube_examples(6, 1)), 4);
  data::BatchStream val(data::from_examples(cube_examples(2, 99)), 2);
  const TrainReport report = strategy.fit(train, &val);
  EXPECT_LT(report.history.back().train_loss,
            0.6 * report.history.front().train_loss);
  EXPECT_GT(report.best_val_dice, 0.7);
}

TEST(PipelineParallelStrategyTest, MatchesPlainTrainerWithoutBatchNorm) {
  nn::UNet3dOptions model_opts = tiny_model();
  model_opts.norm = nn::NormKind::kNone;

  TrainOptions topt;
  topt.epochs = 3;
  topt.lr = 1e-3;

  nn::UNet3d mono(model_opts);
  Trainer trainer(mono, topt);
  data::BatchStream train_a(data::from_examples(cube_examples(6, 2)), 4);
  const TrainReport ra = trainer.fit(train_a, nullptr);

  PipelineParallelOptions popt;
  popt.num_microbatches = 2;
  popt.train = topt;
  PipelineParallelStrategy strategy(model_opts, popt);
  data::BatchStream train_b(data::from_examples(cube_examples(6, 2)), 4);
  const TrainReport rb = strategy.fit(train_b, nullptr);

  ASSERT_EQ(ra.history.size(), rb.history.size());
  for (size_t e = 0; e < ra.history.size(); ++e) {
    EXPECT_NEAR(ra.history[e].train_loss, rb.history[e].train_loss, 1e-4)
        << "epoch " << e;
  }
}

TEST(PipelineParallelStrategyTest, EvaluateInRange) {
  PipelineParallelOptions popt;
  popt.num_microbatches = 2;
  popt.train.epochs = 1;
  PipelineParallelStrategy strategy(tiny_model(), popt);
  data::BatchStream val(data::from_examples(cube_examples(3, 5)), 2);
  const double dice = strategy.evaluate(val);
  EXPECT_GE(dice, 0.0);
  EXPECT_LE(dice, 1.0);
}

TEST(PipelineParallelStrategyTest, RejectsBadOptions) {
  PipelineParallelOptions popt;
  popt.num_microbatches = 0;
  EXPECT_THROW(PipelineParallelStrategy(tiny_model(), popt),
               InvalidArgument);
  PipelineParallelOptions zero_epochs;
  zero_epochs.train.epochs = 0;
  EXPECT_THROW(PipelineParallelStrategy(tiny_model(), zero_epochs),
               InvalidArgument);
}

}  // namespace
}  // namespace dmis::train
