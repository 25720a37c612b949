#include "train/mirrored.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>

#include "common/check.hpp"
#include "tensor/rng.hpp"

namespace dmis::train {
namespace {

std::vector<data::Example> make_examples(int64_t n, uint64_t seed) {
  std::vector<data::Example> out;
  Rng rng(seed);
  const int64_t S = 4;
  for (int64_t id = 0; id < n; ++id) {
    data::Example ex;
    ex.id = id;
    ex.image = NDArray(Shape{1, S, S, S});
    ex.label = NDArray(Shape{1, S, S, S});
    for (int64_t i = 0; i < ex.image.numel(); ++i) {
      ex.image[i] = static_cast<float>(rng.normal());
      ex.label[i] = rng.uniform() < 0.3 ? 1.0F : 0.0F;
    }
    out.push_back(std::move(ex));
  }
  return out;
}

nn::UNet3dOptions tiny_model(bool batch_norm) {
  nn::UNet3dOptions opts;
  opts.in_channels = 1;
  opts.base_filters = 2;
  opts.depth = 2;
  opts.seed = 11;
  opts.norm = batch_norm ? nn::NormKind::kBatch : nn::NormKind::kNone;
  return opts;
}

uint64_t bits(double v) { return std::bit_cast<uint64_t>(v); }

std::vector<float> flat_params(nn::UNet3d& model) {
  std::vector<float> out;
  for (const nn::Param& p : model.params()) {
    out.insert(out.end(), p.value->data(),
               p.value->data() + p.value->numel());
  }
  return out;
}

// The mirrored-variable invariant: without batch norm, R-replica
// training on global batch B must match single-device training on the
// same batches (identical seeds, lr scaling off).
TEST(MirroredStrategyTest, EquivalentToSingleDeviceWithoutBatchNorm) {
  const auto examples = make_examples(8, 3);

  // Single device.
  nn::UNet3d single(tiny_model(false));
  TrainOptions topt;
  topt.epochs = 3;
  topt.lr = 1e-3;
  Trainer trainer(single, topt);
  data::BatchStream train_a(data::from_examples(examples), 4);
  trainer.fit(train_a, nullptr);

  // Two mirrored replicas, same global batch, unscaled lr.
  MirroredOptions mopt;
  mopt.num_replicas = 2;
  mopt.train = topt;
  mopt.scale_lr = false;
  MirroredStrategy mirrored(tiny_model(false), mopt);
  data::BatchStream train_b(data::from_examples(examples), 4);
  mirrored.fit(train_b, nullptr);

  const auto wa = flat_params(single);
  const auto wb = flat_params(mirrored.model());
  ASSERT_EQ(wa.size(), wb.size());
  for (size_t i = 0; i < wa.size(); ++i) {
    ASSERT_NEAR(wa[i], wb[i], 2e-4F) << "param element " << i;
  }
}

TEST(MirroredStrategyTest, ReplicasStayIdentical) {
  // Batch norm on, 7 examples at global batch 3: the final batch of 1
  // leaves two replicas idle for a step.
  MirroredOptions mopt;
  mopt.num_replicas = 3;
  mopt.train.epochs = 2;
  mopt.train.lr = 1e-3;
  MirroredStrategy mirrored(tiny_model(true), mopt);
  data::BatchStream train(data::from_examples(make_examples(7, 4)), 3);
  mirrored.fit(train, nullptr);
  // All replicas applied identical averaged gradients with identical
  // optimizer state, so trainable parameters match bit for bit.
  ASSERT_EQ(mirrored.world_size(), 3);
  const auto ref = flat_params(mirrored.replica(0));
  for (int r = 1; r < mirrored.world_size(); ++r) {
    const auto other = flat_params(mirrored.replica(r));
    ASSERT_EQ(other.size(), ref.size());
    EXPECT_EQ(std::memcmp(other.data(), ref.data(),
                          sizeof(float) * ref.size()),
              0)
        << "replica " << r << " diverged from replica 0";
  }
}

TEST(MirroredStrategyTest, DeterministicAcrossRuns) {
  const auto run_once = [] {
    MirroredOptions mopt;
    mopt.num_replicas = 2;
    mopt.train.epochs = 2;
    mopt.train.lr = 1e-3;
    MirroredStrategy mirrored(tiny_model(false), mopt);
    data::BatchStream train(data::from_examples(make_examples(4, 5)), 2);
    mirrored.fit(train, nullptr);
    return flat_params(mirrored.model());
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(MirroredStrategyTest, RaggedBatchHandled) {
  // 5 examples, global batch 4, 3 replicas: final batch of 1 leaves two
  // replicas idle; training must stay exact (no NaNs, loss finite).
  MirroredOptions mopt;
  mopt.num_replicas = 3;
  mopt.train.epochs = 2;
  mopt.train.lr = 1e-3;
  MirroredStrategy mirrored(tiny_model(true), mopt);
  data::BatchStream train(data::from_examples(make_examples(5, 6)), 4);
  const TrainReport report = mirrored.fit(train, nullptr);
  ASSERT_EQ(report.history.size(), 2U);
  EXPECT_EQ(report.history[0].steps, 2);  // ceil(5/4)
  EXPECT_TRUE(std::isfinite(report.history.back().train_loss));
}

TEST(MirroredStrategyTest, LrScalingRule) {
  MirroredOptions mopt;
  mopt.num_replicas = 4;
  mopt.train.lr = 1e-4;
  MirroredStrategy scaled(tiny_model(false), mopt);
  EXPECT_DOUBLE_EQ(scaled.effective_lr(), 4e-4);
  mopt.scale_lr = false;
  MirroredStrategy unscaled(tiny_model(false), mopt);
  EXPECT_DOUBLE_EQ(unscaled.effective_lr(), 1e-4);
}

TEST(MirroredStrategyTest, ValidationUsesReplicaZero) {
  MirroredOptions mopt;
  mopt.num_replicas = 2;
  mopt.train.epochs = 1;
  MirroredStrategy mirrored(tiny_model(true), mopt);
  data::BatchStream train(data::from_examples(make_examples(4, 7)), 2);
  data::BatchStream val(data::from_examples(make_examples(2, 8)), 2);
  const TrainReport report = mirrored.fit(train, &val);
  ASSERT_TRUE(report.history.front().val_dice.has_value());
  EXPECT_GE(*report.history.front().val_dice, 0.0);
  EXPECT_LE(*report.history.front().val_dice, 1.0);
}

// The linear-scaling rule covers the cyclic schedule too: with scale_lr,
// a 2-replica run steps its optimizers at 2x the cyclic base rate at
// step 0 and at 2x the cyclic max at the peak.
TEST(MirroredStrategyTest, ScaleLrScalesTheCyclicSchedule) {
  TrainOptions topt;
  topt.epochs = 2;
  topt.cyclic = CyclicLrSpec{1e-4, 1e-3, 1};  // step 0: base, step 1: max
  MirroredOptions mopt;
  mopt.num_replicas = 2;
  mopt.train = topt;
  mopt.scale_lr = true;
  MirroredStrategy mirrored(tiny_model(false), mopt);
  // One global batch per epoch, so epoch e runs optimizer step e.
  data::BatchStream train(data::from_examples(make_examples(4, 5)), 4);
  const TrainReport report = mirrored.fit(train, nullptr);
  ASSERT_EQ(report.history.size(), 2U);
  EXPECT_DOUBLE_EQ(report.history[0].lr, 2 * 1e-4);
  EXPECT_DOUBLE_EQ(report.history[1].lr, 2 * 1e-3);
}

// One replica is the single-device Trainer: same weights, and the same
// TrainReport down to the last bit, with and without a validation
// stream and a cyclic schedule.
TEST(MirroredStrategyTest, SingleReplicaDegeneratesToTrainer) {
  for (const bool validate : {false, true}) {
    SCOPED_TRACE(validate ? "validation + cyclic lr" : "constant lr");
    TrainOptions topt;
    topt.epochs = 3;
    topt.lr = 1e-3;
    if (validate) topt.cyclic = CyclicLrSpec{1e-4, 1e-3, 2};
    // 5 examples at batch 2: a ragged final batch every epoch.
    const auto examples = make_examples(5, 9);
    const auto val_examples = make_examples(3, 10);

    MirroredOptions mopt;
    mopt.num_replicas = 1;
    mopt.train = topt;
    MirroredStrategy mirrored(tiny_model(false), mopt);
    data::BatchStream train_a(data::from_examples(examples), 2);
    data::BatchStream val_a(data::from_examples(val_examples), 2);
    const TrainReport ra =
        mirrored.fit(train_a, validate ? &val_a : nullptr);

    nn::UNet3d single(tiny_model(false));
    Trainer trainer(single, topt);
    data::BatchStream train_b(data::from_examples(examples), 2);
    data::BatchStream val_b(data::from_examples(val_examples), 2);
    const TrainReport rb = trainer.fit(train_b, validate ? &val_b : nullptr);

    const auto wa = flat_params(mirrored.model());
    const auto wb = flat_params(single);
    ASSERT_EQ(wa.size(), wb.size());
    for (size_t i = 0; i < wa.size(); ++i) ASSERT_EQ(wa[i], wb[i]);

    ASSERT_EQ(ra.history.size(), rb.history.size());
    for (size_t e = 0; e < ra.history.size(); ++e) {
      const EpochStats& a = ra.history[e];
      const EpochStats& b = rb.history[e];
      EXPECT_EQ(a.epoch, b.epoch);
      EXPECT_EQ(a.steps, b.steps) << "epoch " << e;
      EXPECT_EQ(bits(a.train_loss), bits(b.train_loss)) << "epoch " << e;
      EXPECT_EQ(bits(a.lr), bits(b.lr)) << "epoch " << e;
      ASSERT_EQ(a.val_dice.has_value(), validate);
      ASSERT_EQ(b.val_dice.has_value(), validate);
      if (validate) {
        EXPECT_EQ(bits(*a.val_dice), bits(*b.val_dice)) << "epoch " << e;
      }
    }
    EXPECT_EQ(bits(ra.best_val_dice), bits(rb.best_val_dice));
    EXPECT_EQ(ra.total_steps, rb.total_steps);
  }
}

// The overlapped bucketed gradient sync (the default) must match the
// legacy blocking per-tensor allreduce (bucket_bytes = 0) within 1e-6
// on seeded multi-rank training — the PR's parity acceptance gate.
class BucketedStrategyParity : public ::testing::TestWithParam<int> {};

TEST_P(BucketedStrategyParity, MatchesPerTensorPath) {
  const int replicas = GetParam();
  const auto run_with_buckets = [&](size_t bucket_bytes) {
    MirroredOptions mopt;
    mopt.num_replicas = replicas;
    mopt.train.epochs = 2;
    mopt.train.lr = 1e-3;
    mopt.bucket_bytes = bucket_bytes;
    MirroredStrategy mirrored(tiny_model(false), mopt);
    data::BatchStream train(
        data::from_examples(make_examples(2 * replicas + 1, 21)), replicas);
    mirrored.fit(train, nullptr);  // ragged final batch -> idle replicas
    return flat_params(mirrored.model());
  };
  // Tiny cap -> several buckets per step, exercising eager mid-backward
  // launches rather than one flush-time bucket.
  const auto bucketed = run_with_buckets(2048);
  const auto per_tensor = run_with_buckets(0);
  ASSERT_EQ(bucketed.size(), per_tensor.size());
  for (size_t i = 0; i < bucketed.size(); ++i) {
    ASSERT_NEAR(bucketed[i], per_tensor[i], 1e-6F) << "param element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BucketedStrategyParity,
                         ::testing::Values(2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "replicas" + std::to_string(info.param);
                         });

TEST(MirroredStrategyTest, RejectsBadReplicaCount) {
  MirroredOptions mopt;
  mopt.num_replicas = 0;
  EXPECT_THROW(MirroredStrategy(tiny_model(false), mopt), InvalidArgument);
}

// Options the strategy cannot honour fail at construction instead of
// being ignored: the bucketer launches collectives mid-backward, so it
// cannot hold gradients back for accumulation.
TEST(MirroredStrategyTest, RejectsOptionsItCannotHonour) {
  MirroredOptions zero_epochs;
  zero_epochs.train.epochs = 0;
  EXPECT_THROW(MirroredStrategy(tiny_model(false), zero_epochs),
               InvalidArgument);
  MirroredOptions accumulate;
  accumulate.train.grad_accumulation = 2;
  EXPECT_THROW(MirroredStrategy(tiny_model(false), accumulate),
               InvalidArgument);
}

}  // namespace
}  // namespace dmis::train
