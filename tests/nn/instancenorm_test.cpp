#include "nn/layers/instancenorm.hpp"

#include <gtest/gtest.h>

#include "gradcheck.hpp"
#include "nn/unet3d.hpp"

namespace dmis::nn {
namespace {

TEST(InstanceNormTest, NormalizesPerSamplePerChannel) {
  InstanceNorm in_norm(2);
  Rng rng(3);
  NDArray x(Shape{3, 2, 2, 2, 2});
  testing::fill_uniform(x, rng, -5.0F, 9.0F);
  const NDArray y = in_norm.forward1(x, true);

  const int64_t spatial = 8;
  for (int64_t n = 0; n < 3; ++n) {
    for (int64_t c = 0; c < 2; ++c) {
      double sum = 0.0, sq = 0.0;
      const float* yc = y.data() + (n * 2 + c) * spatial;
      for (int64_t i = 0; i < spatial; ++i) {
        sum += yc[i];
        sq += static_cast<double>(yc[i]) * yc[i];
      }
      EXPECT_NEAR(sum / spatial, 0.0, 1e-4);
      EXPECT_NEAR(sq / spatial, 1.0, 2e-2);
    }
  }
}

TEST(InstanceNormTest, TrainEvalIdentical) {
  // No batch statistics -> mode must not matter.
  InstanceNorm a(3);
  InstanceNorm b(3);
  Rng rng(5);
  NDArray x(Shape{2, 3, 2, 2, 2});
  testing::fill_uniform(x, rng, -1.0F, 1.0F);
  const NDArray train = a.forward1(x, true);
  const NDArray eval = b.forward1(x, false);
  EXPECT_TRUE(train.allclose(eval, 0.0F));
}

TEST(InstanceNormTest, BatchIndependence) {
  // Each sample normalizes on its own: sample 0's output must not
  // change when sample 1's content changes.
  InstanceNorm norm(1);
  NDArray x(Shape{2, 1, 2, 2, 2});
  Rng rng(7);
  testing::fill_uniform(x, rng, -1.0F, 1.0F);
  const NDArray y1 = norm.forward1(x, true);
  for (int64_t i = 8; i < 16; ++i) x[i] += 100.0F;  // perturb sample 1 only
  const NDArray y2 = norm.forward1(x, true);
  for (int64_t i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);
}

TEST(InstanceNormTest, GradCheck) {
  InstanceNorm norm(2);
  testing::GradCheckOptions opts;
  opts.tol = 3e-2F;
  testing::expect_gradients_match(norm, {Shape{2, 2, 2, 2, 2}}, opts);
}

TEST(InstanceNormTest, RejectsBadInputs) {
  EXPECT_THROW(InstanceNorm(0), InvalidArgument);
  InstanceNorm norm(2);
  NDArray wrong(Shape{1, 3, 2, 2, 2});
  EXPECT_THROW(norm.forward1(wrong, true), InvalidArgument);
  NDArray scalar_spatial(Shape{1, 2, 1});  // 1 spatial element
  EXPECT_THROW(norm.forward1(scalar_spatial, true), InvalidArgument);
}

TEST(UNet3dNormTest, InstanceNormVariantBuildsAndTrains) {
  UNet3dOptions opts;
  opts.in_channels = 1;
  opts.base_filters = 2;
  opts.depth = 2;
  opts.norm = NormKind::kInstance;
  UNet3d net(opts);
  NDArray x(Shape{1, 1, 4, 4, 4});
  Rng rng(1);
  for (int64_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.normal());
  }
  const NDArray& out = net.forward(x, true);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 4, 4, 4}));
  // Same parameter count as the batch-norm variant (gamma/beta each).
  UNet3dOptions bn_opts = opts;
  bn_opts.norm = NormKind::kBatch;
  UNet3d bn_net(bn_opts);
  EXPECT_EQ(net.num_params(), bn_net.num_params());
}

}  // namespace
}  // namespace dmis::nn
