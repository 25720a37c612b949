// Gradient compression: the fp16 wire codec's IEEE edge cases (NaN,
// Inf, denormals, overflow-to-Inf saturation), bulk pack/unpack
// agreement with the scalar reference (cross-validates the F16C path
// on hardware that has it), the fused pack_scale, top-k selection
// determinism and tie-breaking, error-feedback accounting, and
// compressed collectives matching the uncompressed reference across
// ring/tree/hier.
#include "comm/compress.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "comm/communicator.hpp"
#include "tensor/rng.hpp"

namespace dmis::comm {
namespace {

float rt(float v) { return fp16_decode(fp16_encode(v)); }

TEST(Fp16CodecTest, ExactValuesRoundTrip) {
  // Every value below is exactly representable in binary16.
  for (float v : {0.0F, -0.0F, 1.0F, -1.0F, 2.0F, 0.5F, 0.25F, 1024.0F,
                  65504.0F, -65504.0F, 6.103515625e-05F /* min normal */}) {
    EXPECT_EQ(rt(v), v) << v;
  }
  // Signed zero keeps its sign bit.
  EXPECT_TRUE(std::signbit(rt(-0.0F)));
  EXPECT_FALSE(std::signbit(rt(0.0F)));
}

TEST(Fp16CodecTest, NanAndInfSurvive) {
  EXPECT_TRUE(std::isnan(rt(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_TRUE(std::isnan(rt(std::numeric_limits<float>::signaling_NaN())));
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(rt(inf), inf);
  EXPECT_EQ(rt(-inf), -inf);
}

TEST(Fp16CodecTest, OverflowSaturatesToInf) {
  const float inf = std::numeric_limits<float>::infinity();
  // 65504 is the largest finite half. RNE: values below the midpoint
  // 65520 round down to it; the midpoint and above carry into Inf.
  EXPECT_EQ(rt(65504.0F), 65504.0F);
  EXPECT_EQ(rt(65519.0F), 65504.0F);
  EXPECT_EQ(rt(65520.0F), inf);
  EXPECT_EQ(rt(70000.0F), inf);
  EXPECT_EQ(rt(-65519.0F), -65504.0F);
  EXPECT_EQ(rt(-65520.0F), -inf);
  EXPECT_EQ(rt(std::numeric_limits<float>::max()), inf);
}

TEST(Fp16CodecTest, DenormalsAreProducedNotFlushed) {
  // Largest subnormal: (1023/1024) * 2^-14.
  const float max_sub = 1023.0F / 1024.0F * std::exp2(-14.0F);
  EXPECT_EQ(rt(max_sub), max_sub);
  // Smallest subnormal: 2^-24.
  const float min_sub = std::exp2(-24.0F);
  EXPECT_EQ(rt(min_sub), min_sub);
  // A value between subnormal steps rounds to the nearest step, not 0.
  const float mid = 3.0F * std::exp2(-24.0F);  // exactly 3 ULPs of half
  EXPECT_EQ(rt(mid), mid);
  // Below half of the smallest subnormal: underflows to signed zero.
  EXPECT_EQ(rt(std::exp2(-26.0F)), 0.0F);
  EXPECT_TRUE(std::signbit(rt(-std::exp2(-26.0F))));
}

TEST(Fp16CodecTest, RoundToNearestEvenOnNormals) {
  // 1 + 2^-11 sits exactly between 1.0 and the next half (1 + 2^-10);
  // RNE picks the even mantissa, 1.0. One float ULP above rounds up.
  const float half_ulp = std::exp2(-11.0F);
  EXPECT_EQ(rt(1.0F + half_ulp), 1.0F);
  EXPECT_EQ(rt(std::nextafterf(1.0F + half_ulp, 2.0F)), 1.0F + 2 * half_ulp);
  // Relative error of a normal round-trip is bounded by 2^-11.
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float v = static_cast<float>(rng.uniform(-100.0, 100.0));
    EXPECT_NEAR(rt(v), v, std::fabs(v) * half_ulp + 1e-8F) << v;
  }
}

TEST(Fp16CodecTest, BulkPackMatchesScalarCodec) {
  // fp16_pack/fp16_unpack may take the F16C path; the result must be
  // bit-identical to the scalar reference for every element, including
  // the specials. Odd length exercises the vector tail.
  std::vector<float> src = {0.0F, -0.0F, 1.5F, -2.25F, 65519.0F, 65520.0F,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::exp2(-24.0F), -std::exp2(-15.0F)};
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    src.push_back(static_cast<float>(rng.uniform(-1e5, 1e5)));
  }
  std::vector<uint16_t> bulk(src.size());
  fp16_pack(src.data(), src.size(), bulk.data());
  for (size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(bulk[i], fp16_encode(src[i])) << "i=" << i << " v=" << src[i];
  }
  std::vector<float> back(src.size());
  fp16_unpack(bulk.data(), bulk.size(), back.data());
  for (size_t i = 0; i < src.size(); ++i) {
    const float ref = fp16_decode(bulk[i]);
    if (std::isnan(ref)) {
      EXPECT_TRUE(std::isnan(back[i])) << i;
    } else {
      EXPECT_EQ(back[i], ref) << i;
    }
  }
}

TEST(Fp16CodecTest, PackScaleFoldsTheMultiply) {
  Rng rng(13);
  std::vector<float> src(513);  // odd-ish length for the tails
  for (auto& v : src) v = static_cast<float>(rng.uniform(-10.0, 10.0));
  const float scale = 3.0F;
  std::vector<uint16_t> fused(src.size());
  fp16_pack_scale(src.data(), src.size(), fused.data(), scale);
  std::vector<float> scaled(src.size());
  for (size_t i = 0; i < src.size(); ++i) scaled[i] = src[i] * scale;
  std::vector<uint16_t> two_pass(src.size());
  fp16_pack(scaled.data(), scaled.size(), two_pass.data());
  EXPECT_EQ(fused, two_pass);
  // scale == 1 is exactly fp16_pack.
  fp16_pack_scale(src.data(), src.size(), fused.data(), 1.0F);
  fp16_pack(src.data(), src.size(), two_pass.data());
  EXPECT_EQ(fused, two_pass);
}

TEST(CompressModeTest, ParseAndEnvResolution) {
  // The DMIS_COMPRESS words map to the enumerators by position.
  for (const CompressMode mode :
       {CompressMode::kNone, CompressMode::kFp16, CompressMode::kTopK}) {
    EXPECT_EQ(knobs::parse<CompressMode>(Knob::kCompress,
                                         compress_mode_name(mode)),
              mode);
  }
  EXPECT_THROW(knobs::parse<CompressMode>(Knob::kCompress, "gzip"),
               InvalidArgument);

  // Save the knobs: verify.sh re-runs this suite under DMIS_COMPRESS
  // sweeps, and the sweep's setting must survive this test.
  const char* prior_mode = ::getenv("DMIS_COMPRESS");
  const std::string saved_mode = prior_mode != nullptr ? prior_mode : "";
  const char* prior_ratio = ::getenv("DMIS_TOPK_RATIO");
  const std::string saved_ratio = prior_ratio != nullptr ? prior_ratio : "";

  ::setenv("DMIS_COMPRESS", "fp16", 1);
  ::setenv("DMIS_TOPK_RATIO", "0.25", 1);
  CompressOptions configured;
  configured.mode = CompressMode::kTopK;
  configured.topk_ratio = 0.5;
  // What GradBucketer applies on top of its CompressOptions.
  const auto resolved = [&] {
    return CompressOptions{
        knobs::get<CompressMode>(Knob::kCompress, configured.mode),
        knobs::get<double>(Knob::kTopkRatio, configured.topk_ratio)};
  };
  EXPECT_EQ(resolved().mode, CompressMode::kFp16);  // env wins
  EXPECT_DOUBLE_EQ(resolved().topk_ratio, 0.25);
  ::unsetenv("DMIS_COMPRESS");
  ::unsetenv("DMIS_TOPK_RATIO");
  EXPECT_EQ(resolved().mode, CompressMode::kTopK);
  EXPECT_DOUBLE_EQ(resolved().topk_ratio, 0.5);
  EXPECT_EQ(CompressOptions{}.mode, CompressMode::kNone);
  EXPECT_DOUBLE_EQ(CompressOptions{}.topk_ratio, 0.01);

  EXPECT_EQ(make_compressor(CompressOptions{}, 4), nullptr);

  if (prior_mode != nullptr) ::setenv("DMIS_COMPRESS", saved_mode.c_str(), 1);
  if (prior_ratio != nullptr) {
    ::setenv("DMIS_TOPK_RATIO", saved_ratio.c_str(), 1);
  }
}

TEST(TopKCompressorTest, SelectionIsDeterministicAndTiesBreakByIndex) {
  CompressOptions opts;
  opts.mode = CompressMode::kTopK;
  opts.topk_ratio = 0.5;  // k = 4 of 8
  auto c = make_compressor(opts, /*world=*/2);
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->error_feedback());

  // Magnitude ties everywhere: |v| = 2 at indices {1,3,5}, |v| = 1 at
  // the rest. k = 4 must take the three 2s plus the *lowest-index* 1.
  const std::vector<float> grad = {1.0F, -2.0F, 1.0F, 2.0F,
                                   -1.0F, 2.0F, 1.0F, -1.0F};
  std::vector<float> wire_a(c->wire_len(grad.size()), 0.0F);
  std::vector<float> wire_b(c->wire_len(grad.size()), 0.0F);
  std::vector<float> res_a(grad.size(), 0.0F);
  std::vector<float> res_b(grad.size(), 0.0F);
  c->encode(grad, wire_a, /*rank=*/0, res_a);
  c->encode(grad, wire_b, /*rank=*/0, res_b);
  EXPECT_EQ(wire_a, wire_b);  // bitwise deterministic
  EXPECT_EQ(res_a, res_b);

  // Rank 0's slot holds k (index, value) pairs sorted by index.
  std::vector<int> indices;
  for (size_t p = 0; p < 4; ++p) {
    indices.push_back(static_cast<int>(wire_a[2 * p]));
  }
  EXPECT_EQ(indices, (std::vector<int>{0, 1, 3, 5}));
  EXPECT_EQ(wire_a[1], 1.0F);   // index 0, the tie-broken pick
  EXPECT_EQ(wire_a[3], -2.0F);
  // Unsent entries stay in the residual; sent entries are zeroed there.
  EXPECT_EQ(res_a[0], 0.0F);
  EXPECT_EQ(res_a[2], 1.0F);
  EXPECT_EQ(res_a[7], -1.0F);
}

TEST(TopKCompressorTest, ErrorFeedbackDelaysButNeverDropsMass) {
  CompressOptions opts;
  opts.mode = CompressMode::kTopK;
  opts.topk_ratio = 0.26;  // k = 1 of 4
  auto c = make_compressor(opts, /*world=*/1);
  ASSERT_NE(c, nullptr);

  std::vector<float> residual(4, 0.0F);
  std::vector<float> grad = {3.0F, 2.0F, 1.0F, 0.5F};
  std::vector<float> wire(c->wire_len(grad.size()), 0.0F);
  std::vector<float> out(4, 0.0F);

  // Step 1 sends the 3; the rest waits in the residual.
  c->encode(grad, wire, 0, residual);
  c->decode(wire, out, /*unpack_scale=*/1.0F);
  EXPECT_EQ(out, (std::vector<float>{3.0F, 0.0F, 0.0F, 0.0F}));
  EXPECT_EQ(residual, (std::vector<float>{0.0F, 2.0F, 1.0F, 0.5F}));

  // Step 2 with a zero gradient: the residual alone drives selection —
  // the delayed 2 goes out now.
  std::fill(grad.begin(), grad.end(), 0.0F);
  std::fill(wire.begin(), wire.end(), 0.0F);
  c->encode(grad, wire, 0, residual);
  c->decode(wire, out, 1.0F);
  EXPECT_EQ(out, (std::vector<float>{0.0F, 2.0F, 0.0F, 0.0F}));
  EXPECT_EQ(residual, (std::vector<float>{0.0F, 0.0F, 1.0F, 0.5F}));

  // decode applies unpack_scale itself (wire_scale withholds it from
  // the collective so index floats stay intact).
  EXPECT_EQ(c->wire_scale(0.25F), 1.0F);
  std::fill(grad.begin(), grad.end(), 0.0F);
  std::fill(wire.begin(), wire.end(), 0.0F);
  c->encode(grad, wire, 0, residual);
  c->decode(wire, out, 0.25F);
  EXPECT_EQ(out[2], 0.25F);
}

// Compressed allreduce against the uncompressed reference, every
// algorithm. The wire carries packed halves; each reduce step decodes,
// adds in fp32, re-encodes — so the result must match the fp32 sum to
// half precision of the running magnitude.
TEST(Fp16WireCollectiveTest, MatchesFp32SumAcrossAlgorithms) {
  constexpr size_t kLen = 1000;  // odd wire tail: 500 slots
  constexpr int kWorld = 4;
  for (AllReduceAlgo algo :
       {AllReduceAlgo::kRing, AllReduceAlgo::kTree, AllReduceAlgo::kHier}) {
    // Inputs on a coarse grid: every partial sum is half-exact, so the
    // compressed result must equal the reference *bitwise*.
    std::vector<std::vector<float>> inputs(kWorld);
    Rng rng(29 + static_cast<uint64_t>(algo));
    for (auto& buf : inputs) {
      buf.resize(kLen);
      for (auto& v : buf) {
        v = std::round(static_cast<float>(rng.uniform(-8.0, 8.0)) * 16.0F) /
            16.0F;
      }
    }
    std::vector<double> expected(kLen, 0.0);
    for (const auto& buf : inputs) {
      for (size_t i = 0; i < kLen; ++i) expected[i] += buf[i];
    }

    GroupOptions gopts;
    gopts.algo = algo;
    gopts.ranks_per_node = 2;
    auto comms = make_group(kWorld, gopts);
    std::vector<std::vector<float>> wires(kWorld);
    std::vector<std::thread> threads;
    for (int r = 0; r < kWorld; ++r) {
      threads.emplace_back([&, r] {
        auto& wire = wires[static_cast<size_t>(r)];
        wire.assign(fp16_wire_floats(kLen), 0.0F);
        auto* halves = reinterpret_cast<uint16_t*>(wire.data());
        fp16_pack(inputs[static_cast<size_t>(r)].data(), kLen, halves);
        auto req = comms[static_cast<size_t>(r)].all_reduce_sum_async(
            std::span<float>(wire.data(), wire.size()), 1.0F,
            WireFormat::kFp16);
        req.wait();
      });
    }
    for (auto& t : threads) t.join();

    for (int r = 0; r < kWorld; ++r) {
      std::vector<float> out(kLen);
      fp16_unpack(reinterpret_cast<const uint16_t*>(
                      wires[static_cast<size_t>(r)].data()),
                  kLen, out.data());
      for (size_t i = 0; i < kLen; ++i) {
        ASSERT_EQ(out[i], static_cast<float>(expected[i]))
            << "algo=" << static_cast<int>(algo) << " rank=" << r
            << " i=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace dmis::comm
