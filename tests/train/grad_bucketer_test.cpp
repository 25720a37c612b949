// GradBucketer: bucket layout, parity of the fused bucketed allreduce
// against the per-tensor scale/allreduce/scale triple pass, bitwise
// determinism for a fixed layout, idle-rank flush, and the
// DMIS_BUCKET_BYTES override.
#include "train/grad_bucketer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <thread>
#include <vector>

#include "comm/communicator.hpp"
#include "common/check.hpp"
#include "common/fault_injector.hpp"
#include "common/knobs.hpp"
#include "tensor/rng.hpp"

namespace dmis::train {
namespace {

/// A fake "model": named gradient tensors of the given sizes.
struct FakeParams {
  explicit FakeParams(const std::vector<int64_t>& sizes, uint64_t seed) {
    Rng rng(seed);
    values.reserve(sizes.size());
    grads.reserve(sizes.size());
    for (size_t i = 0; i < sizes.size(); ++i) {
      values.emplace_back(Shape{sizes[i]});
      grads.emplace_back(Shape{sizes[i]});
      for (int64_t k = 0; k < grads.back().numel(); ++k) {
        grads.back()[k] = static_cast<float>(rng.uniform(-1.0, 1.0));
      }
    }
    for (size_t i = 0; i < sizes.size(); ++i) {
      params.push_back(nn::Param{"p" + std::to_string(i), &values[i],
                                 &grads[i]});
    }
  }
  std::vector<NDArray> values;
  std::vector<NDArray> grads;
  std::vector<nn::Param> params;
};

void run_ranks(int ranks,
               const std::function<void(int, comm::Communicator&)>& body) {
  auto comms = comm::make_group(ranks);
  std::vector<std::thread> threads;
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] { body(r, comms[static_cast<size_t>(r)]); });
  }
  for (auto& t : threads) t.join();
}

TEST(GradBucketerTest, LayoutPacksReverseRegistrationOrderUnderCap) {
  FakeParams fp({10, 20, 30, 40, 5}, 1);
  auto comms = comm::make_group(1);
  // Cap of 50 floats = 200 bytes.
  GradBucketer bucketer(fp.params, comms[0], 200);
  const auto layout = bucketer.layout();
  // Reverse order: p4(5), p3(40) fit in bucket 0 (45 floats); p2(30),
  // p1(20) fill bucket 1 (50 exactly); p0(10) overflows to bucket 2.
  ASSERT_EQ(layout.size(), 3U);
  EXPECT_EQ(layout[0], (std::vector<std::string>{"p4", "p3"}));
  EXPECT_EQ(layout[1], (std::vector<std::string>{"p2", "p1"}));
  EXPECT_EQ(layout[2], (std::vector<std::string>{"p0"}));
}

TEST(GradBucketerTest, OversizedParameterGetsDirectBucket) {
  FakeParams fp({1000, 2, 3}, 2);
  auto comms = comm::make_group(1);
  GradBucketer bucketer(fp.params, comms[0], 64);  // 16-float cap
  const auto layout = bucketer.layout();
  ASSERT_EQ(layout.size(), 2U);
  EXPECT_EQ(layout[0], (std::vector<std::string>{"p2", "p1"}));
  EXPECT_EQ(layout[1], (std::vector<std::string>{"p0"}));
  // p0 crosses the direct threshold: reduced in place, never packed.
  EXPECT_EQ(bucketer.num_direct(), 1U);
}

TEST(GradBucketerTest, DirectAndPackedBucketsOrderedByCompletion) {
  // Registration [p0..p3] = floats {3000, 10, 4000, 20}; with a 1 KiB
  // cap the 256-float direct threshold sends p0/p2 in place while p3/p1
  // share one packed bucket that spans across them. Launch order is the
  // reverse-walk position of each bucket's LAST tensor: p2 completes
  // first, then the packed pair (at p1), then p0.
  FakeParams fp({3000, 10, 4000, 20}, 5);
  auto comms = comm::make_group(1);
  GradBucketer bucketer(fp.params, comms[0], 1024);
  const auto layout = bucketer.layout();
  ASSERT_EQ(layout.size(), 3U);
  EXPECT_EQ(layout[0], (std::vector<std::string>{"p2"}));
  EXPECT_EQ(layout[1], (std::vector<std::string>{"p3", "p1"}));
  EXPECT_EQ(layout[2], (std::vector<std::string>{"p0"}));
  EXPECT_EQ(bucketer.num_direct(), 2U);
}

TEST(GradBucketerTest, OutOfOrderReadinessStillLaunchesInLayoutOrder) {
  // The hook delivers each node's params in registration order (weight,
  // then bias) while the layout interleaves them in reverse — so a
  // direct weight bucket can COMPLETE before an earlier-layout packed
  // bucket. A ready-driven rank must hold it and still submit in layout
  // order, or it deadlocks/corrupts against an idle rank that goes
  // straight to flush(). Registration: w1, b1, w2, b2.
  const std::vector<int64_t> sizes{20000, 8, 20000, 8};
  const float inv = 0.5F;

  std::vector<FakeParams> ref;
  for (int r = 0; r < 2; ++r) ref.emplace_back(sizes, 60 + r);
  run_ranks(2, [&](int r, comm::Communicator& comm) {
    for (nn::Param& p : ref[static_cast<size_t>(r)].params) {
      comm.all_reduce_sum(p.grad->span());
      p.grad->scale_(inv);
    }
  });

  std::vector<FakeParams> fused;
  for (int r = 0; r < 2; ++r) fused.emplace_back(sizes, 60 + r);
  run_ranks(2, [&](int r, comm::Communicator& comm) {
    auto& fp = fused[static_cast<size_t>(r)];
    GradBucketer bucketer(fp.params, comm, 1024);
    bucketer.begin_step(1.0F, inv);
    if (r == 0) {
      // Hook order: node 2 (w2, b2), then node 1 (w1, b1).
      bucketer.on_grad_ready(fp.params[2]);
      bucketer.on_grad_ready(fp.params[3]);
      bucketer.on_grad_ready(fp.params[0]);
      bucketer.on_grad_ready(fp.params[1]);
    }
    bucketer.flush();
    bucketer.wait_all();
  });

  for (int r = 0; r < 2; ++r) {
    for (size_t i = 0; i < sizes.size(); ++i) {
      const NDArray& a = ref[static_cast<size_t>(r)].grads[i];
      const NDArray& b = fused[static_cast<size_t>(r)].grads[i];
      for (int64_t k = 0; k < a.numel(); ++k) {
        ASSERT_NEAR(a[k], b[k], 1e-6F) << "rank=" << r << " tensor=" << i
                                       << " elem=" << k;
      }
    }
  }
}

TEST(GradBucketerTest, FiresBucketsEagerlyAsGradientsArrive) {
  FakeParams fp({8, 8, 8, 8}, 3);
  auto comms = comm::make_group(1);
  GradBucketer bucketer(fp.params, comms[0], 2 * 8 * sizeof(float));
  ASSERT_EQ(bucketer.num_buckets(), 2U);
  bucketer.begin_step(1.0F, 1.0F);
  EXPECT_EQ(bucketer.buckets_fired(), 0U);
  bucketer.on_grad_ready(fp.params[3]);
  EXPECT_EQ(bucketer.buckets_fired(), 0U);  // bucket 0 half full
  bucketer.on_grad_ready(fp.params[2]);
  EXPECT_EQ(bucketer.buckets_fired(), 1U);  // bucket 0 complete -> fired
  EXPECT_GE(bucketer.first_fire_us(), 0);
  bucketer.flush();
  EXPECT_EQ(bucketer.buckets_fired(), 2U);
  bucketer.wait_all();
}

// The acceptance gate: the fused bucketed path must match the legacy
// per-tensor scale_/all_reduce_sum/scale_ pass within 1e-6 on seeded
// 2- and 4-rank steps, U-Net-ish ragged tensor sizes included.
class BucketedParity : public ::testing::TestWithParam<int> {};

TEST_P(BucketedParity, MatchesPerTensorTriplePass) {
  const int ranks = GetParam();
  const std::vector<int64_t> sizes{872, 8, 16, 1736, 16, 16, 3457, 9, 128};
  const auto weight = [](int r) { return static_cast<float>(r % 3); };
  const float inv_total = 1.0F / 7.0F;

  // Reference: the old triple pass, run on a fresh group.
  std::vector<FakeParams> ref;
  ref.reserve(static_cast<size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    ref.emplace_back(sizes, static_cast<uint64_t>(100 + r));
  }
  run_ranks(ranks, [&](int r, comm::Communicator& comm) {
    for (nn::Param& p : ref[static_cast<size_t>(r)].params) {
      p.grad->scale_(weight(r));
      comm.all_reduce_sum(p.grad->span());
      p.grad->scale_(inv_total);
    }
  });

  // Bucketed path over identical inputs (1 KiB cap -> several buckets).
  std::vector<FakeParams> fused;
  fused.reserve(static_cast<size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    fused.emplace_back(sizes, static_cast<uint64_t>(100 + r));
  }
  run_ranks(ranks, [&](int r, comm::Communicator& comm) {
    GradBucketer bucketer(fused[static_cast<size_t>(r)].params, comm, 1024);
    bucketer.begin_step(weight(r), inv_total);
    bucketer.flush();
    bucketer.wait_all();
  });

  for (int r = 0; r < ranks; ++r) {
    for (size_t i = 0; i < sizes.size(); ++i) {
      const NDArray& a = ref[static_cast<size_t>(r)].grads[i];
      const NDArray& b = fused[static_cast<size_t>(r)].grads[i];
      for (int64_t k = 0; k < a.numel(); ++k) {
        ASSERT_NEAR(a[k], b[k], 1e-6F)
            << "ranks=" << ranks << " rank=" << r << " tensor=" << i
            << " elem=" << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BucketedParity, ::testing::Values(2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "ranks" + std::to_string(info.param);
                         });

TEST(GradBucketerTest, BitwiseDeterministicAcrossRuns) {
  const std::vector<int64_t> sizes{300, 7, 450, 21};
  const auto run_once = [&] {
    std::vector<FakeParams> fps;
    for (int r = 0; r < 3; ++r) {
      fps.emplace_back(sizes, static_cast<uint64_t>(7 + r));
    }
    run_ranks(3, [&](int r, comm::Communicator& comm) {
      GradBucketer bucketer(fps[static_cast<size_t>(r)].params, comm, 1024);
      bucketer.begin_step(1.0F, 1.0F / 3.0F);
      // Ready-driven on rank 0, flush-driven elsewhere: launch order is
      // layout order either way, so results must still be bitwise equal.
      if (r == 0) {
        for (size_t i = sizes.size(); i-- > 0;) {
          bucketer.on_grad_ready(fps[0].params[i]);
        }
      }
      bucketer.flush();
      bucketer.wait_all();
    });
    std::vector<float> out;
    for (const NDArray& g : fps[0].grads) {
      out.insert(out.end(), g.data(), g.data() + g.numel());
    }
    return out;
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << i;
}

TEST(GradBucketerTest, IdleRankContributesZeroWeightGradients) {
  // Rank 1 is "idle": weight 0, no ready marks, straight to flush —
  // the result must be rank 0's gradients weighted 2/2.
  const std::vector<int64_t> sizes{64, 8};
  std::vector<FakeParams> fps;
  fps.emplace_back(sizes, 42);
  fps.emplace_back(sizes, 43);
  FakeParams expect(sizes, 42);
  run_ranks(2, [&](int r, comm::Communicator& comm) {
    GradBucketer bucketer(fps[static_cast<size_t>(r)].params, comm, 1 << 20);
    bucketer.begin_step(r == 0 ? 2.0F : 0.0F, 0.5F);
    bucketer.flush();
    bucketer.wait_all();
  });
  for (size_t i = 0; i < sizes.size(); ++i) {
    for (int64_t k = 0; k < expect.grads[i].numel(); ++k) {
      ASSERT_NEAR(fps[0].grads[i][k], expect.grads[i][k], 1e-6F);
      ASSERT_NEAR(fps[1].grads[i][k], expect.grads[i][k], 1e-6F);
    }
  }
}

TEST(GradBucketerTest, EnvOverridesConfiguredBucketBytes) {
  // The cap MirroredStrategy hands each GradBucketer.
  const auto effective = [] {
    return knobs::get<size_t>(Knob::kBucketBytes, size_t{123});
  };
  ASSERT_EQ(unsetenv("DMIS_BUCKET_BYTES"), 0);
  EXPECT_EQ(effective(), 123U);
  ASSERT_EQ(setenv("DMIS_BUCKET_BYTES", "4096", 1), 0);
  EXPECT_EQ(effective(), 4096U);
  ASSERT_EQ(setenv("DMIS_BUCKET_BYTES", "0", 1), 0);
  EXPECT_EQ(effective(), 0U);
  ASSERT_EQ(setenv("DMIS_BUCKET_BYTES", "not-bytes", 1), 0);
  EXPECT_THROW(effective(), InvalidArgument);
  ASSERT_EQ(unsetenv("DMIS_BUCKET_BYTES"), 0);
  EXPECT_EQ(knobs::default_value<size_t>(Knob::kBucketBytes),
            GradBucketer::kDefaultBucketBytes);
}

TEST(GradBucketerTest, RejectsZeroBucketBytes) {
  FakeParams fp({4}, 9);
  auto comms = comm::make_group(1);
  EXPECT_THROW(GradBucketer(fp.params, comms[0], 0), InvalidArgument);
}

// --- Compressed sync -------------------------------------------------

TEST(GradBucketerCompressTest, Fp16SyncMatchesUncompressedToHalfPrecision) {
  // Mixed layout on purpose: one direct tensor plus small packed ones,
  // so both the fused pack_scale wire path and the in-place path run.
  const int ranks = 4;
  const std::vector<int64_t> sizes{872, 8, 30000, 16, 130};
  const auto weight = [](int r) { return static_cast<float>(1 + r % 2); };
  const float inv_total = 1.0F / 6.0F;

  const auto run_mode = [&](comm::CompressMode mode) {
    std::vector<FakeParams> fps;
    for (int r = 0; r < ranks; ++r) {
      fps.emplace_back(sizes, static_cast<uint64_t>(500 + r));
    }
    run_ranks(ranks, [&](int r, comm::Communicator& comm) {
      comm::CompressOptions copts;
      copts.mode = mode;
      GradBucketer bucketer(fps[static_cast<size_t>(r)].params, comm, 4096,
                            copts);
      EXPECT_EQ(bucketer.compress_mode(), mode);
      bucketer.begin_step(weight(r), inv_total);
      bucketer.flush();
      bucketer.wait_all();
    });
    std::vector<float> out;
    for (const NDArray& g : fps[0].grads) {
      out.insert(out.end(), g.data(), g.data() + g.numel());
    }
    return out;
  };

  const auto ref = run_mode(comm::CompressMode::kNone);
  const auto fp16 = run_mode(comm::CompressMode::kFp16);
  ASSERT_EQ(ref.size(), fp16.size());
  // Each reduce hop rounds the running sum once to half precision, so
  // the error is bounded by (hops + 1) half-ULPs of the final magnitude
  // (|sum| <= 6 here -> ~3e-3 per hop across 4 ranks).
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(ref[i], fp16[i], 2e-2F) << "elem " << i;
  }
}

TEST(GradBucketerCompressTest, TopKConservesMassInResiduals) {
  // Error feedback means nothing is dropped, only delayed: after one
  // step, synced mass plus what every rank still holds in residuals
  // must equal the uncompressed mean, in total.
  const int ranks = 2;
  const std::vector<int64_t> sizes{600, 40, 200};
  const float inv = 1.0F / static_cast<float>(ranks);

  std::vector<FakeParams> ref;
  for (int r = 0; r < ranks; ++r) {
    ref.emplace_back(sizes, static_cast<uint64_t>(900 + r));
  }
  double expected_mass = 0.0;
  for (const auto& fp : ref) {
    for (const NDArray& g : fp.grads) {
      for (int64_t k = 0; k < g.numel(); ++k) expected_mass += g[k] * inv;
    }
  }

  std::vector<FakeParams> fps;
  for (int r = 0; r < ranks; ++r) {
    fps.emplace_back(sizes, static_cast<uint64_t>(900 + r));
  }
  std::vector<GradBucketer::ResidualState> residuals(ranks);
  run_ranks(ranks, [&](int r, comm::Communicator& comm) {
    comm::CompressOptions copts;
    copts.mode = comm::CompressMode::kTopK;
    copts.topk_ratio = 0.1;
    GradBucketer bucketer(fps[static_cast<size_t>(r)].params, comm, 4096,
                          copts);
    bucketer.begin_step(1.0F, inv);
    bucketer.flush();
    bucketer.wait_all();
    residuals[static_cast<size_t>(r)] = bucketer.export_residuals();
  });

  // Synced mass: every rank holds the same mean, count it once.
  double synced = 0.0;
  for (const NDArray& g : fps[0].grads) {
    for (int64_t k = 0; k < g.numel(); ++k) synced += g[k];
  }
  // Residual mass is pack-scaled (pack_scale 1 here) and still owes the
  // unpack_scale it would receive on its delayed sync.
  double held = 0.0;
  for (const auto& state : residuals) {
    for (const auto& bucket : state) {
      for (float v : bucket) held += v * inv;
    }
  }
  EXPECT_NEAR(synced + held, expected_mass, 1e-2);
  EXPECT_GT(std::fabs(held), 0.0);  // 0.1 ratio really held mass back
}

TEST(GradBucketerCompressTest, ResidualsSurviveRebuildAcrossWorldSizes) {
  // The elastic shrink path: residuals exported from a 3-rank group's
  // bucketer import cleanly into a 2-rank rebuild over the same
  // parameter list and cap (the layout is world- and codec-independent),
  // and the delayed mass drains on the next step.
  const std::vector<int64_t> sizes{300, 12, 80};
  comm::CompressOptions copts;
  copts.mode = comm::CompressMode::kTopK;
  copts.topk_ratio = 0.05;

  FakeParams fp_a(sizes, 77);
  GradBucketer::ResidualState exported;
  {
    auto comms = comm::make_group(1);
    GradBucketer a(fp_a.params, comms[0], 2048, copts);
    a.begin_step(1.0F, 1.0F);
    a.flush();
    a.wait_all();
    exported = a.export_residuals();
  }
  double exported_mass = 0.0;  // absolute mass: strictly shrinks on drain
  for (const auto& b : exported) {
    for (float v : b) exported_mass += std::fabs(v);
  }
  ASSERT_GT(exported_mass, 0.0);

  // Rebuild over a different world size; import; the state must land
  // verbatim, and a zero-gradient step must start draining it.
  std::vector<FakeParams> fps;
  fps.emplace_back(sizes, 88);
  fps.emplace_back(sizes, 89);
  std::vector<GradBucketer::ResidualState> after(2);
  run_ranks(2, [&](int r, comm::Communicator& comm) {
    auto& fp = fps[static_cast<size_t>(r)];
    GradBucketer b(fp.params, comm, 2048, copts);
    if (r == 0) {
      b.import_residuals(exported);
      EXPECT_EQ(b.export_residuals(), exported);  // landed verbatim
    }
    for (NDArray& g : fp.grads) {
      std::fill(g.data(), g.data() + g.numel(), 0.0F);
    }
    b.begin_step(1.0F, 1.0F);
    b.flush();
    b.wait_all();
    after[static_cast<size_t>(r)] = b.export_residuals();
  });
  double remaining = 0.0;
  for (const auto& b : after[0]) {
    for (float v : b) remaining += std::fabs(v);
  }
  // Some of the imported residual went out on the wire this step.
  EXPECT_LT(remaining, exported_mass);

  // A layout mismatch is a hard error, not silent corruption.
  FakeParams other({300, 12, 80, 4}, 99);
  auto comms = comm::make_group(1);
  GradBucketer c(other.params, comms[0], 2048, copts);
  EXPECT_THROW(c.import_residuals(exported), Error);
}

TEST(GradBucketerCompressTest, FailedStepRollsResidualsBack) {
  // A step that dies mid-collective is retried (or rolled back to a
  // checkpoint), so its error-feedback mutations must not survive into
  // the retry: encode() already accumulated the step's gradient into
  // the residual and zeroed the entries it put on the (undelivered)
  // wire — replaying on top of that would double-count the unsent mass
  // and lose the sent mass. The rollback must work through *both* exit
  // paths: wait_all() rethrowing a comm-worker error, and abandon().
  auto& faults = common::FaultInjector::instance();
  faults.reset();
  const std::vector<int64_t> sizes{600, 40, 200};  // one packed bucket
  comm::CompressOptions copts;
  copts.mode = comm::CompressMode::kTopK;
  copts.topk_ratio = 0.1;

  std::vector<FakeParams> fps;
  fps.emplace_back(sizes, 500);
  fps.emplace_back(sizes, 501);
  // Step 1 is one allreduce per rank; rank 1's second call — step 2's
  // bucket — poisons the group.
  faults.arm_nth_call("comm.all_reduce.r1", 2);
  std::vector<GradBucketer::ResidualState> before(2);
  std::vector<GradBucketer::ResidualState> after(2);
  // Short deadline: rank 0 must fail fast once rank 1's fault poisons
  // the group instead of waiting forever on the dead peer.
  auto comms = comm::make_group(2, /*timeout_ms=*/500);
  std::vector<std::thread> threads;
  for (int rank = 0; rank < 2; ++rank) {
    threads.emplace_back([&, r = rank] {
    comm::Communicator& comm = comms[static_cast<size_t>(r)];
    GradBucketer b(fps[static_cast<size_t>(r)].params, comm, 4096, copts);
    b.begin_step(1.0F, 0.5F);
    b.flush();
    b.wait_all();  // clean step: residuals legitimately mutated
    before[static_cast<size_t>(r)] = b.export_residuals();
    b.begin_step(1.0F, 0.5F);
    b.flush();
    // Rank 1 rethrows the injected fault itself; rank 0 times out with
    // a CommError once the group is poisoned. Either way: it throws.
    EXPECT_ANY_THROW(b.wait_all());
    b.abandon();  // the recovery path calls this too; must be safe
    after[static_cast<size_t>(r)] = b.export_residuals();
    });
  }
  for (auto& t : threads) t.join();
  faults.reset();
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(after[static_cast<size_t>(r)], before[static_cast<size_t>(r)])
        << "rank " << r;
  }
  // The clean step really did leave residual state to protect.
  double mass = 0.0;
  for (const auto& bucket : before[0]) {
    for (float v : bucket) mass += std::fabs(v);
  }
  EXPECT_GT(mass, 0.0);
}

TEST(GradBucketerCompressTest, UncompressedBucketerKeepsNoResidualState) {
  FakeParams fp({64, 8}, 12);
  auto comms = comm::make_group(1);
  GradBucketer bucketer(fp.params, comms[0]);
  EXPECT_EQ(bucketer.compress_mode(), comm::CompressMode::kNone);
  for (const auto& b : bucketer.export_residuals()) EXPECT_TRUE(b.empty());
}

}  // namespace
}  // namespace dmis::train
