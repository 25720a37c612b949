// Property tests for the collective-algorithm tuner: selection
// monotonicity over message size, topology eligibility (hier never on a
// single node), env-override precedence over GroupOptions, and the
// calibration knobs. The tuner-vs-DES cross-validation lives in
// tests/cluster/comm_sim_test.cpp next to the simulator it drives.
#include "comm/algo_tuner.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "common/check.hpp"

namespace dmis::comm {
namespace {

/// Cost parameters with a pronounced latency/bandwidth split, so the
/// algorithm crossovers land inside the swept size range.
CommCostParams skewed_params() {
  CommCostParams p;
  p.sync_us = 8.0;
  p.inter_sync_us = 10.0;
  p.reduce_gbs = 50.0;
  p.copy_gbs = 70.0;
  p.inter_gbs = 10.0;
  return p;
}

std::vector<size_t> size_sweep() {
  std::vector<size_t> sizes;
  for (size_t b = 64; b <= (size_t{1} << 28U); b *= 2) sizes.push_back(b);
  return sizes;
}

TEST(AllReduceAlgoNames, ParseRoundTrips) {
  // The DMIS_COMM_ALGO words map to the enumerators by position.
  const auto parse = [](const char* word) {
    return knobs::parse<AllReduceAlgo>(Knob::kCommAlgo, word);
  };
  for (const AllReduceAlgo algo :
       {AllReduceAlgo::kRing, AllReduceAlgo::kTree, AllReduceAlgo::kHier,
        AllReduceAlgo::kAuto}) {
    EXPECT_EQ(parse(all_reduce_algo_name(algo)), algo);
  }
  EXPECT_THROW(parse("fastest"), InvalidArgument);
  EXPECT_THROW(parse(""), InvalidArgument);
}

// Monotonicity: every per-algorithm cost is affine in the message size
// (each step is alpha + slope * S), so the cheapest choice sweeps
// through at most one contiguous run per algorithm as S grows. A larger
// message must never flip back to an algorithm that a smaller message
// already abandoned.
TEST(AlgoTunerProperty, ChoiceRunsAreContiguousOverMessageSize) {
  const CommCostParams p = skewed_params();
  const std::pair<int, int> shapes[] = {{8, 4},  {8, 2}, {16, 4}, {6, 3},
                                        {4, 4},  {8, 0}, {7, 4},  {12, 4}};
  for (const auto& [world, rpn] : shapes) {
    const AlgoTuner tuner(p, world, rpn);
    std::vector<AllReduceAlgo> runs;
    for (const size_t bytes : size_sweep()) {
      const AllReduceAlgo pick = tuner.choose(bytes);
      if (runs.empty() || runs.back() != pick) runs.push_back(pick);
    }
    for (size_t i = 0; i < runs.size(); ++i) {
      for (size_t j = i + 1; j < runs.size(); ++j) {
        EXPECT_NE(runs[i], runs[j])
            << "world=" << world << " rpn=" << rpn << ": algorithm '"
            << all_reduce_algo_name(runs[i])
            << "' re-selected after being dominated";
      }
    }
  }
}

// Hier needs a real multi-node shape: flat (rpn=0 or rpn>=world) and
// all-leaders (rpn=1) topologies must never choose it, at any size.
TEST(AlgoTunerProperty, AutoNeverSelectsHierOnSingleNode) {
  const CommCostParams p = skewed_params();
  for (const int rpn : {0, 1, 8, 20}) {
    const AlgoTuner tuner(p, /*world=*/8, rpn);
    EXPECT_FALSE(tuner.hier_eligible()) << "rpn=" << rpn;
    for (const size_t bytes : size_sweep()) {
      EXPECT_NE(tuner.choose(bytes), AllReduceAlgo::kHier)
          << "rpn=" << rpn << " bytes=" << bytes;
    }
  }
  EXPECT_TRUE(AlgoTuner(p, 8, 4).hier_eligible());
  EXPECT_TRUE(AlgoTuner(p, 8, 2).hier_eligible());
  EXPECT_FALSE(AlgoTuner(p, 1, 1).hier_eligible());
}

TEST(AlgoTunerProperty, PredictIsZeroForLoneRankAndGrowsWithBytes) {
  const CommCostParams p = skewed_params();
  const AlgoTuner lone(p, 1, 0);
  for (const AllReduceAlgo algo :
       {AllReduceAlgo::kRing, AllReduceAlgo::kTree, AllReduceAlgo::kHier}) {
    EXPECT_DOUBLE_EQ(lone.predict_seconds(algo, 1U << 20U), 0.0);
  }
  const AlgoTuner tuner(p, 8, 4);
  for (const AllReduceAlgo algo :
       {AllReduceAlgo::kRing, AllReduceAlgo::kTree, AllReduceAlgo::kHier}) {
    double prev = 0.0;
    for (const size_t bytes : size_sweep()) {
      const double t = tuner.predict_seconds(algo, bytes);
      EXPECT_GT(t, 0.0);
      EXPECT_GE(t, prev) << all_reduce_algo_name(algo) << " at " << bytes;
      prev = t;
    }
  }
}

TEST(AlgoTunerProperty, DecisionTableListsEverySweepRow) {
  const AlgoTuner tuner(skewed_params(), 8, 4);
  const std::string table = tuner.decision_table_json();
  EXPECT_NE(table.find("\"bytes\":1024"), std::string::npos);
  EXPECT_NE(table.find("ring_us"), std::string::npos);
  EXPECT_NE(table.find("tree_us"), std::string::npos);
  EXPECT_NE(table.find("hier_us"), std::string::npos);
  EXPECT_NE(table.find("\"pick\":"), std::string::npos);
}

TEST(AlgoTunerProperty, CalibratedIsCachedAndFinite) {
  const CommCostParams& a = CommCostParams::calibrated();
  const CommCostParams& b = CommCostParams::calibrated();
  EXPECT_EQ(&a, &b);  // one process-wide micro-benchmark, ever
  EXPECT_GT(a.sync_us, 0.0);
  EXPECT_GT(a.inter_sync_us, 0.0);
  EXPECT_GT(a.reduce_gbs, 0.0);
  EXPECT_GT(a.copy_gbs, 0.0);
  EXPECT_GT(a.inter_gbs, 0.0);
  // The compression terms are calibrated alongside the classic betas.
  EXPECT_GT(a.fp16_pack_gbs, 0.0);
  EXPECT_GT(a.fp16_reduce_gbs, 0.0);
}

TEST(AlgoTunerProperty, Fp16WireSwapsOnlyTheReduceBeta) {
  // Pin the fp16 reduce bandwidth to the fp32 one: the wire format then
  // changes nothing — byte counts are the caller's concern.
  CommCostParams p = skewed_params();
  p.fp16_reduce_gbs = p.reduce_gbs;
  const AlgoTuner same(p, 8, 4);
  for (const AllReduceAlgo algo :
       {AllReduceAlgo::kRing, AllReduceAlgo::kTree, AllReduceAlgo::kHier}) {
    for (const size_t bytes : size_sweep()) {
      EXPECT_DOUBLE_EQ(same.predict_seconds(algo, bytes, WireFormat::kFp16),
                       same.predict_seconds(algo, bytes));
    }
  }
  // A slower fp16 accumulate makes every schedule slower, never faster.
  p = skewed_params();
  p.fp16_reduce_gbs = p.reduce_gbs * 0.5;
  const AlgoTuner slow(p, 8, 4);
  for (const AllReduceAlgo algo :
       {AllReduceAlgo::kRing, AllReduceAlgo::kTree, AllReduceAlgo::kHier}) {
    for (const size_t bytes : size_sweep()) {
      EXPECT_GE(slow.predict_seconds(algo, bytes, WireFormat::kFp16),
                slow.predict_seconds(algo, bytes));
    }
  }
}

TEST(AlgoTunerProperty, PredictSyncComposesCodecAndWireBytes) {
  const AlgoTuner tuner(skewed_params(), 8, 4);
  const size_t logical = size_t{4} << 20U;
  for (const AllReduceAlgo algo :
       {AllReduceAlgo::kRing, AllReduceAlgo::kTree, AllReduceAlgo::kHier}) {
    // fp32 sync is exactly the collective: no codec term.
    EXPECT_DOUBLE_EQ(
        tuner.predict_sync_seconds(algo, logical, WireFormat::kFp32),
        tuner.predict_seconds(algo, logical));
    // fp16 sync = two codec passes + the collective over half the bytes.
    const size_t wire = fp16_wire_floats(logical / 4) * 4;
    EXPECT_DOUBLE_EQ(
        tuner.predict_sync_seconds(algo, logical, WireFormat::kFp16),
        tuner.codec_seconds(logical, WireFormat::kFp16) +
            tuner.predict_seconds(algo, wire, WireFormat::kFp16));
  }
  EXPECT_DOUBLE_EQ(tuner.codec_seconds(logical, WireFormat::kFp32), 0.0);
  EXPECT_GT(tuner.codec_seconds(logical, WireFormat::kFp16), 0.0);
  // choose() under fp16 stays a valid concrete pick and is
  // deterministic — the codec term is algorithm-independent, so the
  // ranking logic itself is unchanged.
  for (const size_t bytes : size_sweep()) {
    const AllReduceAlgo a = tuner.choose(bytes, WireFormat::kFp16);
    const AllReduceAlgo b = tuner.choose(bytes, WireFormat::kFp16);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, AllReduceAlgo::kAuto);
  }
}

/// Saves and restores the comm env knobs so precedence tests can set
/// them without perturbing the rest of the suite (verify.sh re-runs
/// whole suites under DMIS_COMM_ALGO sweeps).
class AlgoEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stash("DMIS_COMM_ALGO");
    stash("DMIS_COMM_RANKS_PER_NODE");
    ::unsetenv("DMIS_COMM_ALGO");
    ::unsetenv("DMIS_COMM_RANKS_PER_NODE");
  }
  void TearDown() override {
    for (const auto& [key, value] : saved_) {
      if (value.has_value()) {
        ::setenv(key.c_str(), value->c_str(), 1);
      } else {
        ::unsetenv(key.c_str());
      }
    }
  }

 private:
  void stash(const char* key) {
    const char* v = ::getenv(key);
    saved_.emplace_back(key, v != nullptr
                                 ? std::optional<std::string>(v)
                                 : std::nullopt);
  }
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

TEST_F(AlgoEnvTest, EnvOverrideBeatsGroupOptions) {
  ::setenv("DMIS_COMM_ALGO", "tree", 1);
  GroupOptions opts;
  opts.algo = AllReduceAlgo::kRing;  // explicitly asks for ring; env wins
  auto comms = make_group(2, opts);
  EXPECT_EQ(comms[0].algo(), AllReduceAlgo::kTree);

  ::setenv("DMIS_COMM_ALGO", "hier", 1);
  ::setenv("DMIS_COMM_RANKS_PER_NODE", "2", 1);
  GroupOptions opts2;
  opts2.algo = AllReduceAlgo::kRing;
  opts2.ranks_per_node = 4;
  auto comms2 = make_group(4, opts2);
  EXPECT_EQ(comms2[0].algo(), AllReduceAlgo::kHier);
  EXPECT_EQ(comms2[0].ranks_per_node(), 2);
}

TEST_F(AlgoEnvTest, ExplicitOptionWinsWhenEnvUnset) {
  GroupOptions opts;
  opts.algo = AllReduceAlgo::kHier;
  opts.ranks_per_node = 2;
  auto comms = make_group(4, opts);
  EXPECT_EQ(comms[0].algo(), AllReduceAlgo::kHier);
  EXPECT_EQ(comms[0].ranks_per_node(), 2);

  // No env, no option: the bitwise-stable ring on a flat topology.
  auto plain = make_group(3);
  EXPECT_EQ(plain[0].algo(), AllReduceAlgo::kRing);
  EXPECT_EQ(plain[0].ranks_per_node(), 3);
}

TEST_F(AlgoEnvTest, InternalGroupsIgnoreEnvOverrides) {
  // The tuner's calibration probes pin ring + flat via an internal
  // group. If the env override won there, DMIS_COMM_ALGO=auto would
  // resolve the probe group back to auto and recurse into the very
  // calibration constructing it (seen live as recursive_init_error).
  ::setenv("DMIS_COMM_ALGO", "auto", 1);
  ::setenv("DMIS_COMM_RANKS_PER_NODE", "2", 1);
  ::setenv("DMIS_COMM_TIMEOUT_MS", "5", 1);  // a probe must not time out
  GroupOptions opts;
  opts.algo = AllReduceAlgo::kRing;
  opts.internal = true;
  auto probe = make_group(4, opts);
  ::unsetenv("DMIS_COMM_TIMEOUT_MS");
  EXPECT_EQ(probe[0].algo(), AllReduceAlgo::kRing);
  EXPECT_EQ(probe[0].ranks_per_node(), 4);
  EXPECT_EQ(probe[0].timeout_ms(), 0);
}

TEST_F(AlgoEnvTest, EnvAutoConstructsAndReduces) {
  // End-to-end: the operator exporting DMIS_COMM_ALGO=auto must get a
  // working tuned group, calibration included, not a recursion abort.
  ::setenv("DMIS_COMM_ALGO", "auto", 1);
  auto comms = make_group(4);
  EXPECT_EQ(comms[0].algo(), AllReduceAlgo::kAuto);
  std::vector<std::vector<float>> bufs(4, std::vector<float>(257, 1.0F));
  std::vector<std::thread> threads;
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back(
        [&, r] { comms[static_cast<size_t>(r)].all_reduce_sum(bufs[static_cast<size_t>(r)]); });
  }
  for (auto& t : threads) t.join();
  for (const auto& buf : bufs) {
    for (float v : buf) EXPECT_EQ(v, 4.0F);
  }
}

TEST_F(AlgoEnvTest, MalformedEnvRejected) {
  ::setenv("DMIS_COMM_ALGO", "fastest", 1);
  EXPECT_THROW(make_group(2), InvalidArgument);
  ::unsetenv("DMIS_COMM_ALGO");

  ::setenv("DMIS_COMM_RANKS_PER_NODE", "lots", 1);
  EXPECT_THROW(make_group(2), InvalidArgument);
  ::setenv("DMIS_COMM_RANKS_PER_NODE", "-3", 1);
  EXPECT_THROW(make_group(2), InvalidArgument);
}

TEST_F(AlgoEnvTest, AutoResolvesToConcreteAlgorithmPerMessage) {
  // A kAuto group with pinned costs: the tuner (not the env) picks, and
  // the group reports kAuto while each collective resolves concretely.
  GroupOptions opts;
  opts.algo = AllReduceAlgo::kAuto;
  opts.ranks_per_node = 2;
  opts.cost = skewed_params();  // pinned: no calibration, deterministic
  auto comms = make_group(4, opts);
  EXPECT_EQ(comms[0].algo(), AllReduceAlgo::kAuto);
  const AlgoTuner& tuner = comms[0].tuner();
  EXPECT_EQ(tuner.world(), 4);
  EXPECT_EQ(tuner.ranks_per_node(), 2);
  // Every concrete choice the tuner can make is a runnable strategy.
  for (const size_t bytes : size_sweep()) {
    const AllReduceAlgo pick = tuner.choose(bytes);
    EXPECT_NE(pick, AllReduceAlgo::kAuto);
    EXPECT_EQ(strategy_for(pick).algo(), pick);
  }
}

}  // namespace
}  // namespace dmis::comm
