#include "comm/algo_tuner.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <initializer_list>
#include <sstream>
#include <thread>
#include <vector>

#include "comm/communicator.hpp"
#include "common/check.hpp"
#include "common/knobs.hpp"
#include "common/logging.hpp"

namespace dmis::comm {
namespace {

int pow2_floor(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

// Barrier latency: a 4-rank barrier storm over a throwaway ring group.
// The group is marked internal with an explicit concrete algorithm so
// its own construction never consults calibrated() — not even via a
// DMIS_COMM_ALGO=auto env override (no recursion).
double measure_sync_us() {
  constexpr int kRanks = 4;
  constexpr int kIters = 256;
  GroupOptions opts;
  opts.timeout_ms = 0;  // never let a slow CI host poison the probe
  opts.algo = AllReduceAlgo::kRing;
  opts.internal = true;
  auto comms = make_group(kRanks, opts);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      for (int i = 0; i < kIters; ++i) comms[static_cast<size_t>(r)].barrier();
    });
  }
  for (auto& t : threads) t.join();
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count() /
                    kIters;
  return std::max(us, 0.05);
}

// Streamed accumulate / copy bandwidth in GB/s over a 4 MiB buffer.
double measure_gbs(bool reduce) {
  constexpr size_t kFloats = 1U << 20U;
  constexpr int kReps = 8;
  std::vector<float> a(kFloats, 1.0F);
  std::vector<float> b(kFloats, 2.0F);
  const auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    if (reduce) {
      float* pa = a.data();
      const float* pb = b.data();
      for (size_t k = 0; k < kFloats; ++k) pa[k] += pb[k];
    } else {
      std::memcpy(a.data(), b.data(), kFloats * sizeof(float));
    }
    // Keep the optimizer from collapsing the loop across reps.
    asm volatile("" : : "r"(a.data()) : "memory");
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  const double bytes = static_cast<double>(kFloats) * sizeof(float) * kReps;
  return std::max(bytes / std::max(seconds, 1e-9) / 1e9, 0.01);
}

// fp32->fp16->fp32 codec stream rate in GB/s of *fp32-side* bytes
// (one pack plus one unpack pass — the per-bucket round trip).
double measure_fp16_pack_gbs() {
  constexpr size_t kFloats = 1U << 20U;
  constexpr int kReps = 4;
  std::vector<float> a(kFloats, 1.5F);
  std::vector<uint16_t> h(kFloats);
  const auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    fp16_pack(a.data(), kFloats, h.data());
    fp16_unpack(h.data(), kFloats, a.data());
    asm volatile("" : : "r"(a.data()), "r"(h.data()) : "memory");
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  // Each rep streams the fp32 buffer twice (pack + unpack).
  const double bytes =
      static_cast<double>(kFloats) * sizeof(float) * kReps * 2;
  return std::max(bytes / std::max(seconds, 1e-9) / 1e9, 0.01);
}

// fp16 wire accumulate (decode-add-encode) rate in GB/s of *wire*
// bytes, mirroring measure_gbs(reduce=true) on the fp16 kernel.
double measure_fp16_reduce_gbs() {
  constexpr size_t kSlots = 1U << 19U;  // 2 MiB wire = 1M halves
  constexpr int kReps = 8;
  std::vector<float> a(kSlots, 0.0F);
  std::vector<float> b(kSlots, 0.0F);
  const WireKernels& wk = wire_kernels(WireFormat::kFp16);
  const auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    wk.accumulate(a.data(), b.data(), 0, kSlots);
    asm volatile("" : : "r"(a.data()) : "memory");
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  const double bytes = static_cast<double>(kSlots) * sizeof(float) * kReps;
  return std::max(bytes / std::max(seconds, 1e-9) / 1e9, 0.01);
}

}  // namespace

CommCostParams CommCostParams::defaults() { return CommCostParams{}; }

const CommCostParams& CommCostParams::calibrated() {
  static const CommCostParams params = [] {
    CommCostParams p = defaults();
    if (knobs::get<bool>(Knob::kCommCalib)) {
      p.sync_us = measure_sync_us();
      p.reduce_gbs = measure_gbs(/*reduce=*/true);
      p.copy_gbs = measure_gbs(/*reduce=*/false);
      // In-process "inter-node" links are the same memory bus.
      p.inter_sync_us = p.sync_us;
      p.inter_gbs = p.copy_gbs;
      p.fp16_pack_gbs = measure_fp16_pack_gbs();
      p.fp16_reduce_gbs = measure_fp16_reduce_gbs();
    }
    const auto pin = [](Knob knob, std::initializer_list<double*> fields) {
      if (const auto v = knobs::find<double>(knob)) {
        for (double* field : fields) *field = *v;
      }
    };
    pin(Knob::kCommSyncUs, {&p.sync_us, &p.inter_sync_us});
    pin(Knob::kCommReduceGbs, {&p.reduce_gbs});
    pin(Knob::kCommCopyGbs, {&p.copy_gbs, &p.inter_gbs});
    pin(Knob::kCommFp16PackGbs, {&p.fp16_pack_gbs});
    pin(Knob::kCommFp16ReduceGbs, {&p.fp16_reduce_gbs});
    DMIS_LOG(kInfo) << "comm tuner calibrated: sync=" << p.sync_us
                   << "us reduce=" << p.reduce_gbs << "GB/s copy="
                   << p.copy_gbs << "GB/s fp16_pack=" << p.fp16_pack_gbs
                   << "GB/s fp16_reduce=" << p.fp16_reduce_gbs << "GB/s";
    return p;
  }();
  return params;
}

AlgoTuner::AlgoTuner(const CommCostParams& params, int world,
                     int ranks_per_node)
    : params_(params), world_(world), rpn_(ranks_per_node) {
  DMIS_CHECK(world >= 1, "tuner needs world >= 1, got " << world);
  if (rpn_ <= 0 || rpn_ > world_) rpn_ = world_;  // flat topology
}

bool AlgoTuner::hier_eligible() const {
  // rpn == world is a single node (hier collapses to the ring); rpn == 1
  // makes every rank a leader (hier degenerates to tree + overhead).
  return rpn_ > 1 && rpn_ < world_;
}

// Closed-form alpha-beta cost of one collective: each barrier-separated
// step costs one rendezvous latency plus its slowest per-rank transfer.
// Shared inter-node links divide their bandwidth among the ranks of a
// node pulling across them in the same step. These formulas are written
// independently of all_reduce_steps(); cluster/comm_sim executes that
// schedule on the DES and a test cross-validates the two rankings.
double AlgoTuner::predict_seconds(AllReduceAlgo algo, size_t bytes,
                                  WireFormat wire) const {
  DMIS_CHECK(algo != AllReduceAlgo::kAuto,
             "predict_seconds wants a concrete algorithm");
  const int n = world_;
  if (n == 1) return 0.0;
  const double S = static_cast<double>(bytes);
  const int g = rpn_;
  const int m = (n + g - 1) / g;
  const bool multi = m > 1;
  const double alpha =
      (multi ? params_.inter_sync_us : params_.sync_us) * 1e-6;
  // fp16 reduce steps decode-add-encode instead of streaming fp32 adds;
  // copy steps stay memcpy (slots are opaque), so only this beta moves.
  const double red_gbs = wire == WireFormat::kFp16 ? params_.fp16_reduce_gbs
                                                   : params_.reduce_gbs;
  const auto intra_red = [&](double b) { return b / (red_gbs * 1e9); };
  const auto intra_cpy = [&](double b) {
    return b / (params_.copy_gbs * 1e9);
  };
  const auto inter = [&](double b, int pullers_per_node) {
    return b * pullers_per_node / (params_.inter_gbs * 1e9);
  };

  switch (algo) {
    case AllReduceAlgo::kRing: {
      // 2(n-1) steps of S/n; one node-boundary rank per node crosses.
      const double chunk = S / n;
      const double rs =
          multi ? std::max(intra_red(chunk), inter(chunk, 1))
                : intra_red(chunk);
      const double ag =
          multi ? std::max(intra_cpy(chunk), inter(chunk, 1))
                : intra_cpy(chunk);
      return (n - 1) * (alpha + rs) + (n - 1) * (alpha + ag);
    }
    case AllReduceAlgo::kTree: {
      const int p = pow2_floor(n);
      const int extras = n - p;
      double t = 0.0;
      if (extras > 0) {
        const int c = std::min(extras, g);
        t += alpha + (multi ? std::max(intra_red(S), inter(S, c))
                            : intra_red(S));
      }
      // Exchange at distance d moves S*d/p bytes; it crosses nodes when
      // d >= g, and then every participant of a node pulls at once.
      for (int d = p / 2; d >= 1; d /= 2) {
        const double b = S * d / p;
        const bool x = multi && d >= g;
        t += alpha +
             (x ? std::max(intra_red(b), inter(b, std::min(g, p)))
                : intra_red(b));
      }
      for (int d = 1; d < p; d *= 2) {
        const double b = S * d / p;
        const bool x = multi && d >= g;
        t += alpha +
             (x ? std::max(intra_cpy(b), inter(b, std::min(g, p)))
                : intra_cpy(b));
      }
      if (extras > 0) {
        const int c = std::min(extras, g);
        t += alpha + (multi ? std::max(intra_cpy(S), inter(S, c))
                            : intra_cpy(S));
      }
      return t;
    }
    case AllReduceAlgo::kHier: {
      if (!multi) {  // collapses to the intra ring
        return predict_seconds(AllReduceAlgo::kRing, bytes, wire);
      }
      // Intra-node ring all-reduce over g ranks...
      const double chunk = S / g;
      double t = (g - 1) * (alpha + intra_red(chunk)) +
                 (g - 1) * (alpha + intra_cpy(chunk));
      // ...halving/doubling across the m node leaders (one puller per
      // node link, the hierarchy's selling point)...
      const int pm = pow2_floor(m);
      const int ex = m - pm;
      if (ex > 0) t += alpha + std::max(intra_red(S), inter(S, 1));
      for (int d = pm / 2; d >= 1; d /= 2) {
        const double b = S * d / pm;
        t += alpha + std::max(intra_red(b), inter(b, 1));
      }
      for (int d = 1; d < pm; d *= 2) {
        const double b = S * d / pm;
        t += alpha + std::max(intra_cpy(b), inter(b, 1));
      }
      if (ex > 0) t += alpha + std::max(intra_cpy(S), inter(S, 1));
      // ...and the intra-node leader broadcast.
      t += alpha + intra_cpy(S);
      return t;
    }
    case AllReduceAlgo::kAuto:
      break;
  }
  DMIS_CHECK(false, "unreachable");
  return 0.0;
}

double AlgoTuner::codec_seconds(size_t logical_bytes, WireFormat wire) const {
  if (wire != WireFormat::kFp16) return 0.0;
  // One pack before the collective plus one unpack after it, each
  // streaming the full fp32-side buffer once.
  return 2.0 * static_cast<double>(logical_bytes) /
         (params_.fp16_pack_gbs * 1e9);
}

double AlgoTuner::predict_sync_seconds(AllReduceAlgo algo,
                                       size_t logical_bytes,
                                       WireFormat wire) const {
  size_t wire_bytes = logical_bytes;
  if (wire == WireFormat::kFp16) {
    wire_bytes = fp16_wire_floats(logical_bytes / sizeof(float)) *
                 sizeof(float);
  }
  return codec_seconds(logical_bytes, wire) +
         predict_seconds(algo, wire_bytes, wire);
}

AllReduceAlgo AlgoTuner::choose(size_t bytes, WireFormat wire) const {
  if (world_ == 1) return AllReduceAlgo::kRing;
  AllReduceAlgo best = AllReduceAlgo::kRing;
  double best_t = predict_seconds(best, bytes, wire);
  const AllReduceAlgo candidates[] = {AllReduceAlgo::kTree,
                                      AllReduceAlgo::kHier};
  for (const AllReduceAlgo algo : candidates) {
    if (algo == AllReduceAlgo::kHier && !hier_eligible()) continue;
    const double t = predict_seconds(algo, bytes, wire);
    if (t < best_t) {  // strict: ties keep the bitwise-stable ring
      best = algo;
      best_t = t;
    }
  }
  return best;
}

std::string AlgoTuner::decision_table_json() const {
  std::ostringstream os;
  os << "{\"world\":" << world_ << ",\"ranks_per_node\":" << rpn_
     << ",\"rows\":[";
  bool first = true;
  for (size_t bytes = 1024; bytes <= (256UL << 20U); bytes *= 8) {
    if (!first) os << ',';
    first = false;
    os << "{\"bytes\":" << bytes;
    for (const AllReduceAlgo algo :
         {AllReduceAlgo::kRing, AllReduceAlgo::kTree, AllReduceAlgo::kHier}) {
      os << ",\"" << all_reduce_algo_name(algo)
         << "_us\":" << predict_seconds(algo, bytes) * 1e6;
    }
    os << ",\"pick\":\"" << all_reduce_algo_name(choose(bytes)) << "\"}";
  }
  os << "]}";
  return os.str();
}

}  // namespace dmis::comm
