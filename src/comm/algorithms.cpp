#include "comm/algorithms.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "comm/communicator.hpp"
#include "common/check.hpp"
#include "obs/trace.hpp"

namespace dmis::comm {

const char* all_reduce_algo_name(AllReduceAlgo algo) {
  switch (algo) {
    case AllReduceAlgo::kRing: return "ring";
    case AllReduceAlgo::kTree: return "tree";
    case AllReduceAlgo::kHier: return "hier";
    case AllReduceAlgo::kAuto: return "auto";
  }
  return "?";
}

int node_of(int rank, int ranks_per_node) {
  if (ranks_per_node <= 0) return 0;
  return rank / ranks_per_node;
}

namespace {

int pow2_floor(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

// -------------------------------------------------------------------
// Execution building blocks. Both run over the *global* barrier in
// lockstep: every rank of the group calls sync() the same number of
// times regardless of how much work it does, which is what keeps the
// sequence check / deadlines / abort machinery algorithm-agnostic.

// Chunked ring all-reduce over the contiguous rank block
// [base, base+g); `lockstep` >= g is the number of ring slots each
// phase spans globally (ragged node groups idle through their tail
// slots so every group stays on the same barrier cadence). `wk` holds
// the element kernels of the wire format (plain fp32 loops, or the
// fp16 decode-add-encode pairs); chunk boundaries address float slots,
// which are opaque to the all-gather memcpys either way.
void ring_block(CollectiveOps& ops, std::span<float> data, float scale,
                const WireKernels& wk, int base, int g, int lockstep) {
  const size_t len = data.size();
  float* mine = data.data();
  const int pos = ops.rank() - base;
  if (g == 1 && scale != 1.0F) {
    wk.scale(mine, 0, len, scale);
  }
  const size_t chunk_len =
      (len + static_cast<size_t>(g) - 1) / static_cast<size_t>(g);
  const auto chunk_begin = [&](int c) {
    return std::min(len, static_cast<size_t>(c) * chunk_len);
  };
  const auto chunk_end = [&](int c) {
    return std::min(len, (static_cast<size_t>(c) + 1) * chunk_len);
  };
  const int left = base + (pos - 1 + g) % g;
  const float* theirs = ops.peer(left);

  // Phase 1 — reduce-scatter: at step s, group position i accumulates
  // chunk (i - 1 - s) mod g from its left neighbor. After g-1 steps
  // position i holds the complete chunk (i + 1) mod g. The final step
  // completes that owned chunk, so a mean's 1/n lands there fused with
  // the last accumulation — every element is scaled exactly once, by
  // its owner, before the all-gather phase propagates it.
  {
    DMIS_TRACE_SPAN("comm.allreduce.reduce_scatter",
                    {{"steps", lockstep - 1}});
    for (int s = 0; s < lockstep - 1; ++s) {
      if (s < g - 1) {
        const int c = ((pos - 1 - s) % g + g) % g;
        const size_t b = chunk_begin(c), e = chunk_end(c);
        if (s == g - 2 && scale != 1.0F) {
          wk.accumulate_scale(mine, theirs, b, e, scale);
        } else {
          wk.accumulate(mine, theirs, b, e);
        }
      }
      ops.sync();
    }
  }

  // Phase 2 — all-gather: at step s, position i copies chunk
  // (i - s) mod g (the one its left neighbor just completed/received).
  {
    DMIS_TRACE_SPAN("comm.allreduce.all_gather", {{"steps", lockstep - 1}});
    for (int s = 0; s < lockstep - 1; ++s) {
      if (s < g - 1) {
        const int c = ((pos - s) % g + g) % g;
        const size_t b = chunk_begin(c), e = chunk_end(c);
        if (e > b) std::memcpy(mine + b, theirs + b, (e - b) * sizeof(float));
      }
      ops.sync();
    }
  }
}

// Recursive halving/doubling all-reduce over the `m` participant ranks
// {0, stride, 2*stride, ...}; every other rank idle-syncs in lockstep.
// Works on the full vector; m is reduced to its power-of-two floor p by
// folding extras p+j into absorbers j up front and copying back at the
// end. At each halving step the pair (j, j^d) exchange *disjoint*
// halves of their current segments — each writes only the half it
// keeps — so shared-memory reads and writes never overlap within a
// barrier window.
void tree_block(CollectiveOps& ops, std::span<float> data, float scale,
                const WireKernels& wk, int stride, int m) {
  const size_t len = data.size();
  float* mine = data.data();
  const int rank = ops.rank();
  const bool participant = (rank % stride == 0) && (rank / stride) < m;
  const int j = participant ? rank / stride : -1;
  if (m <= 1) {
    // Degenerate: one participant already holds the result; no ranks
    // sync (everyone computes the same m), only the scale is owed.
    if (participant && scale != 1.0F) {
      wk.scale(mine, 0, len, scale);
    }
    return;
  }
  const int p = pow2_floor(m);
  const int extras = m - p;

  // Fold: extra p+j collapses into absorber j before the binomial
  // exchange; its buffer goes stale until the unfold copies it back.
  if (extras > 0) {
    DMIS_TRACE_SPAN("comm.allreduce.tree_fold", {{"extras", extras}});
    if (j >= 0 && j < extras) {
      const float* theirs = ops.peer(stride * (p + j));
      wk.accumulate(mine, theirs, 0, len);
    }
    ops.sync();
  }

  // Recursive halving (reduce-scatter): segments shrink by half per
  // step; the d==1 step is each element's final accumulation, so the
  // mean's scale folds there — exactly once per element, by its owner.
  size_t lo = 0, hi = len;
  std::vector<std::pair<size_t, size_t>> history;
  {
    DMIS_TRACE_SPAN("comm.allreduce.halving", {{"ranks", p}});
    for (int d = p / 2; d >= 1; d /= 2) {
      if (j >= 0 && j < p) {
        const float* theirs = ops.peer(stride * (j ^ d));
        history.emplace_back(lo, hi);
        const size_t mid = lo + (hi - lo) / 2;
        const size_t b = ((j & d) == 0) ? lo : mid;
        const size_t e = ((j & d) == 0) ? mid : hi;
        if (d == 1 && scale != 1.0F) {
          wk.accumulate_scale(mine, theirs, b, e, scale);
        } else {
          wk.accumulate(mine, theirs, b, e);
        }
        lo = b;
        hi = e;
      }
      ops.sync();
    }
  }

  // Recursive doubling (all-gather): retrace the splits; the partner at
  // distance d holds the sibling half of the parent segment.
  {
    DMIS_TRACE_SPAN("comm.allreduce.doubling", {{"ranks", p}});
    for (int d = 1; d < p; d *= 2) {
      if (j >= 0 && j < p) {
        const float* theirs = ops.peer(stride * (j ^ d));
        const auto [plo, phi] = history.back();
        history.pop_back();
        if (lo == plo) {
          if (phi > hi) {
            std::memcpy(mine + hi, theirs + hi, (phi - hi) * sizeof(float));
          }
        } else if (lo > plo) {
          std::memcpy(mine + plo, theirs + plo, (lo - plo) * sizeof(float));
        }
        lo = plo;
        hi = phi;
      }
      ops.sync();
    }
  }

  // Unfold: extras copy the finished vector back from their absorber.
  if (extras > 0) {
    DMIS_TRACE_SPAN("comm.allreduce.tree_unfold", {{"extras", extras}});
    if (j >= p && j < m && len > 0) {
      const float* theirs = ops.peer(stride * (j - p));
      std::memcpy(mine, theirs, len * sizeof(float));
    }
    ops.sync();
  }
}

// -------------------------------------------------------------------
// Strategies.

class RingAllReduce final : public AllReduceStrategy {
 public:
  AllReduceAlgo algo() const override { return AllReduceAlgo::kRing; }
  void run(CollectiveOps& ops, std::span<float> data, float scale,
           WireFormat wire) const override {
    const int n = ops.world();
    ring_block(ops, data, scale, wire_kernels(wire), 0, n, n);
  }
};

class TreeAllReduce final : public AllReduceStrategy {
 public:
  AllReduceAlgo algo() const override { return AllReduceAlgo::kTree; }
  void run(CollectiveOps& ops, std::span<float> data, float scale,
           WireFormat wire) const override {
    tree_block(ops, data, scale, wire_kernels(wire), 1, ops.world());
  }
};

class HierarchicalAllReduce final : public AllReduceStrategy {
 public:
  AllReduceAlgo algo() const override { return AllReduceAlgo::kHier; }
  void run(CollectiveOps& ops, std::span<float> data, float scale,
           WireFormat wire) const override {
    const int n = ops.world();
    const int g = ops.ranks_per_node();
    const int m = (n + g - 1) / g;
    const WireKernels& wk = wire_kernels(wire);
    if (m <= 1) {
      // One node: the hierarchy collapses to the intra ring.
      ring_block(ops, data, scale, wk, 0, n, n);
      return;
    }
    const int node = ops.rank() / g;
    const int base = node * g;
    const int gsize = std::min(g, n - base);
    // Phase 1: unscaled ring all-reduce inside each node group; node 0
    // always has the full g members, so g is the lockstep width.
    ring_block(ops, data, 1.0F, wk, base, gsize, g);
    // Phase 2: recursive halving/doubling across the node leaders
    // (ranks node*g) on the full vector — the only inter-node traffic.
    // The mean's scale folds into the leaders' exchange.
    tree_block(ops, data, scale, wk, g, m);
    // Phase 3: members pull the finished vector from their leader; the
    // closing sync keeps leader buffers pinned until every copy lands.
    if (ops.rank() != base && !data.empty()) {
      std::memcpy(data.data(), ops.peer(base), data.size() * sizeof(float));
    }
    ops.sync();
  }
};

}  // namespace

const AllReduceStrategy& strategy_for(AllReduceAlgo algo) {
  static const RingAllReduce ring;
  static const TreeAllReduce tree;
  static const HierarchicalAllReduce hier;
  switch (algo) {
    case AllReduceAlgo::kRing: return ring;
    case AllReduceAlgo::kTree: return tree;
    case AllReduceAlgo::kHier: return hier;
    case AllReduceAlgo::kAuto: break;
  }
  DMIS_CHECK(false, "strategy_for(kAuto): resolve auto via the tuner first");
  return ring;  // unreachable
}

// -------------------------------------------------------------------
// Declarative schedule — mirrors the control flow above step for step.

namespace {

void ring_block_steps(std::vector<CollectiveStep>& out, double bytes,
                      int world, int ranks_per_node, int base, int g,
                      int lockstep) {
  // One RS pass then one AG pass, each lockstep-1 barriers wide.
  const auto phase = [&](bool reduce) {
    for (int s = 0; s < lockstep - 1; ++s) {
      CollectiveStep step;
      step.work.resize(static_cast<size_t>(world));
      for (int rank = base; rank < base + g; ++rank) {
        if (s >= g - 1) continue;
        const int pos = rank - base;
        const int left = base + (pos - 1 + g) % g;
        RankWork& w = step.work[static_cast<size_t>(rank)];
        w.bytes = bytes / g;
        w.peer = left;
        w.inter = node_of(rank, ranks_per_node) !=
                  node_of(left, ranks_per_node);
        w.reduce = reduce;
      }
      out.push_back(std::move(step));
    }
  };
  phase(/*reduce=*/true);
  phase(/*reduce=*/false);
}

// Merges the per-node ring blocks of the hier intra phase into shared
// lockstep steps (all groups progress between the same barriers).
void hier_intra_steps(std::vector<CollectiveStep>& out, double bytes,
                      int world, int g) {
  const int m = (world + g - 1) / g;
  const auto phase = [&](bool reduce) {
    for (int s = 0; s < g - 1; ++s) {
      CollectiveStep step;
      step.work.resize(static_cast<size_t>(world));
      for (int node = 0; node < m; ++node) {
        const int base = node * g;
        const int gsize = std::min(g, world - base);
        if (s >= gsize - 1) continue;
        for (int pos = 0; pos < gsize; ++pos) {
          const int rank = base + pos;
          RankWork& w = step.work[static_cast<size_t>(rank)];
          w.bytes = bytes / gsize;
          w.peer = base + (pos - 1 + gsize) % gsize;
          w.inter = false;
          w.reduce = reduce;
        }
      }
      out.push_back(std::move(step));
    }
  };
  phase(/*reduce=*/true);
  phase(/*reduce=*/false);
}

void tree_block_steps(std::vector<CollectiveStep>& out, double bytes,
                      int world, int ranks_per_node, int stride, int m) {
  if (m <= 1) return;
  const int p = pow2_floor(m);
  const int extras = m - p;
  const auto pair_work = [&](CollectiveStep& step, int j, int peer_j,
                             double b, bool reduce) {
    const int rank = stride * j;
    const int peer = stride * peer_j;
    RankWork& w = step.work[static_cast<size_t>(rank)];
    w.bytes = b;
    w.peer = peer;
    w.inter = node_of(rank, ranks_per_node) != node_of(peer, ranks_per_node);
    w.reduce = reduce;
  };
  if (extras > 0) {
    CollectiveStep step;
    step.work.resize(static_cast<size_t>(world));
    for (int j = 0; j < extras; ++j) {
      pair_work(step, j, p + j, bytes, /*reduce=*/true);
    }
    out.push_back(std::move(step));
  }
  std::vector<double> halves;  // payload per halving step, reused reversed
  double seg = bytes;
  for (int d = p / 2; d >= 1; d /= 2) {
    halves.push_back(seg / 2.0);
    seg /= 2.0;
    CollectiveStep step;
    step.work.resize(static_cast<size_t>(world));
    for (int j = 0; j < p; ++j) {
      pair_work(step, j, j ^ d, halves.back(), /*reduce=*/true);
    }
    out.push_back(std::move(step));
  }
  size_t k = halves.size();
  for (int d = 1; d < p; d *= 2) {
    --k;
    CollectiveStep step;
    step.work.resize(static_cast<size_t>(world));
    for (int j = 0; j < p; ++j) {
      pair_work(step, j, j ^ d, halves[k], /*reduce=*/false);
    }
    out.push_back(std::move(step));
  }
  if (extras > 0) {
    CollectiveStep step;
    step.work.resize(static_cast<size_t>(world));
    for (int j = 0; j < extras; ++j) {
      pair_work(step, p + j, j, bytes, /*reduce=*/false);
    }
    out.push_back(std::move(step));
  }
}

}  // namespace

std::vector<CollectiveStep> all_reduce_steps(AllReduceAlgo algo,
                                             double bytes, int world,
                                             int ranks_per_node) {
  DMIS_CHECK(algo != AllReduceAlgo::kAuto,
             "all_reduce_steps wants a concrete algorithm");
  DMIS_CHECK(world >= 1, "bad world size " << world);
  int g = ranks_per_node;
  if (g <= 0 || g > world) g = world;  // flat
  std::vector<CollectiveStep> steps;
  if (world == 1) return steps;
  switch (algo) {
    case AllReduceAlgo::kRing:
      ring_block_steps(steps, bytes, world, g, 0, world, world);
      break;
    case AllReduceAlgo::kTree:
      tree_block_steps(steps, bytes, world, g, 1, world);
      break;
    case AllReduceAlgo::kHier: {
      const int m = (world + g - 1) / g;
      if (m <= 1) {
        ring_block_steps(steps, bytes, world, g, 0, world, world);
        break;
      }
      hier_intra_steps(steps, bytes, world, g);
      tree_block_steps(steps, bytes, world, g, g, m);
      // Leader broadcast: every non-leader pulls the vector intra-node.
      CollectiveStep bcast;
      bcast.work.resize(static_cast<size_t>(world));
      for (int rank = 0; rank < world; ++rank) {
        const int base = (rank / g) * g;
        if (rank == base) continue;
        RankWork& w = bcast.work[static_cast<size_t>(rank)];
        w.bytes = bytes;
        w.peer = base;
        w.inter = false;
        w.reduce = false;
      }
      steps.push_back(std::move(bcast));
      break;
    }
    case AllReduceAlgo::kAuto:
      break;  // unreachable, checked above
  }
  return steps;
}

}  // namespace dmis::comm
