// AlgoTuner — picks an all-reduce algorithm per (message size, world
// size, topology) from an alpha-beta cost model, the FlagCX
// estimator / DistIR idea scaled to this in-process substrate.
//
// Cost model: a collective is a sequence of barrier-separated lockstep
// steps; each step costs one rendezvous latency (alpha) plus its
// largest per-rank transfer over the relevant link bandwidth (beta).
// The per-algorithm closed forms live in predict_seconds() and are
// *independent* of the declarative schedule in algorithms.hpp — the
// cluster DES executes that schedule event-by-event, and a dedicated
// test cross-validates the two rankings against each other.
//
// Calibration: the alphas/betas default to a one-shot process-wide
// micro-benchmark (a barrier storm for alpha, streamed add/copy loops
// for the betas, codec loops for the fp16 wire terms) so `auto` adapts
// to the host. DMIS_COMM_CALIB=0 skips the micro-benchmark; the
// DMIS_COMM_*_US / *_GBS knobs pin single parameters, which makes
// choose() fully deterministic for tests.
#pragma once

#include <cstddef>
#include <string>

#include "comm/algorithms.hpp"

namespace dmis::comm {

/// Alpha-beta parameters of the step cost model. Intra-node numbers
/// describe this process (shared memory); the inter-node pair only
/// differs when a simulated topology (cluster::ClusterSpec) is mapped
/// onto the model — in-process "nodes" share the same memory bus.
struct CommCostParams {
  double sync_us = 2.0;        ///< barrier rendezvous latency
  double inter_sync_us = 2.0;  ///< rendezvous when a step spans nodes
  double reduce_gbs = 4.0;     ///< streamed a[i] += b[i] bandwidth
  double copy_gbs = 8.0;       ///< streamed memcpy bandwidth
  double inter_gbs = 8.0;      ///< per-node shared inter-node link
  /// Gradient-compression terms (compress.hpp). fp16_pack_gbs is the
  /// fp32<->fp16 codec stream rate in *fp32-side* bytes (paid once at
  /// bucket entry and exit, outside the schedule); fp16_reduce_gbs is
  /// the decode-add-encode accumulate rate in *wire* bytes (replaces
  /// reduce_gbs inside fp16-wire reduce steps).
  double fp16_pack_gbs = 8.0;
  double fp16_reduce_gbs = 2.0;

  /// The compiled-in defaults above, untouched by env or calibration.
  static CommCostParams defaults();

  /// Process-wide calibrated parameters: micro-benchmark once (unless
  /// DMIS_COMM_CALIB=0), then apply any pinned env overrides. Cached;
  /// thread-safe; never recalibrates.
  static const CommCostParams& calibrated();
};

/// Scores ring/tree/hier for one fixed (world, ranks_per_node) group
/// and picks the cheapest per message size. Immutable after
/// construction, so concurrent choose() calls from comm workers are
/// race-free, and deterministic in `bytes` so every SPMD rank agrees.
class AlgoTuner {
 public:
  AlgoTuner(const CommCostParams& params, int world, int ranks_per_node);

  /// Predicted wall time of one blocking all-reduce of `bytes` (the
  /// *wire* byte count — what each rank registers) under `wire`'s
  /// element kernels: fp16 reduce steps run at fp16_reduce_gbs, copy
  /// steps stay memcpy. `algo` must be concrete (not kAuto).
  double predict_seconds(AllReduceAlgo algo, size_t bytes,
                         WireFormat wire = WireFormat::kFp32) const;

  /// One-time codec cost outside the schedule: pack before + unpack
  /// after one bucket of `logical_bytes` fp32 gradient bytes. Zero for
  /// the fp32 wire. Identical for every algorithm, so it shifts the
  /// end-to-end prediction but never the choose() ranking.
  double codec_seconds(size_t logical_bytes, WireFormat wire) const;

  /// End-to-end gradient-sync prediction for one bucket of
  /// `logical_bytes`: codec_seconds + predict_seconds on the wire byte
  /// count — the quantity cluster::simulate_all_reduce cross-validates
  /// under compression.
  double predict_sync_seconds(AllReduceAlgo algo, size_t logical_bytes,
                              WireFormat wire) const;

  /// Cheapest concrete algorithm for `bytes` on the given wire.
  /// Hierarchical is only a candidate on a real multi-node shape
  /// (1 < ranks_per_node < world); ties break toward ring (the
  /// bitwise-stable default).
  AllReduceAlgo choose(size_t bytes,
                       WireFormat wire = WireFormat::kFp32) const;

  /// True when hier is in the candidate set (multi-node topology).
  bool hier_eligible() const;

  int world() const { return world_; }
  int ranks_per_node() const { return rpn_; }
  const CommCostParams& params() const { return params_; }

  /// One-line JSON decision table over a size sweep (debugging aid,
  /// surfaced by flight-recorder dumps via the owning context).
  std::string decision_table_json() const;

 private:
  CommCostParams params_;
  int world_;
  int rpn_;  // effective ranks per node in [1, world]
};

}  // namespace dmis::comm
