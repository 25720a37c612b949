// GradBucketer: fused, compute-overlapped gradient allreduce.
//
// The per-tensor synchronization the strategy used to run — one
// blocking ring allreduce per parameter after the whole backward pass —
// pays full ring latency (2*(n-1) barrier rendezvous) for every small
// tensor and never overlaps communication with compute. This is the
// NCCL/DDP-style alternative: parameters are laid out in *reverse
// registration order* (the order backward produces their gradients) and
// synchronized as the Graph grad_ready hook reports them final, with
// the ring running on the comm worker behind the remaining backward
// compute. wait_all() then drains the in-flight requests.
//
// Two bucket kinds, Horovod-fusion style:
//  * small tensors are packed into flat buckets capped at
//    `bucket_bytes`, amortizing ring rendezvous across many tensors;
//  * a tensor of at least min(kDirectBytes, bucket_bytes) gets a
//    *direct* bucket: its gradient is reduced in place — no pack, no
//    unpack — because at that size the two extra buffer passes cost
//    more than the rendezvous they would save.
//
// The per-replica sample weighting of MirroredStrategy is folded in:
// pack (or an in-place pre-scale for direct buckets) applies pack_scale
// (local sample count), and unpack_scale (1/global batch) rides the
// ring itself — the communicator multiplies each chunk once as its
// reduction completes, exactly as all_reduce_mean does — so unpacking
// is a plain copy-out and the arithmetic is element-for-element the
// same as the old scale_ / allreduce / scale_ triple pass.
//
// Ordering: buckets are *always launched in layout order*, on every
// rank, regardless of the order gradients become ready. Readiness only
// marks a bucket launchable; fire happens when all earlier-layout
// buckets have fired too. This is what keeps the SPMD contract intact
// when ranks see different readiness orders — a ready-driven replica
// (whose hook delivers a node's weight before its bias, while the
// layout places the bias first) and an idle replica that goes straight
// to flush() must submit identical collective sequences.
//
// Determinism: bucket layout is a pure function of the parameter list
// and the byte cap; launch order is layout order; the ring reduction
// order per bucket is fixed — so for a fixed layout and rank count the
// fused path is bitwise-reproducible run to run.
//
// Threading: one GradBucketer per replica, driven entirely by that
// replica's thread; only the comm workers touch the bucket buffers
// (and direct gradients) between fire and wait.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/compress.hpp"
#include "nn/module.hpp"

namespace dmis::train {

class GradBucketer {
 public:
  /// Default bucket cap (~1 MiB), the NCCL/DDP ballpark.
  static constexpr size_t kDefaultBucketBytes = size_t{1} << 20;

  /// Tensors of at least this many bytes (clamped to the bucket cap)
  /// bypass packing and are ring-reduced in place. 64 KiB: roughly
  /// where two extra passes over the tensor overtake the few-µs ring
  /// rendezvous on this host.
  static constexpr size_t kDirectBytes = size_t{64} << 10;

  /// Builds the bucket layout over `params` (registration order, as
  /// returned by Graph::params()). `comm` must outlive the bucketer.
  /// `bucket_bytes` caps each packed bucket; a parameter of at least
  /// min(kDirectBytes, bucket_bytes) gets a direct (in-place) bucket of
  /// its own. `compress` selects the wire codec (the DMIS_COMPRESS /
  /// DMIS_TOPK_RATIO knobs); the bucket *layout* is independent of it,
  /// so residuals survive a rebuild over the same parameters.
  GradBucketer(std::vector<nn::Param> params, comm::Communicator& comm,
               size_t bucket_bytes = kDefaultBucketBytes,
               comm::CompressOptions compress = {});

  GradBucketer(const GradBucketer&) = delete;
  GradBucketer& operator=(const GradBucketer&) = delete;

  /// Arms the bucketer for one training step. Gradients are multiplied
  /// by `pack_scale` while packing and by `unpack_scale` while
  /// unpacking (MirroredStrategy passes local sample count and 1/global
  /// batch respectively).
  void begin_step(float pack_scale, float unpack_scale);

  /// Marks one parameter's gradient final (matched by grad pointer; the
  /// Graph grad_ready hook calls this). Launches the bucket's async
  /// allreduce when its last parameter arrives. No-op unless armed by
  /// begin_step().
  void on_grad_ready(const nn::Param& p);

  /// Launches every not-yet-fired bucket, in layout order — covers
  /// parameters whose nodes never ran backward (idle replica, pruned
  /// subgraph). Must be called before wait_all().
  void flush();

  /// Waits for every launched allreduce, then unpacks buckets back into
  /// the parameter gradients (applying unpack_scale). Rethrows the
  /// first comm-worker error after all requests have settled. Disarms
  /// the bucketer.
  void wait_all();

  /// Abandons the in-flight step after a collective failure: waits for
  /// every *fired* request to settle (swallowing their errors — on a
  /// poisoned group they all fail fast) so no comm worker is still
  /// touching bucket buffers or gradients, then disarms without
  /// unpacking. Safe to call whether or not the step was armed; the
  /// elastic recovery path calls this before tearing the group down.
  void abandon();

  /// Effective compression mode (after env resolution).
  comm::CompressMode compress_mode() const { return compress_.mode; }

  /// Per-bucket error-feedback residuals, in layout order (empty inner
  /// vectors when the codec keeps no residual). The elastic recovery
  /// path exports these before tearing a group down and imports them
  /// into the rebuilt bucketer so no accumulated gradient mass is lost
  /// across a shrink-to-survivors restore.
  using ResidualState = std::vector<std::vector<float>>;
  ResidualState export_residuals() const;
  /// Restores residuals exported from a bucketer over the *same*
  /// parameter list and bucket cap (layout-identical; checked).
  void import_residuals(const ResidualState& state);

  size_t num_buckets() const { return buckets_.size(); }
  /// Direct (in-place, zero-copy) buckets in the layout.
  size_t num_direct() const;
  /// Buckets launched since begin_step().
  size_t buckets_fired() const { return fired_; }
  /// Tracer timestamp of the first launch this step, or -1.
  int64_t first_fire_us() const { return first_fire_us_; }
  /// Parameter names per bucket, in layout (launch) order.
  std::vector<std::vector<std::string>> layout() const;

 private:
  struct Slot {
    nn::Param param;
    size_t bucket = 0;
    size_t offset = 0;  // float offset into the bucket buffer
    bool ready = false;
  };
  struct Bucket {
    std::vector<size_t> slots;  // indices into slots_, pack order
    std::vector<float> buf;     // empty for direct buckets
    std::vector<float> wire;    // compressed payload (empty: reduce raw)
    std::vector<float> residual;  // error-feedback state (topk only)
    bool direct = false;
    size_t ready = 0;
    bool fired = false;
    comm::AsyncRequest request;
  };

  void fire_ready_prefix();
  void fire(Bucket& bucket);
  /// The fp32 gradient floats bucket `b` carries (direct: the tensor).
  size_t logical_len(const Bucket& bucket) const;

  comm::Communicator& comm_;
  comm::CompressOptions compress_;
  std::unique_ptr<comm::Compressor> compressor_;
  /// Residuals as of begin_step(); abandon() restores them so an
  /// aborted step's error-feedback mutations never reach the retry.
  ResidualState residual_snapshot_;
  std::vector<Slot> slots_;       // registration order
  std::vector<Bucket> buckets_;   // layout order == launch order
  std::unordered_map<const NDArray*, size_t> slot_by_grad_;
  bool armed_ = false;
  float pack_scale_ = 1.0F;
  float unpack_scale_ = 1.0F;
  size_t fired_ = 0;              // == index of the next bucket to launch
  int64_t first_fire_us_ = -1;
};

}  // namespace dmis::train
