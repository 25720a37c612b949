// Gradient compression for the bucketed allreduce path.
//
// The data-parallel phase is bandwidth-bound on the bucketed gradient
// exchange, so this layer shrinks the bytes each rank exposes to its
// peers ("the wire" of this in-process substrate is the registered
// buffer peers pull from between barriers):
//
//  * fp16 wire codec — bucket payloads are packed to IEEE 754 half
//    precision (round-to-nearest-even; denormals, NaN and Inf survive;
//    overflow saturates to ±Inf) before the inter-rank exchange. Every
//    reduction step decodes both operands to fp32, adds in fp32, and
//    rounds the sum once back to the wire — the NCCL fp16-allreduce
//    contract. Halves the bytes every ring/tree/hier step moves.
//
//  * top-k sparsification with per-bucket error feedback — each rank
//    sends only its k largest-magnitude entries as (index, value)
//    pairs; everything unsent accumulates in a local residual that is
//    re-injected into the next step's gradient (Deep Gradient
//    Compression style), so nothing is dropped, only delayed. The
//    pairs ride a *slotted dense allreduce*: the wire buffer has one
//    k-pair slot per rank (zeros elsewhere), which makes the sparse
//    exchange composable with all three collective algorithms and the
//    async comm-worker path for free.
//
// Selection: DMIS_COMPRESS=none|fp16|topk (+ DMIS_TOPK_RATIO for the
// sparsity) or CompressOptions (common/knobs.hpp). The codec cost and
// the compressed byte counts also feed the AlgoTuner and the cluster
// DES (comm_sim), so `auto` ranks algorithms with compression in the
// loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "common/knobs.hpp"

namespace dmis::comm {

// ---------------------------------------------------------------------
// Wire format: the element type of a collective's registered buffers.

/// How the bytes a collective exchanges are encoded. kFp16 buffers are
/// float-slot arrays whose slots each carry two packed halves; slots
/// are never split, so chunked schedules work unchanged.
enum class WireFormat : uint8_t {
  kFp32 = 0,  ///< plain float elements (the default)
  kFp16 = 1,  ///< packed IEEE half pairs, reduced in fp32
};

/// Float slots needed to carry `n` logical floats on an fp16 wire
/// (two halves per slot; an odd tail half is zero padding).
constexpr size_t fp16_wire_floats(size_t n) { return (n + 1) / 2; }

/// Element-wise kernels one wire format needs inside a collective
/// schedule. Ranges are float-slot indices [b, e); plain copies stay
/// memcpy for every format (slots are opaque bytes). The fp32 kernels
/// are the exact loops the strategies always ran; the fp16 kernels
/// decode both operands, add in fp32, and re-encode once (RNE).
struct WireKernels {
  void (*accumulate)(float* mine, const float* theirs, size_t b, size_t e);
  void (*accumulate_scale)(float* mine, const float* theirs, size_t b,
                           size_t e, float scale);
  void (*scale)(float* data, size_t b, size_t e, float scale);
};

/// The process-wide kernel table for `fmt`.
const WireKernels& wire_kernels(WireFormat fmt);

// ---------------------------------------------------------------------
// Scalar fp16 codec (the portable reference; pack/unpack below use the
// hardware F16C converters when the CPU has them).

/// fp32 -> IEEE 754 binary16, round-to-nearest-even. Denormal halves
/// are produced (no flush-to-zero), NaN stays NaN (payload truncated,
/// quiet bit forced), Inf stays Inf, and finite values beyond the half
/// range saturate to ±Inf through the rounding carry.
uint16_t fp16_encode(float v);

/// IEEE 754 binary16 -> fp32 (exact: every half is representable).
float fp16_decode(uint16_t h);

/// Bulk encode/decode `n` scalars (F16C-accelerated when available;
/// identical rounding either way).
void fp16_pack(const float* src, size_t n, uint16_t* dst);
void fp16_unpack(const uint16_t* src, size_t n, float* dst);

/// Bulk encode with a fused multiply: dst[k] = fp16(src[k] * scale).
/// scale == 1 is exactly fp16_pack. This is what lets the GradBucketer
/// fold its pack_scale into the codec pass — the fp16 path then reads
/// the same bytes the uncompressed pack pass reads and writes half.
void fp16_pack_scale(const float* src, size_t n, uint16_t* dst, float scale);

// ---------------------------------------------------------------------
// Mode selection.

enum class CompressMode : uint8_t {
  kNone = 0,
  kFp16 = 1,
  kTopK = 2,
};

/// "none" / "fp16" / "topk" (the DMIS_COMPRESS words).
const char* compress_mode_name(CompressMode mode);

/// The DMIS_COMPRESS / DMIS_TOPK_RATIO knobs as configured by the
/// caller; GradBucketer resolves them.
struct CompressOptions {
  CompressMode mode = knobs::default_value<CompressMode>(Knob::kCompress);
  /// Fraction of each bucket's entries a top-k rank sends (>= 1 entry).
  double topk_ratio = knobs::default_value<double>(Knob::kTopkRatio);
};

// ---------------------------------------------------------------------
// Compressor: the pluggable codec the GradBucketer drives per bucket.

/// One gradient-compression scheme. Stateless — per-bucket state (the
/// top-k error-feedback residual) lives in the caller and is passed in,
/// which is what lets MirroredStrategy carry residuals across an
/// elastic shrink/rebuild. Thread-safe: concurrent calls on distinct
/// buffers are fine (one bucketer per replica thread).
class Compressor {
 public:
  virtual ~Compressor() = default;

  virtual CompressMode mode() const = 0;

  /// Wire format the collective must run for this scheme.
  virtual WireFormat wire_format() const = 0;

  /// Float-slot length of the wire buffer for an n-float bucket.
  virtual size_t wire_len(size_t n) const = 0;

  /// Scale the collective itself applies to the wire payload. Dense
  /// codecs let unpack_scale ride the schedule (mean fusion); the
  /// sparse codec must keep its index floats unscaled and applies
  /// unpack_scale in decode() instead.
  virtual float wire_scale(float unpack_scale) const = 0;

  /// True when the scheme keeps a per-bucket residual of n floats that
  /// encode() updates (error feedback).
  virtual bool error_feedback() const = 0;

  /// Encodes one bucket (already pack-scaled fp32) into wire[0,
  /// wire_len(n)). `rank` addresses this rank's slot for sparse
  /// formats; `residual` must be grad-sized when error_feedback() and
  /// empty otherwise.
  virtual void encode(std::span<const float> grad, std::span<float> wire,
                      int rank, std::span<float> residual) const = 0;

  /// Decodes the *reduced* wire buffer back into the bucket's fp32
  /// floats. `unpack_scale` is only consumed by codecs whose
  /// wire_scale() withheld it from the collective.
  virtual void decode(std::span<const float> wire, std::span<float> grad,
                      float unpack_scale) const = 0;
};

/// Builds the codec for `options` over a `world`-rank group; nullptr
/// for kNone (callers keep the uncompressed zero-copy path).
std::unique_ptr<Compressor> make_compressor(const CompressOptions& options,
                                            int world);

/// Records one bucket's compression on the comm.compress.bytes_in /
/// bytes_out counters and the comm.compress.ratio gauge (cumulative
/// in/out), exported via the /metrics endpoint.
void note_compression(size_t bytes_in, size_t bytes_out);

}  // namespace dmis::comm
