#include "comm/compress.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/check.hpp"
#include "obs/metrics.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DMIS_F16C_DISPATCH 1
#include <immintrin.h>
#else
#define DMIS_F16C_DISPATCH 0
#endif

namespace dmis::comm {
namespace {

// Aliasing-safe half access into float-slot wire buffers (two halves
// per slot); memcpy compiles to plain 16-bit loads/stores.
inline uint16_t load_half(const void* p) {
  uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store_half(void* p, uint16_t v) {
  std::memcpy(p, &v, sizeof(v));
}

}  // namespace

// ---------------------------------------------------------------------
// Scalar fp16 codec — the portable rounding reference.

uint16_t fp16_encode(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  const auto sign = static_cast<uint16_t>((bits >> 16U) & 0x8000U);
  const uint32_t abs = bits & 0x7FFFFFFFU;
  if (abs >= 0x7F800000U) {
    if (abs == 0x7F800000U) return sign | 0x7C00U;  // ±Inf
    // NaN: keep the top payload bits, force the quiet bit so a payload
    // that truncates to zero cannot decay into an Inf.
    return sign | 0x7C00U | 0x0200U |
           static_cast<uint16_t>((abs >> 13U) & 0x03FFU);
  }
  // Re-bias: half exponent = fp32 exponent - (127 - 15).
  const int32_t exp = static_cast<int32_t>(abs >> 23U) - 112;
  const uint32_t mant = abs & 0x007FFFFFU;
  if (exp >= 31) return sign | 0x7C00U;  // far overflow -> ±Inf
  if (exp <= 0) {
    // Denormal half (or underflow to zero). |v| < 2^-25 rounds to ±0;
    // exactly 2^-25 ties to even (also ±0).
    if (exp < -10) return sign;
    const uint32_t full = mant | 0x00800000U;  // implicit bit
    const int shift = 14 - exp;                // 13 + (1 - exp)
    const uint32_t kept = full >> shift;
    const uint32_t rem = full & ((1U << shift) - 1U);
    const uint32_t half_way = 1U << (shift - 1);
    auto h = static_cast<uint16_t>(sign | kept);
    // RNE; a carry out of the mantissa lands on the smallest normal.
    if (rem > half_way || (rem == half_way && (kept & 1U) != 0)) ++h;
    return h;
  }
  auto h = static_cast<uint16_t>(sign | (exp << 10U) | (mant >> 13U));
  const uint32_t rem = mant & 0x1FFFU;
  // RNE; the carry propagates into the exponent, which is exactly what
  // rounds [65520, 65536) up to Inf and everything below to 65504.
  if (rem > 0x1000U || (rem == 0x1000U && (h & 1U) != 0)) ++h;
  return h;
}

float fp16_decode(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000U) << 16U;
  const uint32_t exp = (h >> 10U) & 0x1FU;
  const uint32_t mant = h & 0x03FFU;
  uint32_t bits;
  if (exp == 0) {
    if (mant == 0) {
      bits = sign;  // ±0
    } else {
      // Denormal half: normalize into an fp32 exponent.
      uint32_t m = mant;
      int shift = 0;
      while ((m & 0x0400U) == 0) {
        m <<= 1U;
        ++shift;
      }
      bits = sign | (static_cast<uint32_t>(113 - shift) << 23U) |
             ((m & 0x03FFU) << 13U);
    }
  } else if (exp == 31) {
    bits = sign | 0x7F800000U | (mant << 13U);  // Inf / NaN
  } else {
    bits = sign | ((exp + 112U) << 23U) | (mant << 13U);
  }
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

// ---------------------------------------------------------------------
// Bulk codec + wire kernels. The F16C variants use the hardware
// converters (VCVTPH2PS/VCVTPS2PH round-to-nearest-even, denormal and
// special-value exact — the same function the scalar reference
// computes); the tails and the fallback share the scalar codec.

namespace {

void pack_scalar(const float* src, size_t n, uint16_t* dst) {
  for (size_t k = 0; k < n; ++k) dst[k] = fp16_encode(src[k]);
}

void pack_scale_scalar(const float* src, size_t n, uint16_t* dst,
                       float scale) {
  for (size_t k = 0; k < n; ++k) dst[k] = fp16_encode(src[k] * scale);
}

void unpack_scalar(const uint16_t* src, size_t n, float* dst) {
  for (size_t k = 0; k < n; ++k) dst[k] = fp16_decode(src[k]);
}

#if DMIS_F16C_DISPATCH

__attribute__((target("f16c,avx"))) void pack_f16c(const float* src,
                                                   size_t n, uint16_t* dst) {
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256 f = _mm256_loadu_ps(src + k);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + k),
                     _mm256_cvtps_ph(f, _MM_FROUND_TO_NEAREST_INT));
  }
  pack_scalar(src + k, n - k, dst + k);
}

__attribute__((target("f16c,avx"))) void pack_scale_f16c(const float* src,
                                                         size_t n,
                                                         uint16_t* dst,
                                                         float scale) {
  const __m256 s = _mm256_set1_ps(scale);
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256 f = _mm256_mul_ps(_mm256_loadu_ps(src + k), s);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + k),
                     _mm256_cvtps_ph(f, _MM_FROUND_TO_NEAREST_INT));
  }
  pack_scale_scalar(src + k, n - k, dst + k, scale);
}

__attribute__((target("f16c,avx"))) void unpack_f16c(const uint16_t* src,
                                                     size_t n, float* dst) {
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + k));
    _mm256_storeu_ps(dst + k, _mm256_cvtph_ps(h));
  }
  unpack_scalar(src + k, n - k, dst + k);
}

bool has_f16c() {
  static const bool ok =
      __builtin_cpu_supports("f16c") && __builtin_cpu_supports("avx");
  return ok;
}

#endif  // DMIS_F16C_DISPATCH

}  // namespace

void fp16_pack(const float* src, size_t n, uint16_t* dst) {
#if DMIS_F16C_DISPATCH
  if (has_f16c()) {
    pack_f16c(src, n, dst);
    return;
  }
#endif
  pack_scalar(src, n, dst);
}

void fp16_pack_scale(const float* src, size_t n, uint16_t* dst,
                     float scale) {
  if (scale == 1.0F) {
    fp16_pack(src, n, dst);
    return;
  }
#if DMIS_F16C_DISPATCH
  if (has_f16c()) {
    pack_scale_f16c(src, n, dst, scale);
    return;
  }
#endif
  pack_scale_scalar(src, n, dst, scale);
}

void fp16_unpack(const uint16_t* src, size_t n, float* dst) {
#if DMIS_F16C_DISPATCH
  if (has_f16c()) {
    unpack_f16c(src, n, dst);
    return;
  }
#endif
  unpack_scalar(src, n, dst);
}

namespace {

// ----- fp32 kernels: the exact loops the strategies always ran. -----

void fp32_accumulate(float* mine, const float* theirs, size_t b, size_t e) {
  for (size_t k = b; k < e; ++k) mine[k] += theirs[k];
}

void fp32_accumulate_scale(float* mine, const float* theirs, size_t b,
                           size_t e, float scale) {
  for (size_t k = b; k < e; ++k) mine[k] = (mine[k] + theirs[k]) * scale;
}

void fp32_scale(float* data, size_t b, size_t e, float scale) {
  for (size_t k = b; k < e; ++k) data[k] *= scale;
}

// ----- fp16 kernels: decode both halves, combine in fp32, round once
// back to the wire. Slot ranges address float slots = half pairs. -----

void fp16_accumulate_tail(uint16_t* m, const uint16_t* t, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    store_half(m + k, fp16_encode(fp16_decode(load_half(m + k)) +
                                  fp16_decode(load_half(t + k))));
  }
}

void fp16_accumulate_scale_tail(uint16_t* m, const uint16_t* t, size_t n,
                                float scale) {
  for (size_t k = 0; k < n; ++k) {
    store_half(m + k, fp16_encode((fp16_decode(load_half(m + k)) +
                                   fp16_decode(load_half(t + k))) *
                                  scale));
  }
}

void fp16_scale_tail(uint16_t* m, size_t n, float scale) {
  for (size_t k = 0; k < n; ++k) {
    store_half(m + k, fp16_encode(fp16_decode(load_half(m + k)) * scale));
  }
}

#if DMIS_F16C_DISPATCH

__attribute__((target("f16c,avx"))) void fp16_accumulate_f16c(
    float* mine, const float* theirs, size_t b, size_t e) {
  auto* m = reinterpret_cast<uint16_t*>(mine + b);
  const auto* t = reinterpret_cast<const uint16_t*>(theirs + b);
  const size_t n = (e - b) * 2;
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256 fm = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(m + k)));
    const __m256 ft = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t + k)));
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(m + k),
        _mm256_cvtps_ph(_mm256_add_ps(fm, ft), _MM_FROUND_TO_NEAREST_INT));
  }
  fp16_accumulate_tail(m + k, t + k, n - k);
}

__attribute__((target("f16c,avx"))) void fp16_accumulate_scale_f16c(
    float* mine, const float* theirs, size_t b, size_t e, float scale) {
  auto* m = reinterpret_cast<uint16_t*>(mine + b);
  const auto* t = reinterpret_cast<const uint16_t*>(theirs + b);
  const size_t n = (e - b) * 2;
  const __m256 s = _mm256_set1_ps(scale);
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256 fm = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(m + k)));
    const __m256 ft = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t + k)));
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(m + k),
        _mm256_cvtps_ph(_mm256_mul_ps(_mm256_add_ps(fm, ft), s),
                        _MM_FROUND_TO_NEAREST_INT));
  }
  fp16_accumulate_scale_tail(m + k, t + k, n - k, scale);
}

__attribute__((target("f16c,avx"))) void fp16_scale_f16c(float* data,
                                                         size_t b, size_t e,
                                                         float scale) {
  auto* m = reinterpret_cast<uint16_t*>(data + b);
  const size_t n = (e - b) * 2;
  const __m256 s = _mm256_set1_ps(scale);
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256 fm = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(m + k)));
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(m + k),
        _mm256_cvtps_ph(_mm256_mul_ps(fm, s), _MM_FROUND_TO_NEAREST_INT));
  }
  fp16_scale_tail(m + k, n - k, scale);
}

#endif  // DMIS_F16C_DISPATCH

void fp16_accumulate(float* mine, const float* theirs, size_t b, size_t e) {
#if DMIS_F16C_DISPATCH
  if (has_f16c()) {
    fp16_accumulate_f16c(mine, theirs, b, e);
    return;
  }
#endif
  fp16_accumulate_tail(reinterpret_cast<uint16_t*>(mine + b),
                       reinterpret_cast<const uint16_t*>(theirs + b),
                       (e - b) * 2);
}

void fp16_accumulate_scale(float* mine, const float* theirs, size_t b,
                           size_t e, float scale) {
#if DMIS_F16C_DISPATCH
  if (has_f16c()) {
    fp16_accumulate_scale_f16c(mine, theirs, b, e, scale);
    return;
  }
#endif
  fp16_accumulate_scale_tail(reinterpret_cast<uint16_t*>(mine + b),
                             reinterpret_cast<const uint16_t*>(theirs + b),
                             (e - b) * 2, scale);
}

void fp16_scale(float* data, size_t b, size_t e, float scale) {
#if DMIS_F16C_DISPATCH
  if (has_f16c()) {
    fp16_scale_f16c(data, b, e, scale);
    return;
  }
#endif
  fp16_scale_tail(reinterpret_cast<uint16_t*>(data + b), (e - b) * 2, scale);
}

}  // namespace

const WireKernels& wire_kernels(WireFormat fmt) {
  static const WireKernels fp32{fp32_accumulate, fp32_accumulate_scale,
                                fp32_scale};
  static const WireKernels fp16{fp16_accumulate, fp16_accumulate_scale,
                                fp16_scale};
  return fmt == WireFormat::kFp16 ? fp16 : fp32;
}

// ---------------------------------------------------------------------
// Mode selection.

const char* compress_mode_name(CompressMode mode) {
  switch (mode) {
    case CompressMode::kNone: return "none";
    case CompressMode::kFp16: return "fp16";
    case CompressMode::kTopK: return "topk";
  }
  return "?";
}

// ---------------------------------------------------------------------
// Codecs.

namespace {

class Fp16Compressor final : public Compressor {
 public:
  CompressMode mode() const override { return CompressMode::kFp16; }
  WireFormat wire_format() const override { return WireFormat::kFp16; }
  size_t wire_len(size_t n) const override { return fp16_wire_floats(n); }
  float wire_scale(float unpack_scale) const override {
    return unpack_scale;  // rides the schedule, like all_reduce_mean
  }
  bool error_feedback() const override { return false; }

  void encode(std::span<const float> grad, std::span<float> wire,
              int /*rank*/, std::span<float> /*residual*/) const override {
    const size_t n = grad.size();
    DMIS_CHECK(wire.size() == wire_len(n),
               "fp16 wire buffer is " << wire.size() << " slots, want "
                                      << wire_len(n));
    auto* halves = reinterpret_cast<uint16_t*>(wire.data());
    fp16_pack(grad.data(), n, halves);
    if ((n & 1U) != 0) store_half(halves + n, 0);  // zero padding half
  }

  void decode(std::span<const float> wire, std::span<float> grad,
              float /*unpack_scale*/) const override {
    fp16_unpack(reinterpret_cast<const uint16_t*>(wire.data()), grad.size(),
                grad.data());
  }
};

// Top-k with error feedback over a slotted dense allreduce: the wire
// buffer holds one (index, value)-pair block per rank, zeros elsewhere;
// summing across ranks is then the identity on every block (index
// floats travel exact — adding zeros is lossless), so the sparse
// exchange runs through any dense collective schedule unmodified.
class TopKCompressor final : public Compressor {
 public:
  TopKCompressor(double ratio, int world) : ratio_(ratio), world_(world) {}

  CompressMode mode() const override { return CompressMode::kTopK; }
  WireFormat wire_format() const override { return WireFormat::kFp32; }
  size_t wire_len(size_t n) const override {
    return static_cast<size_t>(world_) * 2 * k_for(n);
  }
  float wire_scale(float /*unpack_scale*/) const override {
    return 1.0F;  // a fused scale would corrupt the index floats
  }
  bool error_feedback() const override { return true; }

  void encode(std::span<const float> grad, std::span<float> wire, int rank,
              std::span<float> residual) const override {
    const size_t n = grad.size();
    const size_t k = k_for(n);
    DMIS_CHECK(n < (1U << 24U),
               "topk bucket of " << n << " floats exceeds exact float "
                                 "index range");
    DMIS_CHECK(residual.size() == n,
               "topk residual is " << residual.size() << " floats, want "
                                   << n);
    DMIS_CHECK(wire.size() == wire_len(n),
               "topk wire buffer is " << wire.size() << " slots, want "
                                      << wire_len(n));
    // Error feedback: compress grad + carried residual, not grad alone.
    float* acc = residual.data();
    for (size_t i = 0; i < n; ++i) acc[i] += grad[i];
    // Deterministic selection: magnitude descending, index ascending on
    // ties — a strict total order, so the chosen k-set is unique on
    // every rank and run.
    thread_local std::vector<uint32_t> idx;
    idx.resize(n);
    std::iota(idx.begin(), idx.end(), 0U);
    const auto larger = [acc](uint32_t a, uint32_t b) {
      const float ma = std::fabs(acc[a]);
      const float mb = std::fabs(acc[b]);
      if (ma != mb) return ma > mb;
      return a < b;
    };
    if (k < n) {
      std::nth_element(idx.begin(),
                       idx.begin() + static_cast<ptrdiff_t>(k), idx.end(),
                       larger);
    }
    std::sort(idx.begin(), idx.begin() + static_cast<ptrdiff_t>(k));
    std::fill(wire.begin(), wire.end(), 0.0F);
    float* slot = wire.data() + static_cast<size_t>(rank) * 2 * k;
    for (size_t j = 0; j < k; ++j) {
      const uint32_t i = idx[j];
      slot[2 * j] = static_cast<float>(i);
      slot[2 * j + 1] = acc[i];
      acc[i] = 0.0F;  // sent; only the unsent mass stays in the residual
    }
  }

  void decode(std::span<const float> wire, std::span<float> grad,
              float unpack_scale) const override {
    const size_t n = grad.size();
    const size_t k = k_for(n);
    std::fill(grad.begin(), grad.end(), 0.0F);
    for (int r = 0; r < world_; ++r) {
      const float* slot = wire.data() + static_cast<size_t>(r) * 2 * k;
      for (size_t j = 0; j < k; ++j) {
        const auto i = static_cast<size_t>(slot[2 * j]);
        DMIS_CHECK(i < n, "topk decode: index " << i << " out of range "
                                                << n);
        grad[i] += slot[2 * j + 1] * unpack_scale;
      }
    }
  }

 private:
  size_t k_for(size_t n) const {
    const auto k =
        static_cast<size_t>(static_cast<double>(n) * ratio_);
    return std::max<size_t>(1, std::min(k, n));
  }

  double ratio_;
  int world_;
};

}  // namespace

std::unique_ptr<Compressor> make_compressor(const CompressOptions& options,
                                            int world) {
  DMIS_CHECK(world >= 1, "make_compressor needs world >= 1, got " << world);
  switch (options.mode) {
    case CompressMode::kNone:
      return nullptr;
    case CompressMode::kFp16:
      return std::make_unique<Fp16Compressor>();
    case CompressMode::kTopK:
      DMIS_CHECK(options.topk_ratio > 0.0 && options.topk_ratio <= 1.0,
                 "topk_ratio must be in (0, 1], got "
                     << options.topk_ratio);
      return std::make_unique<TopKCompressor>(options.topk_ratio, world);
  }
  DMIS_CHECK(false, "unreachable");
  return nullptr;
}

// ---------------------------------------------------------------------
// Metrics.

namespace {

struct CompressMetrics {
  obs::Counter& bytes_in;
  obs::Counter& bytes_out;
  obs::Gauge& ratio;

  static CompressMetrics& get() {
    static CompressMetrics m = [] {
      auto& reg = obs::MetricsRegistry::instance();
      return CompressMetrics{reg.counter("comm.compress.bytes_in"),
                             reg.counter("comm.compress.bytes_out"),
                             reg.gauge("comm.compress.ratio")};
    }();
    return m;
  }
};

}  // namespace

void note_compression(size_t bytes_in, size_t bytes_out) {
  CompressMetrics& m = CompressMetrics::get();
  m.bytes_in.add(static_cast<int64_t>(bytes_in));
  m.bytes_out.add(static_cast<int64_t>(bytes_out));
  const auto out = static_cast<double>(m.bytes_out.value());
  if (out > 0.0) {
    m.ratio.set(static_cast<double>(m.bytes_in.value()) / out);
  }
}

}  // namespace dmis::comm
