#include "tensor/qtensor.h"

#include <cmath>
#include <stdexcept>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define SNE_QUANT_X86 1
#else
#define SNE_QUANT_X86 0
#endif

namespace sne {

float max_abs(const float* x, std::int64_t n) noexcept {
  float m = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) {
    const float a = std::fabs(x[i]);
    if (std::isnan(a)) return a;  // propagate: a NaN range must not look empty
    if (a > m) m = a;
  }
  return m;
}

namespace {

// The element contract both implementations below honour exactly:
// multiply by inv_scale, saturate in float space (the conversion of an
// out-of-range float is UB-adjacent territory we never enter), round to
// nearest even, NaN → 0.
inline std::int8_t quantize_one(float x, float inv_scale) noexcept {
  const float v = x * inv_scale;
  const float clamped = v > 127.0f ? 127.0f : (v < -127.0f ? -127.0f : v);
  // NaN fails both compares above and reaches lrintf; map it to 0
  // explicitly rather than relying on the platform's NaN conversion.
  return std::isnan(clamped)
             ? std::int8_t{0}
             : static_cast<std::int8_t>(std::lrintf(clamped));
}

#if SNE_QUANT_X86

// 32 elements per iteration: multiply, clamp via min/max (minps maps a
// NaN lane to 127, but the ordered-compare mask zeroes it afterwards —
// same result as the scalar NaN → 0 rule), round with cvtps2dq (nearest
// even, exactly lrintf under the default rounding mode), narrow through
// the saturating packs (values are already within ±127) and restore
// order with one cross-lane permute. Bitwise identical to quantize_one
// on every input.
__attribute__((target("avx2"))) void quantize_avx2(const float* x,
                                                   std::int64_t n,
                                                   float inv_scale,
                                                   std::int8_t* out) noexcept {
  const __m256 scale = _mm256_set1_ps(inv_scale);
  const __m256 hi = _mm256_set1_ps(127.0f);
  const __m256 lo = _mm256_set1_ps(-127.0f);
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i q[4];
    for (int h = 0; h < 4; ++h) {
      const __m256 v = _mm256_mul_ps(_mm256_loadu_ps(x + i + 8 * h), scale);
      const __m256 c = _mm256_max_ps(_mm256_min_ps(v, hi), lo);
      const __m256 ord = _mm256_cmp_ps(v, v, _CMP_ORD_Q);
      q[h] = _mm256_and_si256(_mm256_cvtps_epi32(c),
                              _mm256_castps_si256(ord));
    }
    const __m256i p01 = _mm256_packs_epi32(q[0], q[1]);
    const __m256i p23 = _mm256_packs_epi32(q[2], q[3]);
    const __m256i packed = _mm256_packs_epi16(p01, p23);
    const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_permutevar8x32_epi32(packed, order));
  }
  for (; i < n; ++i) out[i] = quantize_one(x[i], inv_scale);
}

#endif  // SNE_QUANT_X86

}  // namespace

void quantize_into(const float* x, std::int64_t n, float inv_scale,
                   std::int8_t* out) noexcept {
#if SNE_QUANT_X86
  if (__builtin_cpu_supports("avx2")) {
    quantize_avx2(x, n, inv_scale, out);
    return;
  }
#endif
  for (std::int64_t i = 0; i < n; ++i) out[i] = quantize_one(x[i], inv_scale);
}

QTensor quantize_per_channel(const Tensor& t) {
  if (t.rank() == 0) {
    throw std::invalid_argument("quantize_per_channel: rank-0 tensor");
  }
  const std::int64_t channels = t.extent(0);
  const std::int64_t per_channel = t.size() / channels;

  QTensor q;
  q.shape = t.shape();
  q.data.resize(static_cast<std::size_t>(t.size()));
  q.scales = Tensor({channels});
  for (std::int64_t c = 0; c < channels; ++c) {
    const float* src = t.data() + c * per_channel;
    const float m = max_abs(src, per_channel);
    if (!std::isfinite(m)) {
      throw std::invalid_argument(
          "quantize_per_channel: non-finite values in channel " +
          std::to_string(c));
    }
    // An all-zero channel quantizes to zeros under any scale; 1.0 keeps
    // the dequantization map well-defined.
    const float scale = m > 0.0f ? m / 127.0f : 1.0f;
    q.scales[c] = scale;
    quantize_into(src, per_channel, m > 0.0f ? 127.0f / m : 0.0f,
                  q.data.data() + c * per_channel);
  }
  return q;
}

}  // namespace sne
