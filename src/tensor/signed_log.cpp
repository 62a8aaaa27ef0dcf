#include "tensor/signed_log.h"

#include <bit>
#include <cmath>

#include "tensor/gemm.h"

#if defined(__x86_64__) || defined(__i386__)
#define SNE_SIGNED_LOG_X86 1
#include <immintrin.h>
#else
#define SNE_SIGNED_LOG_X86 0
#endif

namespace sne {

namespace {

// log10(a) for a = 2^k·m, m in [1, 2), as fdlibm's log10f computes it:
// k·log10(2) split into a high and a low part, plus logf(m)/ln(10), each
// product and sum rounded to float. logf(m) is ARM optimized-routines'
// logf, evaluated in double: m = 2^kk·z with z in [kOff, 2·kOff] and
// log(m) = log1p(z/c − 1) + log(c) + kk·ln2, where c is the centre of
// z's subinterval (1 of 16) and log1p is a degree-3 polynomial. The
// tables and coefficients are optimized-routines' __logf_data (MIT OR
// Apache-2.0 WITH LLVM-exception); the float constants are fdlibm's.
constexpr int kTableBits = 4;
constexpr std::uint32_t kOff = 0x3f330000;
alignas(64) constexpr double kInvC[16] = {
    0x1.661ec79f8f3bep+0, 0x1.571ed4aaf883dp+0, 0x1.49539f0f010b0p+0,
    0x1.3c995b0b80385p+0, 0x1.30d190c8864a5p+0, 0x1.25e227b0b8ea0p+0,
    0x1.1bb4a4a1a343fp+0, 0x1.12358f08ae5bap+0, 0x1.0953f419900a7p+0,
    0x1p+0,               0x1.e608cfd9a47acp-1, 0x1.ca4b31f026aa0p-1,
    0x1.b2036576afce6p-1, 0x1.9c2d163a1aa2dp-1, 0x1.886e6037841edp-1,
    0x1.767dcf5534862p-1,
};
alignas(64) constexpr double kLogC[16] = {
    -0x1.57bf7808caadep-2, -0x1.2bef0a7c06ddbp-2, -0x1.01eae7f513a67p-2,
    -0x1.b31d8a68224e9p-3, -0x1.6574f0ac07758p-3, -0x1.1aa2bc79c8100p-3,
    -0x1.a4e76ce8c0e5ep-4, -0x1.1973c5a611cccp-4, -0x1.252f438e10c1ep-5,
    0x0p+0,                0x1.aa5aa5df25984p-5,  0x1.c5e53aa362eb4p-4,
    0x1.526e57720db08p-3,  0x1.bc2860d224770p-3,  0x1.1058bc8a07ee1p-2,
    0x1.4043057b6ee09p-2,
};
constexpr double kLn2 = 0x1.62e42fefa39efp-1;
constexpr double kA0 = -0x1.00ea348b88334p-2;
constexpr double kA1 = 0x1.5575b0be00b6ap-2;
constexpr double kA2 = -0x1.ffffef20a4123p-2;
constexpr float kIvLn10 = std::bit_cast<float>(0x3ede5bd9U);
constexpr float kLog10Of2Hi = std::bit_cast<float>(0x3e9a2080U);
constexpr float kLog10Of2Lo = std::bit_cast<float>(0x355427dbU);
constexpr std::uint32_t kInfBits = 0x7f800000;
constexpr std::uint32_t kSignBit = 0x80000000;

// log10f(a) for a in [1, +Inf] or a positive NaN, the only arguments the
// signed log makes, so log10f's branches for zero, negative and subnormal
// arguments never run.
float log10_from_one(float a) {
  const auto ia = std::bit_cast<std::uint32_t>(a);
  if (ia >= kInfBits) return a + a;
  const auto yk =
      static_cast<float>(static_cast<std::int32_t>(ia >> 23) - 127);
  const std::uint32_t im = (ia & 0x7fffff) | 0x3f800000;
  const std::uint32_t tmp = im - kOff;
  const std::uint32_t i = (tmp >> (23 - kTableBits)) % 16;
  const std::int32_t kk = static_cast<std::int32_t>(tmp) >> 23;
  const double z = std::bit_cast<float>(im - (tmp & 0xff800000));
  const double r = std::fma(z, kInvC[i], -1.0);
  const double y0 = std::fma(static_cast<double>(kk), kLn2, kLogC[i]);
  const double r2 = r * r;
  double y = std::fma(kA1, r, kA2);
  y = std::fma(kA0, r2, y);
  y = std::fma(y, r2, y0 + r);
  const auto lg = static_cast<float>(y);
  return (yk * kLog10Of2Lo + kIvLn10 * lg) + yk * kLog10Of2Hi;
}

// The bit reference. The sign is flipped, not computed as 0 − mag: a
// negative subnormal d has |d| + 1 = 1 and must give −0.
float signed_log_scalar(float d) {
  const float mag = log10_from_one(std::fabs(d) + 1.0f);
  if (d < 0.0f) {
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(mag) ^ kSignBit);
  }
  return mag;
}

#if SNE_SIGNED_LOG_X86

// GCC 12's AVX-512 intrinsics pass _mm512_undefined_*() as the merge
// operand of their unmasked forms, which -Wmaybe-uninitialized reports
// once inlined; under a full mask that operand is never read.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// The 16-entry tables as two zmm halves, indexed by permutex2var.
struct LogTables {
  __m512d invc_lo, invc_hi, logc_lo, logc_hi;
};

// The double steps of log10_from_one for eight lanes: z (as float) and
// the lanes' table indices and kk. Returns logf(m) rounded to float.
__attribute__((target("avx512f"))) inline __m256 logf8_avx512(
    const LogTables& t, __m256 z, __m256i index, __m256i kk) {
  const __m512i idx = _mm512_cvtepi32_epi64(index);
  const __m512d invc = _mm512_permutex2var_pd(t.invc_lo, idx, t.invc_hi);
  const __m512d logc = _mm512_permutex2var_pd(t.logc_lo, idx, t.logc_hi);
  const __m512d r =
      _mm512_fmadd_pd(_mm512_cvtps_pd(z), invc, _mm512_set1_pd(-1.0));
  const __m512d y0 =
      _mm512_fmadd_pd(_mm512_cvtepi32_pd(kk), _mm512_set1_pd(kLn2), logc);
  const __m512d r2 = _mm512_mul_pd(r, r);
  __m512d y =
      _mm512_fmadd_pd(_mm512_set1_pd(kA1), r, _mm512_set1_pd(kA2));
  y = _mm512_fmadd_pd(_mm512_set1_pd(kA0), r2, y);
  y = _mm512_fmadd_pd(y, r2, _mm512_add_pd(y0, r));
  return _mm512_cvtpd_ps(y);
}

// signed_log_scalar on 16 lanes: the float steps on zmm, the double steps
// on two groups of eight. AVX-512F only (no DQ: 256-bit halves move as
// f64x4), so cpu_has_avx512f() covers it. The last partial vector loads
// and stores under a mask and touches nothing past the span.
__attribute__((target("avx512f"))) void signed_log_avx512(const float* in,
                                                          float* out,
                                                          std::int64_t n) {
  const LogTables t{_mm512_load_pd(kInvC), _mm512_load_pd(kInvC + 8),
                    _mm512_load_pd(kLogC), _mm512_load_pd(kLogC + 8)};
  const __m512i inf_bits = _mm512_set1_epi32(kInfBits);
  const __m512i sign_bit = _mm512_set1_epi32(static_cast<int>(kSignBit));
  for (std::int64_t j = 0; j < n; j += 16) {
    const __mmask16 live =
        n - j >= 16 ? 0xffff
                    : static_cast<__mmask16>((1U << (n - j)) - 1);
    const __m512 d = _mm512_maskz_loadu_ps(live, in + j);
    const __m512 a = _mm512_add_ps(_mm512_abs_ps(d), _mm512_set1_ps(1.0f));
    const __m512i ia = _mm512_castps_si512(a);
    const __m512 yk = _mm512_cvtepi32_ps(
        _mm512_sub_epi32(_mm512_srli_epi32(ia, 23), _mm512_set1_epi32(127)));
    const __m512i im =
        _mm512_or_si512(_mm512_and_si512(ia, _mm512_set1_epi32(0x7fffff)),
                        _mm512_set1_epi32(0x3f800000));
    const __m512i tmp = _mm512_sub_epi32(im, _mm512_set1_epi32(kOff));
    const __m512i index = _mm512_and_si512(
        _mm512_srli_epi32(tmp, 23 - kTableBits), _mm512_set1_epi32(15));
    const __m512i kk = _mm512_srai_epi32(tmp, 23);
    const __m512 z = _mm512_castsi512_ps(_mm512_sub_epi32(
        im, _mm512_and_si512(tmp, _mm512_set1_epi32(
                                      static_cast<int>(0xff800000U)))));

    const __m256 lg_lo = logf8_avx512(t, _mm512_castps512_ps256(z),
                                      _mm512_castsi512_si256(index),
                                      _mm512_castsi512_si256(kk));
    const __m256 lg_hi = logf8_avx512(
        t, _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(z), 1)),
        _mm512_extracti64x4_epi64(index, 1), _mm512_extracti64x4_epi64(kk, 1));
    const __m512 lg = _mm512_castpd_ps(_mm512_insertf64x4(
        _mm512_castpd256_pd512(_mm256_castps_pd(lg_lo)),
        _mm256_castps_pd(lg_hi), 1));

    __m512 mag = _mm512_add_ps(
        _mm512_add_ps(_mm512_mul_ps(yk, _mm512_set1_ps(kLog10Of2Lo)),
                      _mm512_mul_ps(_mm512_set1_ps(kIvLn10), lg)),
        _mm512_mul_ps(yk, _mm512_set1_ps(kLog10Of2Hi)));
    mag = _mm512_mask_add_ps(mag, _mm512_cmpge_epu32_mask(ia, inf_bits), a,
                             a);
    const __mmask16 negative =
        _mm512_cmp_ps_mask(d, _mm512_setzero_ps(), _CMP_LT_OQ);
    const __m512i bits = _mm512_castps_si512(mag);
    _mm512_mask_storeu_ps(
        out + j, live,
        _mm512_castsi512_ps(
            _mm512_mask_xor_epi32(bits, negative, bits, sign_bit)));
  }
}

#pragma GCC diagnostic pop

#endif  // SNE_SIGNED_LOG_X86

}  // namespace

void signed_log_span(const float* in, float* out, std::int64_t n) {
#if SNE_SIGNED_LOG_X86
  static const bool has_avx512f = cpu_has_avx512f();
  if (has_avx512f && gemm_tier() == GemmTier::Avx2Fma) {
    signed_log_avx512(in, out, n);
    return;
  }
#endif
  for (std::int64_t i = 0; i < n; ++i) out[i] = signed_log_scalar(in[i]);
}

}  // namespace sne
