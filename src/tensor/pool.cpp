#include "tensor/pool.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "tensor/gemm.h"

#if defined(__x86_64__) || defined(__i386__)
#define SNE_POOL_X86 1
#include <immintrin.h>
#else
#define SNE_POOL_X86 0
#endif

namespace sne {

namespace {

#if SNE_POOL_X86

// One fold step of the scalar update rule, per lane:
//   take v when (v > best, ordered) or (best is NaN and v is not).
// max_ps(v, best) returns its second operand when either is NaN or the
// two are equal, so it is `v > best ? v : best`, ties and ±0 included
// (max_ps(best, v) would take v on a tie and flip ±0); the blend then
// takes v where best is NaN and v is ordered, where the scalar walk
// replaces a NaN seed with the first ordered value.
__attribute__((target("avx2"))) inline __m256 pool_fold_avx2(__m256 best,
                                                             __m256 v) {
  const __m256 nan_best = _mm256_cmp_ps(best, best, _CMP_UNORD_Q);
  const __m256 ord_v = _mm256_cmp_ps(v, v, _CMP_ORD_Q);
  return _mm256_blendv_ps(_mm256_max_ps(v, best), v,
                          _mm256_and_ps(nan_best, ord_v));
}

// 2x2 stride-2 pool of one plane with ow ≥ 8, eight output columns per
// iteration. The two shuffles split 16 consecutive inputs into even/odd
// columns (lane-scrambled, but identically for all four operands, so each
// lane still folds one window in the scalar's encounter order: top-left,
// top-right, bottom-left, bottom-right); one 64-bit permute restores output
// order. The ow % 8 tail columns are the last vector of the row again,
// moved back to end at ow: its overlap rewrites the same values.
__attribute__((target("avx2"))) void maxpool_2x2_avx2(const float* plane,
                                                      std::int64_t w,
                                                      std::int64_t oh,
                                                      std::int64_t ow,
                                                      float* dst) {
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    const float* r0 = plane + 2 * oy * w;
    const float* r1 = r0 + w;
    float* out = dst + oy * ow;
    for (std::int64_t ox = 0; ox < ow; ox += 8) {
      ox = std::min(ox, ow - 8);
      const __m256 a0 = _mm256_loadu_ps(r0 + 2 * ox);
      const __m256 a1 = _mm256_loadu_ps(r0 + 2 * ox + 8);
      const __m256 b0 = _mm256_loadu_ps(r1 + 2 * ox);
      const __m256 b1 = _mm256_loadu_ps(r1 + 2 * ox + 8);
      const __m256 e0 = _mm256_shuffle_ps(a0, a1, _MM_SHUFFLE(2, 0, 2, 0));
      const __m256 o0 = _mm256_shuffle_ps(a0, a1, _MM_SHUFFLE(3, 1, 3, 1));
      const __m256 e1 = _mm256_shuffle_ps(b0, b1, _MM_SHUFFLE(2, 0, 2, 0));
      const __m256 o1 = _mm256_shuffle_ps(b0, b1, _MM_SHUFFLE(3, 1, 3, 1));
      const __m256 m =
          pool_fold_avx2(pool_fold_avx2(pool_fold_avx2(e0, o0), e1), o1);
      const __m256 fixed = _mm256_castpd_ps(_mm256_permute4x64_pd(
          _mm256_castps_pd(m), _MM_SHUFFLE(3, 1, 2, 0)));
      _mm256_storeu_ps(out + ox, fixed);
    }
  }
}

// 2x2 stride-2 pool of `planes` consecutive h×w planes with ow < 8: the
// batch's outputs, flat across plane boundaries, eight per vector. Lane l
// of the vector at output o gathers the four window elements of output
// o + l in the scalar's encounter order. Those offsets repeat every
// lcm(8, oh·ow) outputs (8 / gcd(8, oh·ow) whole planes), so one table of
// that many offsets, relative to the period's first plane, serves the
// batch. The last partial vector gathers and stores under a lane mask.
// Offsets are int32: the caller keeps 8·h·w within range.
__attribute__((target("avx2"))) void maxpool_2x2_narrow_avx2(
    const float* x, std::int64_t planes, std::int64_t h, std::int64_t w,
    std::int64_t oh, std::int64_t ow, float* dst) {
  const std::int64_t per_plane = oh * ow;
  const std::int64_t total = planes * per_plane;
  const std::int64_t vectors = per_plane / std::gcd<std::int64_t>(per_plane, 8);
  const std::int64_t period = 8 * vectors / per_plane * h * w;
  thread_local std::vector<std::int32_t> table;  // grow-only
  table.resize(static_cast<std::size_t>(8 * vectors));
  for (std::int64_t q = 0; q < 8 * vectors; ++q) {
    const std::int64_t s = q % per_plane;
    table[static_cast<std::size_t>(q)] = static_cast<std::int32_t>(
        q / per_plane * h * w + 2 * (s / ow) * w + 2 * (s % ow));
  }
  std::int64_t base = 0;
  std::int64_t v = 0;
  for (std::int64_t o = 0; o < total; o += 8) {
    const __m256i idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(table.data() + 8 * v));
    const float* tl = x + base;
    __m256 m;
    if (total - o >= 8) {
      m = pool_fold_avx2(
          pool_fold_avx2(pool_fold_avx2(_mm256_i32gather_ps(tl, idx, 4),
                                        _mm256_i32gather_ps(tl + 1, idx, 4)),
                         _mm256_i32gather_ps(tl + w, idx, 4)),
          _mm256_i32gather_ps(tl + w + 1, idx, 4));
      _mm256_storeu_ps(dst + o, m);
    } else {
      const __m256i live = _mm256_cmpgt_epi32(
          _mm256_set1_epi32(static_cast<int>(total - o)),
          _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
      const __m256 mask = _mm256_castsi256_ps(live);
      const __m256 zero = _mm256_setzero_ps();
      m = pool_fold_avx2(
          pool_fold_avx2(
              pool_fold_avx2(
                  _mm256_mask_i32gather_ps(zero, tl, idx, mask, 4),
                  _mm256_mask_i32gather_ps(zero, tl + 1, idx, mask, 4)),
              _mm256_mask_i32gather_ps(zero, tl + w, idx, mask, 4)),
          _mm256_mask_i32gather_ps(zero, tl + w + 1, idx, mask, 4));
      _mm256_maskstore_ps(dst + o, live, m);
    }
    if (++v == vectors) {
      v = 0;
      base += period;
    }
  }
}

#endif  // SNE_POOL_X86

}  // namespace

void maxpool_2x2(const float* x, std::int64_t planes, std::int64_t h,
                 std::int64_t w, float* out) {
  const std::int64_t oh = h / 2;
  const std::int64_t ow = w / 2;
#if SNE_POOL_X86
  if (gemm_tier() == GemmTier::Avx2Fma) {
    if (ow >= 8) {
      for (std::int64_t p = 0; p < planes; ++p) {
        maxpool_2x2_avx2(x + p * h * w, w, oh, ow, out + p * oh * ow);
      }
      return;
    }
    if (8 * h * w <= INT32_MAX) {
      maxpool_2x2_narrow_avx2(x, planes, h, w, oh, ow, out);
      return;
    }
  }
#endif
  for (std::int64_t p = 0; p < planes; ++p) {
    const float* plane = x + p * h * w;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      const float* r0 = plane + 2 * oy * w;
      const float* r1 = r0 + w;
      for (std::int64_t ox = 0; ox < ow; ++ox, ++out) {
        float best = r0[2 * ox];
        for (const float v : {r0[2 * ox + 1], r1[2 * ox], r1[2 * ox + 1]}) {
          if (v > best || (std::isnan(best) && !std::isnan(v))) best = v;
        }
        *out = best;
      }
    }
  }
}

}  // namespace sne
