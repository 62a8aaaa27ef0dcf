#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/pool.h"
#include "tensor/thread_pool.h"

#if defined(__x86_64__) || defined(__i386__)
#define SNE_GEMM_X86 1
#include <immintrin.h>
#else
#define SNE_GEMM_X86 0
#endif

namespace sne {

namespace {

// Block sizes tuned for a ~32 KiB L1 / 256 KiB L2 single-core target.
constexpr std::int64_t kBlockM = 64;
constexpr std::int64_t kBlockN = 256;
constexpr std::int64_t kBlockK = 256;

// Scalar inner kernel: C[mb×nb] += A[mb×k_len] · B[k_len×nb], with B rows
// contiguous so the compiler can vectorize the n loop. This kernel is the
// determinism bit-reference: its accumulation order must never change.
void gemm_block(std::int64_t mb, std::int64_t nb, std::int64_t kb,
                const float* a, std::int64_t lda, const float* b,
                std::int64_t ldb, float* c, std::int64_t ldc) {
  for (std::int64_t i = 0; i < mb; ++i) {
    float* ci = c + i * ldc;
    std::int64_t p = 0;
    // Unroll the reduction by 4: each step streams 4 rows of B through the
    // vectorized n loop with a single pass over C.
    for (; p + 4 <= kb; p += 4) {
      const float a0 = a[i * lda + p + 0];
      const float a1 = a[i * lda + p + 1];
      const float a2 = a[i * lda + p + 2];
      const float a3 = a[i * lda + p + 3];
      const float* b0 = b + (p + 0) * ldb;
      const float* b1 = b + (p + 1) * ldb;
      const float* b2 = b + (p + 2) * ldb;
      const float* b3 = b + (p + 3) * ldb;
      for (std::int64_t j = 0; j < nb; ++j) {
        ci[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
      }
    }
    for (; p < kb; ++p) {
      const float ap = a[i * lda + p];
      const float* bp = b + p * ldb;
      for (std::int64_t j = 0; j < nb; ++j) ci[j] += ap * bp[j];
    }
  }
}

#if SNE_GEMM_X86

// AVX2+FMA inner kernel: 6×16 register tiles of C held in twelve ymm
// accumulators across the whole k reduction (12 accumulators + 2 B
// vectors + 1 broadcast = 15 of the 16 ymm registers), so C is read and
// written once per block instead of once per four k steps. Ragged
// rows/columns fall back to narrower tiles and finally scalar loops;
// every path has a fixed accumulation order, so the tier stays bitwise
// deterministic (it just differs from the scalar tier by reassociation of
// the k sum). Never inlined: gemm_block_avx512 hands it its tail columns,
// which must run this very code, not a copy compiled for the wider target.
__attribute__((target("avx2,fma"), noinline)) void gemm_block_avx2(
    std::int64_t mb, std::int64_t nb, std::int64_t kb, const float* a,
    std::int64_t lda, const float* b, std::int64_t ldb, float* c,
    std::int64_t ldc) {
  std::int64_t i = 0;
  for (; i + 6 <= mb; i += 6) {
    const float* a0 = a + (i + 0) * lda;
    const float* a1 = a + (i + 1) * lda;
    const float* a2 = a + (i + 2) * lda;
    const float* a3 = a + (i + 3) * lda;
    const float* a4 = a + (i + 4) * lda;
    const float* a5 = a + (i + 5) * lda;
    float* c0 = c + (i + 0) * ldc;
    float* c1 = c + (i + 1) * ldc;
    float* c2 = c + (i + 2) * ldc;
    float* c3 = c + (i + 3) * ldc;
    float* c4 = c + (i + 4) * ldc;
    float* c5 = c + (i + 5) * ldc;
    std::int64_t j = 0;
    for (; j + 16 <= nb; j += 16) {
      __m256 acc0l = _mm256_loadu_ps(c0 + j);
      __m256 acc0h = _mm256_loadu_ps(c0 + j + 8);
      __m256 acc1l = _mm256_loadu_ps(c1 + j);
      __m256 acc1h = _mm256_loadu_ps(c1 + j + 8);
      __m256 acc2l = _mm256_loadu_ps(c2 + j);
      __m256 acc2h = _mm256_loadu_ps(c2 + j + 8);
      __m256 acc3l = _mm256_loadu_ps(c3 + j);
      __m256 acc3h = _mm256_loadu_ps(c3 + j + 8);
      __m256 acc4l = _mm256_loadu_ps(c4 + j);
      __m256 acc4h = _mm256_loadu_ps(c4 + j + 8);
      __m256 acc5l = _mm256_loadu_ps(c5 + j);
      __m256 acc5h = _mm256_loadu_ps(c5 + j + 8);
      for (std::int64_t p = 0; p < kb; ++p) {
        const float* bp = b + p * ldb + j;
        const __m256 bl = _mm256_loadu_ps(bp);
        const __m256 bh = _mm256_loadu_ps(bp + 8);
        __m256 av = _mm256_set1_ps(a0[p]);
        acc0l = _mm256_fmadd_ps(av, bl, acc0l);
        acc0h = _mm256_fmadd_ps(av, bh, acc0h);
        av = _mm256_set1_ps(a1[p]);
        acc1l = _mm256_fmadd_ps(av, bl, acc1l);
        acc1h = _mm256_fmadd_ps(av, bh, acc1h);
        av = _mm256_set1_ps(a2[p]);
        acc2l = _mm256_fmadd_ps(av, bl, acc2l);
        acc2h = _mm256_fmadd_ps(av, bh, acc2h);
        av = _mm256_set1_ps(a3[p]);
        acc3l = _mm256_fmadd_ps(av, bl, acc3l);
        acc3h = _mm256_fmadd_ps(av, bh, acc3h);
        av = _mm256_set1_ps(a4[p]);
        acc4l = _mm256_fmadd_ps(av, bl, acc4l);
        acc4h = _mm256_fmadd_ps(av, bh, acc4h);
        av = _mm256_set1_ps(a5[p]);
        acc5l = _mm256_fmadd_ps(av, bl, acc5l);
        acc5h = _mm256_fmadd_ps(av, bh, acc5h);
      }
      _mm256_storeu_ps(c0 + j, acc0l);
      _mm256_storeu_ps(c0 + j + 8, acc0h);
      _mm256_storeu_ps(c1 + j, acc1l);
      _mm256_storeu_ps(c1 + j + 8, acc1h);
      _mm256_storeu_ps(c2 + j, acc2l);
      _mm256_storeu_ps(c2 + j + 8, acc2h);
      _mm256_storeu_ps(c3 + j, acc3l);
      _mm256_storeu_ps(c3 + j + 8, acc3h);
      _mm256_storeu_ps(c4 + j, acc4l);
      _mm256_storeu_ps(c4 + j + 8, acc4h);
      _mm256_storeu_ps(c5 + j, acc5l);
      _mm256_storeu_ps(c5 + j + 8, acc5h);
    }
    for (; j + 8 <= nb; j += 8) {
      __m256 acc0 = _mm256_loadu_ps(c0 + j);
      __m256 acc1 = _mm256_loadu_ps(c1 + j);
      __m256 acc2 = _mm256_loadu_ps(c2 + j);
      __m256 acc3 = _mm256_loadu_ps(c3 + j);
      __m256 acc4 = _mm256_loadu_ps(c4 + j);
      __m256 acc5 = _mm256_loadu_ps(c5 + j);
      for (std::int64_t p = 0; p < kb; ++p) {
        const __m256 bv = _mm256_loadu_ps(b + p * ldb + j);
        acc0 = _mm256_fmadd_ps(_mm256_set1_ps(a0[p]), bv, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_set1_ps(a1[p]), bv, acc1);
        acc2 = _mm256_fmadd_ps(_mm256_set1_ps(a2[p]), bv, acc2);
        acc3 = _mm256_fmadd_ps(_mm256_set1_ps(a3[p]), bv, acc3);
        acc4 = _mm256_fmadd_ps(_mm256_set1_ps(a4[p]), bv, acc4);
        acc5 = _mm256_fmadd_ps(_mm256_set1_ps(a5[p]), bv, acc5);
      }
      _mm256_storeu_ps(c0 + j, acc0);
      _mm256_storeu_ps(c1 + j, acc1);
      _mm256_storeu_ps(c2 + j, acc2);
      _mm256_storeu_ps(c3 + j, acc3);
      _mm256_storeu_ps(c4 + j, acc4);
      _mm256_storeu_ps(c5 + j, acc5);
    }
    for (; j < nb; ++j) {
      float s0 = c0[j], s1 = c1[j], s2 = c2[j];
      float s3 = c3[j], s4 = c4[j], s5 = c5[j];
      for (std::int64_t p = 0; p < kb; ++p) {
        const float bv = b[p * ldb + j];
        s0 += a0[p] * bv;
        s1 += a1[p] * bv;
        s2 += a2[p] * bv;
        s3 += a3[p] * bv;
        s4 += a4[p] * bv;
        s5 += a5[p] * bv;
      }
      c0[j] = s0;
      c1[j] = s1;
      c2[j] = s2;
      c3[j] = s3;
      c4[j] = s4;
      c5[j] = s5;
    }
  }
  for (; i + 4 <= mb; i += 4) {
    const float* a0 = a + (i + 0) * lda;
    const float* a1 = a + (i + 1) * lda;
    const float* a2 = a + (i + 2) * lda;
    const float* a3 = a + (i + 3) * lda;
    float* c0 = c + (i + 0) * ldc;
    float* c1 = c + (i + 1) * ldc;
    float* c2 = c + (i + 2) * ldc;
    float* c3 = c + (i + 3) * ldc;
    std::int64_t j = 0;
    for (; j + 16 <= nb; j += 16) {
      __m256 acc0l = _mm256_loadu_ps(c0 + j);
      __m256 acc0h = _mm256_loadu_ps(c0 + j + 8);
      __m256 acc1l = _mm256_loadu_ps(c1 + j);
      __m256 acc1h = _mm256_loadu_ps(c1 + j + 8);
      __m256 acc2l = _mm256_loadu_ps(c2 + j);
      __m256 acc2h = _mm256_loadu_ps(c2 + j + 8);
      __m256 acc3l = _mm256_loadu_ps(c3 + j);
      __m256 acc3h = _mm256_loadu_ps(c3 + j + 8);
      for (std::int64_t p = 0; p < kb; ++p) {
        const float* bp = b + p * ldb + j;
        const __m256 bl = _mm256_loadu_ps(bp);
        const __m256 bh = _mm256_loadu_ps(bp + 8);
        __m256 av = _mm256_set1_ps(a0[p]);
        acc0l = _mm256_fmadd_ps(av, bl, acc0l);
        acc0h = _mm256_fmadd_ps(av, bh, acc0h);
        av = _mm256_set1_ps(a1[p]);
        acc1l = _mm256_fmadd_ps(av, bl, acc1l);
        acc1h = _mm256_fmadd_ps(av, bh, acc1h);
        av = _mm256_set1_ps(a2[p]);
        acc2l = _mm256_fmadd_ps(av, bl, acc2l);
        acc2h = _mm256_fmadd_ps(av, bh, acc2h);
        av = _mm256_set1_ps(a3[p]);
        acc3l = _mm256_fmadd_ps(av, bl, acc3l);
        acc3h = _mm256_fmadd_ps(av, bh, acc3h);
      }
      _mm256_storeu_ps(c0 + j, acc0l);
      _mm256_storeu_ps(c0 + j + 8, acc0h);
      _mm256_storeu_ps(c1 + j, acc1l);
      _mm256_storeu_ps(c1 + j + 8, acc1h);
      _mm256_storeu_ps(c2 + j, acc2l);
      _mm256_storeu_ps(c2 + j + 8, acc2h);
      _mm256_storeu_ps(c3 + j, acc3l);
      _mm256_storeu_ps(c3 + j + 8, acc3h);
    }
    for (; j + 8 <= nb; j += 8) {
      __m256 acc0 = _mm256_loadu_ps(c0 + j);
      __m256 acc1 = _mm256_loadu_ps(c1 + j);
      __m256 acc2 = _mm256_loadu_ps(c2 + j);
      __m256 acc3 = _mm256_loadu_ps(c3 + j);
      for (std::int64_t p = 0; p < kb; ++p) {
        const __m256 bv = _mm256_loadu_ps(b + p * ldb + j);
        acc0 = _mm256_fmadd_ps(_mm256_set1_ps(a0[p]), bv, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_set1_ps(a1[p]), bv, acc1);
        acc2 = _mm256_fmadd_ps(_mm256_set1_ps(a2[p]), bv, acc2);
        acc3 = _mm256_fmadd_ps(_mm256_set1_ps(a3[p]), bv, acc3);
      }
      _mm256_storeu_ps(c0 + j, acc0);
      _mm256_storeu_ps(c1 + j, acc1);
      _mm256_storeu_ps(c2 + j, acc2);
      _mm256_storeu_ps(c3 + j, acc3);
    }
    for (; j < nb; ++j) {
      float s0 = c0[j], s1 = c1[j], s2 = c2[j], s3 = c3[j];
      for (std::int64_t p = 0; p < kb; ++p) {
        const float bv = b[p * ldb + j];
        s0 += a0[p] * bv;
        s1 += a1[p] * bv;
        s2 += a2[p] * bv;
        s3 += a3[p] * bv;
      }
      c0[j] = s0;
      c1[j] = s1;
      c2[j] = s2;
      c3[j] = s3;
    }
  }
  for (; i < mb; ++i) {
    const float* ai = a + i * lda;
    float* ci = c + i * ldc;
    std::int64_t j = 0;
    for (; j + 16 <= nb; j += 16) {
      __m256 accl = _mm256_loadu_ps(ci + j);
      __m256 acch = _mm256_loadu_ps(ci + j + 8);
      for (std::int64_t p = 0; p < kb; ++p) {
        const __m256 av = _mm256_set1_ps(ai[p]);
        accl = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + p * ldb + j), accl);
        acch = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + p * ldb + j + 8), acch);
      }
      _mm256_storeu_ps(ci + j, accl);
      _mm256_storeu_ps(ci + j + 8, acch);
    }
    for (; j + 8 <= nb; j += 8) {
      __m256 acc = _mm256_loadu_ps(ci + j);
      for (std::int64_t p = 0; p < kb; ++p) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(ai[p]),
                              _mm256_loadu_ps(b + p * ldb + j), acc);
      }
      _mm256_storeu_ps(ci + j, acc);
    }
    for (; j < nb; ++j) {
      float s = ci[j];
      for (std::int64_t p = 0; p < kb; ++p) s += ai[p] * b[p * ldb + j];
      ci[j] = s;
    }
  }
}

// The Avx2Fma tier's kernel on AVX-512F hosts. The tier names a bit
// contract, not a register width: every C element left of the last 16-wide
// column edge is one FMA chain over k in ascending order, starting from the
// loaded C value — exactly what the 256-bit tiles compute, so wider
// registers change no bit. Rows go in near-equal groups of at most 12
// (m = 10, 20, 30 → 10, 10+10, 10+10+10, where the 6-row tiles leave a
// 4-row pass at m = 10 and two 1-row passes at m = 20) against 32- and
// 16-column tiles: 2·12 accumulators + 2 B vectors + 1 broadcast fit the
// 32 zmm registers. The last nb mod 16 columns go through gemm_block_avx2
// unchanged, whose scalar tail loops are not FMA chains.
template <int R, int V>
__attribute__((target("avx512f"))) inline void gemm_tile_avx512(
    std::int64_t kb, const float* a, std::int64_t lda, const float* b,
    std::int64_t ldb, float* c, std::int64_t ldc) {
  // The pragmas unroll before scalar replacement, so acc lives in
  // registers rather than in a stack array copied around the k loop.
  __m512 acc[R][V];
#pragma GCC unroll 12
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      acc[r][v] = _mm512_loadu_ps(c + r * ldc + 16 * v);
    }
  }
  for (std::int64_t p = 0; p < kb; ++p) {
    __m512 bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      bv[v] = _mm512_loadu_ps(b + p * ldb + 16 * v);
    }
#pragma GCC unroll 12
    for (int r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * lda + p]);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm512_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 12
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      _mm512_storeu_ps(c + r * ldc + 16 * v, acc[r][v]);
    }
  }
}

template <int V>
__attribute__((target("avx512f"))) void gemm_rows_avx512(
    std::int64_t rows, std::int64_t kb, const float* a, std::int64_t lda,
    const float* b, std::int64_t ldb, float* c, std::int64_t ldc) {
  switch (rows) {
    case 1: gemm_tile_avx512<1, V>(kb, a, lda, b, ldb, c, ldc); break;
    case 2: gemm_tile_avx512<2, V>(kb, a, lda, b, ldb, c, ldc); break;
    case 3: gemm_tile_avx512<3, V>(kb, a, lda, b, ldb, c, ldc); break;
    case 4: gemm_tile_avx512<4, V>(kb, a, lda, b, ldb, c, ldc); break;
    case 5: gemm_tile_avx512<5, V>(kb, a, lda, b, ldb, c, ldc); break;
    case 6: gemm_tile_avx512<6, V>(kb, a, lda, b, ldb, c, ldc); break;
    case 7: gemm_tile_avx512<7, V>(kb, a, lda, b, ldb, c, ldc); break;
    case 8: gemm_tile_avx512<8, V>(kb, a, lda, b, ldb, c, ldc); break;
    case 9: gemm_tile_avx512<9, V>(kb, a, lda, b, ldb, c, ldc); break;
    case 10: gemm_tile_avx512<10, V>(kb, a, lda, b, ldb, c, ldc); break;
    case 11: gemm_tile_avx512<11, V>(kb, a, lda, b, ldb, c, ldc); break;
    default: gemm_tile_avx512<12, V>(kb, a, lda, b, ldb, c, ldc); break;
  }
}

constexpr std::int64_t kAvx512MaxRows = 12;

__attribute__((target("avx512f"))) void gemm_block_avx512(
    std::int64_t mb, std::int64_t nb, std::int64_t kb, const float* a,
    std::int64_t lda, const float* b, std::int64_t ldb, float* c,
    std::int64_t ldc) {
  const std::int64_t nv = nb / 16 * 16;
  const std::int64_t groups = (mb + kAvx512MaxRows - 1) / kAvx512MaxRows;
  // Column strips outermost: a 32-column strip of B (≤ 32 KiB at
  // kBlockK) stays in L1 while every row group streams over it.
  for (std::int64_t j = 0; j < nv; j += 32) {
    std::int64_t i = 0;
    for (std::int64_t g = 0; g < groups; ++g) {
      const std::int64_t rows = (mb - i) / (groups - g);
      if (j + 32 <= nv) {
        gemm_rows_avx512<2>(rows, kb, a + i * lda, lda, b + j, ldb,
                            c + i * ldc + j, ldc);
      } else {
        gemm_rows_avx512<1>(rows, kb, a + i * lda, lda, b + j, ldb,
                            c + i * ldc + j, ldc);
      }
      i += rows;
    }
  }
  if (nv < nb) {
    gemm_block_avx2(mb, nb - nv, kb, a, lda, b + nv, ldb, c + nv, ldc);
  }
}

// Direct stride-1, unpadded convolution on AVX-512F: im2col's column
// matrix is never built. Output pixel (oy, ox) reads tap p = (ci, ky, kx)
// at image offset koff[p] + oy·W + ox, so each lane's offset is fixed for
// the whole k loop and the B vector for tap p is the image at koff[p]
// plus those offsets.
//
// A strip is up to two 16-lane vectors of outputs. Wide planes
// (out_w ≥ 16) run strips of two output rows × 16 columns, each vector
// one masked contiguous load per tap (a row's last chunk masked), or one
// row when an odd out_h leaves it alone. Narrow planes run one vector per
// strip whose 16 lanes span several rows: each tap's lanes are gathered
// once per strip into a per-thread slab (k × 16), which every row group
// then reads with plain loads.
//
// Pooled strips fold each 2×2 window of the finished outputs in registers
// and store only the pooled values. The fold is maxpool_2x2's rule (see
// tensor/pool.h) lane by lane, in its order: top-left, top-right,
// bottom-left, bottom-right. A wide pooled strip is rows 2py and 2py + 1
// of 16 columns: the even lanes of each row are window top-lefts /
// bottom-lefts and the odd lanes the right corners, giving 8 pooled
// outputs. A narrow pooled strip orders its lanes by corner: lanes 0–3
// are the top-lefts of four windows, 4–7 their top-rights, 8–11 the
// bottom-lefts, 12–15 the bottom-rights.
enum class ConvStore {
  Plain,        ///< each vector's lanes to their output pixels
  PoolRows,     ///< wide: the two row vectors → 8 pooled outputs
  PoolCorners,  ///< narrow: the corner-ordered vector → 4 pooled outputs
};

struct ConvStrip {
  std::int64_t src[2] = {};   ///< image offset of lane 0 (wide strips)
  std::int64_t dst[2] = {};   ///< out offset of lane 0, or of the first
                              ///< pooled output (vector 0)
  std::uint16_t mask[2] = {};  ///< live lanes: loads and plain stores
  std::uint16_t pooled = 0;    ///< live pooled outputs (pooled stores)
  const float* slab = nullptr;  ///< narrow strips: tap p at slab + 16·p
};

// GCC 12's AVX-512 intrinsics pass _mm512_undefined_*() as the merge
// operand of their unmasked forms (max_ps, permutexvar_ps), which
// -Wuninitialized reports once inlined; under a full mask that operand is
// never read.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// One step of the pool rule, per lane: take v when v > best (max_ps(v,
// best) returns best on a NaN or a tie, so ±0 ties keep best), or when
// best is NaN and v is not. Without NaNs the step is max_ps(v, best)
// alone, so the folds below test their inputs once and skip the NaN
// fix-up when none is present.
__attribute__((target("avx512f"))) inline __m512 pool_fold_avx512(
    __m512 best, __m512 v, bool nans) {
  if (!nans) return _mm512_max_ps(v, best);
  const __mmask16 take = _mm512_mask_cmp_ps_mask(
      _mm512_cmp_ps_mask(best, best, _CMP_UNORD_Q), v, v, _CMP_ORD_Q);
  return _mm512_mask_mov_ps(_mm512_max_ps(v, best), take, v);
}

// The 8 pooled outputs (lanes 0–7) of rows `top` and `bottom`: each
// row's even lanes are window left corners, its odd lanes right ones.
__attribute__((target("avx512f"))) inline __m512 pool_rows_avx512(
    __m512 top, __m512 bottom) {
  const __m512i even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 0, 2, 4,
                                         6, 8, 10, 12, 14);
  const __m512i odd = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 1, 3, 5,
                                        7, 9, 11, 13, 15);
  const bool nans = _mm512_cmp_ps_mask(top, bottom, _CMP_UNORD_Q) != 0;
  __m512 best = _mm512_permutexvar_ps(even, top);
  best = pool_fold_avx512(best, _mm512_permutexvar_ps(odd, top), nans);
  best = pool_fold_avx512(best, _mm512_permutexvar_ps(even, bottom), nans);
  return pool_fold_avx512(best, _mm512_permutexvar_ps(odd, bottom), nans);
}

// The 4 pooled outputs (lanes 0–3) of a corner-ordered vector.
__attribute__((target("avx512f"))) inline __m512 pool_corners_avx512(
    __m512 v) {
  const bool nans = _mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q) != 0;
  __m512 best = v;
  best = pool_fold_avx512(best, _mm512_shuffle_f32x4(v, v, 0x55), nans);
  best = pool_fold_avx512(best, _mm512_shuffle_f32x4(v, v, 0xAA), nans);
  return pool_fold_avx512(best, _mm512_shuffle_f32x4(v, v, 0xFF), nans);
}

// R output channels × one strip, the whole k reduction in registers: each
// output is one FMA chain over k ascending from +0 (what sgemm_serial at
// beta 0 computes in its vector columns), then the bias add and the PReLU
// select of apply_epilogue, then the store (pooled or not). kSlab strips
// read their taps from the slab, the others from the image.
template <int R, int V, bool kSlab, ConvStore S>
__attribute__((target("avx512f"))) void conv_tile_avx512(
    std::int64_t k, const std::int64_t* koff, const float* image,
    const ConvStrip& s, const float* w, const float* bias,
    const float* prelu, float* out, std::int64_t ldo) {
  __m512 acc[R][V];
#pragma GCC unroll 12
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) acc[r][v] = _mm512_setzero_ps();
  }
  for (std::int64_t p = 0; p < k; ++p) {
    __m512 bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      if constexpr (kSlab) {
        bv[v] = _mm512_loadu_ps(s.slab + 16 * p);
      } else {
        bv[v] = _mm512_maskz_loadu_ps(s.mask[v], image + koff[p] + s.src[v]);
      }
    }
#pragma GCC unroll 12
    for (int r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(w[r * k + p]);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm512_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
  }
  const __m512 zero = _mm512_setzero_ps();
#pragma GCC unroll 12
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      __m512 y = acc[r][v];
      if (bias != nullptr) y = _mm512_add_ps(y, _mm512_set1_ps(bias[r]));
      if (prelu != nullptr) {
        // y > 0 ? y : slope·y, the multiply only in the other lanes.
        y = _mm512_mask_mul_ps(y, _mm512_cmp_ps_mask(y, zero, _CMP_NGT_UQ),
                               _mm512_set1_ps(prelu[r]), y);
      }
      acc[r][v] = y;
    }
    float* row = out + r * ldo;
    if constexpr (S == ConvStore::Plain) {
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) {
        _mm512_mask_storeu_ps(row + s.dst[v], s.mask[v], acc[r][v]);
      }
    } else if constexpr (S == ConvStore::PoolRows) {
      _mm512_mask_storeu_ps(row + s.dst[0], s.pooled,
                            pool_rows_avx512(acc[r][0], acc[r][V - 1]));
    } else {
      _mm512_mask_storeu_ps(row + s.dst[0], s.pooled,
                            pool_corners_avx512(acc[r][0]));
    }
  }
}

// One strip over the m output channels, in the near-equal groups of at
// most 12 rows of gemm_block_avx512.
template <int V, bool kSlab, ConvStore S>
__attribute__((target("avx512f"))) void conv_strip_avx512(
    std::int64_t m, std::int64_t k, const std::int64_t* koff,
    const float* image, const ConvStrip& s, const float* w,
    const GemmEpilogue& ep, float* out, std::int64_t ldo) {
  const std::int64_t groups = (m + kAvx512MaxRows - 1) / kAvx512MaxRows;
  std::int64_t i = 0;
  for (std::int64_t g = 0; g < groups; ++g) {
    const std::int64_t rows = (m - i) / (groups - g);
    const float* wi = w + i * k;
    const float* bias = ep.bias != nullptr ? ep.bias + i : nullptr;
    const float* prelu = ep.prelu != nullptr ? ep.prelu + i : nullptr;
    float* oi = out + i * ldo;
#define SNE_CONV_TILE(R)                                                     \
  case R:                                                                    \
    conv_tile_avx512<R, V, kSlab, S>(k, koff, image, s, wi, bias, prelu, oi, \
                                     ldo);                                   \
    break;
    switch (rows) {
      SNE_CONV_TILE(1) SNE_CONV_TILE(2) SNE_CONV_TILE(3) SNE_CONV_TILE(4)
      SNE_CONV_TILE(5) SNE_CONV_TILE(6) SNE_CONV_TILE(7) SNE_CONV_TILE(8)
      SNE_CONV_TILE(9) SNE_CONV_TILE(10) SNE_CONV_TILE(11)
      default:
        conv_tile_avx512<12, V, kSlab, S>(k, koff, image, s, wi, bias, prelu,
                                          oi, ldo);
    }
#undef SNE_CONV_TILE
    i += rows;
  }
}

std::uint16_t low_lanes(std::int64_t count) {
  return static_cast<std::uint16_t>((1u << count) - 1u);
}

// One image of out[m × ldo] = epilogue(w[m × k] · columns), the columns
// read in place through koff; with `pool`, the 2×2/stride-2 max-pool of
// that output instead (⌊out_h/2⌋ × ⌊out_w/2⌋ per channel, ldo apart).
// Wide planes run row-pair strips of 16 columns, strips outermost so each
// one's image rows stay in L1 while the row groups stream the weights.
// Narrow planes gather each strip's taps into the slab first. Gather
// offsets are int32 (the caller keeps the image within range).
__attribute__((target("avx512f"))) void conv_image_avx512(
    std::int64_t m, std::int64_t k, const std::int64_t* koff,
    const float* image, std::int64_t width, std::int64_t out_h,
    std::int64_t out_w, bool pool, std::int64_t ldo, const float* w,
    const GemmEpilogue& ep, float* out) {
  const std::int64_t ph = out_h / 2;
  const std::int64_t pw = out_w / 2;
  ConvStrip s;
  if (out_w >= 16) {
    if (pool) {
      for (std::int64_t py = 0; py < ph; ++py) {
        for (std::int64_t x = 0; x < 2 * pw; x += 16) {
          const std::int64_t cols = std::min<std::int64_t>(16, 2 * pw - x);
          s.src[0] = 2 * py * width + x;
          s.src[1] = s.src[0] + width;
          s.mask[0] = s.mask[1] = low_lanes(cols);
          s.dst[0] = py * pw + x / 2;
          s.pooled = low_lanes(cols / 2);
          conv_strip_avx512<2, false, ConvStore::PoolRows>(
              m, k, koff, image, s, w, ep, out, ldo);
        }
      }
      return;
    }
    for (std::int64_t y = 0; y < out_h; y += 2) {
      for (std::int64_t x = 0; x < out_w; x += 16) {
        const std::int64_t cols = std::min<std::int64_t>(16, out_w - x);
        s.src[0] = y * width + x;
        s.src[1] = s.src[0] + width;
        s.dst[0] = y * out_w + x;
        s.dst[1] = s.dst[0] + out_w;
        s.mask[0] = s.mask[1] = low_lanes(cols);
        if (y + 1 < out_h) {
          conv_strip_avx512<2, false, ConvStore::Plain>(m, k, koff, image, s,
                                                        w, ep, out, ldo);
        } else {
          conv_strip_avx512<1, false, ConvStore::Plain>(m, k, koff, image, s,
                                                        w, ep, out, ldo);
        }
      }
    }
    return;
  }
  // Narrow: strip j covers outputs 16j… (plain) or windows 4j… (pooled).
  thread_local std::vector<float> slab;  // grow-only, k × 16
  slab.resize(static_cast<std::size_t>(16 * k));
  s.slab = slab.data();
  const std::int64_t units = pool ? ph * pw : out_h * out_w;
  const std::int64_t per_strip = pool ? 4 : 16;
  for (std::int64_t u = 0; u < units; u += per_strip) {
    const std::int64_t live = std::min(per_strip, units - u);
    alignas(64) std::int32_t index[16] = {};
    std::uint16_t lanes = 0;
    for (int l = 0; l < 16; ++l) {
      std::int64_t oy = 0;
      std::int64_t ox = 0;
      if (pool) {
        const std::int64_t win = u + l % 4;
        if (l % 4 >= live) continue;
        oy = 2 * (win / pw) + l / 8;
        ox = 2 * (win % pw) + l / 4 % 2;
      } else {
        if (l >= live) continue;
        oy = (u + l) / out_w;
        ox = (u + l) % out_w;
      }
      index[l] = static_cast<std::int32_t>(oy * width + ox);
      lanes = static_cast<std::uint16_t>(lanes | (1u << l));
    }
    const __m512i idx = _mm512_load_si512(index);
    for (std::int64_t p = 0; p < k; ++p) {
      _mm512_storeu_ps(slab.data() + 16 * p,
                       _mm512_mask_i32gather_ps(_mm512_setzero_ps(), lanes,
                                                idx, image + koff[p], 4));
    }
    s.dst[0] = u;
    if (pool) {
      s.pooled = low_lanes(live);
      conv_strip_avx512<1, true, ConvStore::PoolCorners>(m, k, koff, image, s,
                                                         w, ep, out, ldo);
    } else {
      s.mask[0] = lanes;
      conv_strip_avx512<1, true, ConvStore::Plain>(m, k, koff, image, s, w,
                                                   ep, out, ldo);
    }
  }
}

#pragma GCC diagnostic pop

// The image offset of each tap p = (c, ky, kx) of a stride-1, unpadded
// conv: row p of its column matrix is the image at koff[p] plus each
// output pixel's offset. A grow-only per-thread table.
const std::int64_t* conv_tap_offsets(std::int64_t channels,
                                     std::int64_t height, std::int64_t width,
                                     std::int64_t kernel) {
  thread_local std::vector<std::int64_t> koff;
  koff.resize(static_cast<std::size_t>(channels * kernel * kernel));
  std::size_t p = 0;
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t ky = 0; ky < kernel; ++ky) {
      for (std::int64_t kx = 0; kx < kernel; ++kx) {
        koff[p++] = (c * height + ky) * width + kx;
      }
    }
  }
  return koff.data();
}

// sgemm_bt's loop on the Avx2Fma tier: each output is two
// double chains over k ascending, even p into one and odd p into the
// other (a trailing even p joins the first), then C += float(sum of the
// two). float × float is exact in double, so a fused multiply-add rounds
// exactly as the loop's multiply and add do, and the bits are those of the
// loop on any build, whichever operand is broadcast.
//
// Sixteen outputs at a time: lane l of four ymm accumulators per chain is
// row l of `strip`, 16 rows of one operand packed transposed and widened
// to double (k × 16, zero past the operand's last row), against the
// broadcast row `y` of the other. Widening in the pack takes the
// float → double converts out of the k loop.
__attribute__((target("avx2,fma"))) void sgemm_bt_dot16_avx2(
    std::int64_t k, const double* strip, const float* y, float* sum) {
  __m256d even[4], odd[4];
#pragma GCC unroll 4
  for (int v = 0; v < 4; ++v) {
    even[v] = _mm256_setzero_pd();
    odd[v] = _mm256_setzero_pd();
  }
  const double* bp = strip;
  std::int64_t p = 0;
  for (; p + 2 <= k; p += 2, bp += 32) {
    const __m256d ye = _mm256_set1_pd(static_cast<double>(y[p]));
    const __m256d yo = _mm256_set1_pd(static_cast<double>(y[p + 1]));
#pragma GCC unroll 4
    for (int v = 0; v < 4; ++v) {
      even[v] = _mm256_fmadd_pd(ye, _mm256_loadu_pd(bp + 4 * v), even[v]);
      odd[v] = _mm256_fmadd_pd(yo, _mm256_loadu_pd(bp + 16 + 4 * v), odd[v]);
    }
  }
  if (p < k) {
    const __m256d ye = _mm256_set1_pd(static_cast<double>(y[p]));
#pragma GCC unroll 4
    for (int v = 0; v < 4; ++v) {
      even[v] = _mm256_fmadd_pd(ye, _mm256_loadu_pd(bp + 4 * v), even[v]);
    }
  }
#pragma GCC unroll 4
  for (int v = 0; v < 4; ++v) {
    _mm_storeu_ps(sum + 4 * v,
                  _mm256_cvtpd_ps(_mm256_add_pd(even[v], odd[v])));
  }
}

// The lanes run along C's columns (16 rows of B per strip, each strip
// packed once into a grow-only per-thread buffer, every row of A
// broadcast against it), or along C's rows when n < 16 and m > n, so a
// Linear with one output (n = 1) does not waste 15 of every 16 lanes.
void sgemm_bt_avx2(std::int64_t m, std::int64_t n, std::int64_t k,
                   const float* a, const float* b, float* c) {
  const bool by_rows = n < 16 && m > n;
  const float* packed = by_rows ? a : b;
  const float* broadcast = by_rows ? b : a;
  const std::int64_t lanes = by_rows ? m : n;
  const std::int64_t others = by_rows ? n : m;
  const std::int64_t lane_step = by_rows ? n : 1;  // C step per lane
  const std::int64_t other_step = by_rows ? 1 : n;
  thread_local std::vector<double> strip;
  strip.resize(static_cast<std::size_t>(16 * k));
  for (std::int64_t l0 = 0; l0 < lanes; l0 += 16) {
    const std::int64_t rows = std::min<std::int64_t>(16, lanes - l0);
    for (std::int64_t l = 0; l < 16; ++l) {
      for (std::int64_t p = 0; p < k; ++p) {
        strip[static_cast<std::size_t>(p * 16 + l)] =
            l < rows ? static_cast<double>(packed[(l0 + l) * k + p]) : 0.0;
      }
    }
    for (std::int64_t o = 0; o < others; ++o) {
      float sum[16];
      sgemm_bt_dot16_avx2(k, strip.data(), broadcast + o * k, sum);
      float* co = c + o * other_step + l0 * lane_step;
      for (std::int64_t l = 0; l < rows; ++l) co[l * lane_step] += sum[l];
    }
  }
}

#endif  // SNE_GEMM_X86

bool cpu_has_avx2_fma() noexcept {
#if SNE_GEMM_X86
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace

// libgcc reports avx512f only when CPUID has it AND the OS enables the
// zmm/opmask state in XCR0.
bool cpu_has_avx512f() noexcept {
#if SNE_GEMM_X86
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

namespace {

// The VNNI int8 kernel's instructions: vpdpbusd on zmm (avx512vnni), byte
// masks and shuffles (avx512bw) and their 128/256-bit forms (avx512vl).
bool cpu_has_avx512_vnni() noexcept {
#if SNE_GEMM_X86
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512vnni") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl");
#else
  return false;
#endif
}

// -1 = unresolved; otherwise a GemmTier value. Resolution happens at most
// once per process unless set_gemm_tier overrides it.
std::atomic<int> g_gemm_tier{-1};

GemmTier clamp_to_supported(GemmTier tier) noexcept {
  return gemm_tier_supported(tier) ? tier : GemmTier::Scalar;
}

using BlockKernel = void (*)(std::int64_t, std::int64_t, std::int64_t,
                             const float*, std::int64_t, const float*,
                             std::int64_t, float*, std::int64_t);

BlockKernel active_block_kernel() {
#if SNE_GEMM_X86
  if (gemm_tier() == GemmTier::Avx2Fma) {
    // Same bits either way (see gemm_block_avx512); chosen once.
    static const BlockKernel kernel =
        cpu_has_avx512f() ? gemm_block_avx512 : gemm_block_avx2;
    return kernel;
  }
#endif
  return gemm_block;
}

void scale_c(std::int64_t m, std::int64_t n, float beta, float* c) {
  if (beta == 1.0f) return;
  if (beta == 0.0f) {
    std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
    return;
  }
  for (std::int64_t i = 0; i < m * n; ++i) c[i] *= beta;
}

// Per-row bias add and PReLU over rows [i0, i0+mb) of C. Runs right after
// a row panel's k accumulation finishes (C still cache-hot), in the same
// element order and with the same operations as the separate passes it
// replaces — fusing the epilogue changes no bits.
void apply_epilogue(std::int64_t i0, std::int64_t mb, std::int64_t n,
                    float* c, const GemmEpilogue& ep) {
  for (std::int64_t i = i0; i < i0 + mb; ++i) {
    float* row = c + i * n;
    if (ep.bias != nullptr) {
      const float bv = ep.bias[i];
      for (std::int64_t j = 0; j < n; ++j) row[j] += bv;
    }
    if (ep.prelu != nullptr) {
      const float s = ep.prelu[i];
      for (std::int64_t j = 0; j < n; ++j) {
        row[j] = row[j] > 0.0f ? row[j] : s * row[j];
      }
    }
  }
}

// One row panel of C: the k/n-blocked accumulation for rows [i0, i0+mb),
// with the kernels reading A in place, then the epilogue for those rows.
// Shared by the parallel and serial drivers so their math (and bits) are
// identical. `kernel` is the dispatched inner kernel, captured once per
// driver call.
void sgemm_panel(std::int64_t i0, std::int64_t mb, std::int64_t n,
                 std::int64_t k, const float* a, const float* b, float* c,
                 BlockKernel kernel, const GemmEpilogue& epilogue) {
  for (std::int64_t p0 = 0; p0 < k; p0 += kBlockK) {
    const std::int64_t kb = std::min(kBlockK, k - p0);
    for (std::int64_t j0 = 0; j0 < n; j0 += kBlockN) {
      const std::int64_t nb = std::min(kBlockN, n - j0);
      kernel(mb, nb, kb, a + i0 * k + p0, k, b + p0 * n + j0, n,
             c + i0 * n + j0, n);
    }
  }
  if (!epilogue.empty()) apply_epilogue(i0, mb, n, c, epilogue);
}

// ---------------------------------------------------------------------------
// int8 GEMM. Both tiers accumulate each output tile exactly in int32 over
// the full k extent (no k blocking — int32 partial sums would otherwise
// need a spill buffer, and kIgemmMaxK bounds the exact range), then
// requantize the finished tile. Integer accumulation is exact and
// order-independent, and the scalar and AVX2 requant epilogues run the
// same per-element IEEE operation sequence (convert, fused
// multiply-add via fmaf/vfmaddps — one rounding, stated in source so it
// cannot drift with -ffp-contract — then PReLU select), so int8 GEMM
// results are bitwise identical across tiers and reruns; the dispatch
// test pins the tier equality exactly.

// Tile geometry: up to 6 rows × 16 int32 accumulators, mirroring the f32
// kernel's register blocking (12 ymm accumulators + 2 B vectors + 1
// broadcast on the AVX2 tier).
constexpr std::int64_t kIgemmTileM = 6;
constexpr std::int64_t kIgemmTileN = 16;

// The shared requant epilogue: tile holds rows×cols finished int32
// accumulators (row stride kIgemmTileN) for C rows [i0, i0+rows), columns
// [j0, j0+cols). Scale → bias → PReLU, in the same element order at every
// call site.
void igemm_requant_tile(const std::int32_t* tile, std::int64_t i0,
                        std::int64_t rows, std::int64_t j0, std::int64_t cols,
                        std::int64_t n, float* c, const IgemmEpilogue& ep) {
  for (std::int64_t i = 0; i < rows; ++i) {
    const float scale = ep.scale[i0 + i];
    const float bias = ep.bias != nullptr ? ep.bias[i0 + i] : 0.0f;
    const std::int32_t* t = tile + i * kIgemmTileN;
    float* row = c + (i0 + i) * n + j0;
    // Explicit fmaf: the requant contract is the FUSED multiply-add (one
    // rounding), stated in source rather than left to -ffp-contract, so
    // the vector epilogue (vfmaddps) matches bit for bit on any build.
    if (ep.prelu != nullptr) {
      const float slope = ep.prelu[i0 + i];
      for (std::int64_t j = 0; j < cols; ++j) {
        const float v = std::fmaf(static_cast<float>(t[j]), scale, bias);
        row[j] = v > 0.0f ? v : slope * v;
      }
    } else {
      for (std::int64_t j = 0; j < cols; ++j) {
        row[j] = std::fmaf(static_cast<float>(t[j]), scale, bias);
      }
    }
  }
}

// Scalar accumulation of one ragged tile (also the full scalar tier).
void igemm_tile_scalar(std::int64_t rows, std::int64_t cols, std::int64_t k,
                       const std::int8_t* a, std::int64_t lda,
                       const std::int8_t* b, std::int64_t ldb,
                       std::int32_t* tile) {
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::int8_t* ai = a + i * lda;
    for (std::int64_t j = 0; j < cols; ++j) {
      std::int32_t acc = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<std::int32_t>(ai[p]) *
               static_cast<std::int32_t>(b[p * ldb + j]);
      }
      tile[i * kIgemmTileN + j] = acc;
    }
  }
}

void igemm_rows_scalar(std::int64_t m, std::int64_t n, std::int64_t k,
                       const std::int8_t* a, const std::int8_t* b, float* c,
                       const IgemmEpilogue& ep) {
  std::int32_t tile[kIgemmTileM * kIgemmTileN];
  for (std::int64_t i = 0; i < m; i += kIgemmTileM) {
    const std::int64_t rows = std::min(kIgemmTileM, m - i);
    for (std::int64_t j = 0; j < n; j += kIgemmTileN) {
      const std::int64_t cols = std::min(kIgemmTileN, n - j);
      igemm_tile_scalar(rows, cols, k, a + i * k, k, b + j, n, tile);
      igemm_requant_tile(tile, i, rows, j, cols, n, c, ep);
    }
  }
}

#if SNE_GEMM_X86

// Two adjacent k values of one A row, packed as the (lo, hi) i16 halves
// of an i32 — the broadcast operand madd_epi16 pairs against the
// interleaved B rows.
inline std::int32_t pack_a_pair(std::int8_t a0, std::int8_t a1) noexcept {
  const auto lo = static_cast<std::uint16_t>(static_cast<std::int16_t>(a0));
  const auto hi = static_cast<std::uint16_t>(static_cast<std::int16_t>(a1));
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(lo) |
                                   (static_cast<std::uint32_t>(hi) << 16));
}

// Vectorized requant for full-width (16-column) tiles on the AVX2 tier.
// Every element runs the same IEEE operation sequence as
// igemm_requant_tile — int32→float convert, FUSED multiply-add (vfmaddps,
// matching the scalar epilogue's fmaf), per-element PReLU select — so the
// two epilogues are bitwise
// identical and the cross-tier identity of igemm survives; the dispatch
// test pins scalar-vs-AVX2 exact equality.
__attribute__((target("avx2,fma"))) void igemm_requant_tile16_avx2(
    const std::int32_t* tile, std::int64_t i0, std::int64_t rows,
    std::int64_t j0, std::int64_t n, float* c, const IgemmEpilogue& ep) {
  const __m256 zero = _mm256_setzero_ps();
  for (std::int64_t i = 0; i < rows; ++i) {
    const __m256 scale = _mm256_set1_ps(ep.scale[i0 + i]);
    const __m256 bias =
        _mm256_set1_ps(ep.bias != nullptr ? ep.bias[i0 + i] : 0.0f);
    const std::int32_t* t = tile + i * kIgemmTileN;
    float* row = c + (i0 + i) * n + j0;
    for (int h = 0; h < kIgemmTileN; h += 8) {
      __m256 v = _mm256_cvtepi32_ps(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(t + h)));
      v = _mm256_fmadd_ps(v, scale, bias);
      if (ep.prelu != nullptr) {
        const __m256 slope = _mm256_set1_ps(ep.prelu[i0 + i]);
        const __m256 scaled = _mm256_mul_ps(v, slope);
        v = _mm256_blendv_ps(scaled, v, _mm256_cmp_ps(v, zero, _CMP_GT_OQ));
      }
      _mm256_storeu_ps(row + h, v);
    }
  }
}

// Packs B columns [j, j+16) into interleaved i16 k-pairs: for each pair,
// rows 2p and 2p+1 are sign-extended to i16 and interleaved
// (unpacklo/hi), ready for madd_epi16 against a broadcast A pair. Done
// ONCE per column block and reused by every row tile — keeping the
// conversion in the tile kernel costs two extra live vectors (which
// spills the 12 accumulators) and redoes the shuffle work m/6 times.
__attribute__((target("avx2"))) void igemm_pack_b_avx2(
    const std::int8_t* b, std::int64_t ldb, std::int64_t j, std::int64_t kp,
    std::int16_t* dst) {
  for (std::int64_t p = 0; p < kp; ++p) {
    const __m256i b0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
        reinterpret_cast<const __m128i*>(b + (2 * p) * ldb + j)));
    const __m256i b1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
        reinterpret_cast<const __m128i*>(b + (2 * p + 1) * ldb + j)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + p * 32),
                        _mm256_unpacklo_epi16(b0, b1));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + p * 32 + 16),
                        _mm256_unpackhi_epi16(b0, b1));
  }
}

// R rows × 16 columns over kp k-PAIRS of pre-packed B: the packed A pair
// is broadcast and madd_epi16 produces the exact a0·b0 + a1·b1 int32 per
// column — s8×s8 products fit i16 and their pairwise sums fit i32, so
// nothing can saturate (unlike maddubs, whose i16 pair sums can). The
// loop carries 12 accumulators + 2 B vectors + 1 broadcast, the same
// 15-register budget as the f32 kernel. After the loop the unpack
// interleave is undone with two cross-lane permutes per row. An odd
// trailing k element is NOT handled here — the caller adds it scalar,
// which costs nothing and keeps this loop branch-free.
template <int R>
__attribute__((target("avx2"))) void igemm_tile16_avx2(
    const std::int32_t* apack, std::int64_t lda_pack, std::int64_t kp,
    const std::int16_t* bpack, std::int32_t* tile) {
  __m256i acc_lo[R];
  __m256i acc_hi[R];
  for (int r = 0; r < R; ++r) {
    acc_lo[r] = _mm256_setzero_si256();
    acc_hi[r] = _mm256_setzero_si256();
  }
  for (std::int64_t p = 0; p < kp; ++p) {
    const __m256i blo = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bpack + p * 32));
    const __m256i bhi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bpack + p * 32 + 16));
    for (int r = 0; r < R; ++r) {
      const __m256i av = _mm256_set1_epi32(apack[r * lda_pack + p]);
      acc_lo[r] = _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(av, blo));
      acc_hi[r] = _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(av, bhi));
    }
  }
  for (int r = 0; r < R; ++r) {
    // unpack put columns [0-3, 8-11] in acc_lo and [4-7, 12-15] in
    // acc_hi; the two permutes restore linear column order.
    const __m256i first =
        _mm256_permute2x128_si256(acc_lo[r], acc_hi[r], 0x20);
    const __m256i second =
        _mm256_permute2x128_si256(acc_lo[r], acc_hi[r], 0x31);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(tile + r * kIgemmTileN), first);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(tile + r * kIgemmTileN + 8), second);
  }
}

void igemm_rows_avx2(std::int64_t m, std::int64_t n, std::int64_t k,
                     const std::int8_t* a, const std::int8_t* b, float* c,
                     const IgemmEpilogue& ep,
                     std::vector<std::int32_t>& apack,
                     std::vector<std::int16_t>& bpack) {
  // Pre-pack every A row into k-pairs once; the inner loop then
  // broadcasts straight from memory instead of re-packing per tile.
  const std::int64_t kp = k / 2;
  apack.resize(static_cast<std::size_t>(std::max<std::int64_t>(m * kp, 1)));
  for (std::int64_t r = 0; r < m; ++r) {
    const std::int8_t* ar = a + r * k;
    std::int32_t* dst = apack.data() + r * kp;
    for (std::int64_t p = 0; p < kp; ++p) {
      dst[p] = pack_a_pair(ar[2 * p], ar[2 * p + 1]);
    }
  }
  bpack.resize(static_cast<std::size_t>(std::max<std::int64_t>(kp * 32, 1)));

  // Column blocks outermost: each 16-column strip of B is converted to
  // interleaved i16 once (≤ 32·k bytes, L1/L2-resident for real conv
  // shapes) and reused by every row tile.
  alignas(32) std::int32_t tile[kIgemmTileM * kIgemmTileN];
  std::int64_t j = 0;
  for (; j + kIgemmTileN <= n; j += kIgemmTileN) {
    igemm_pack_b_avx2(b, n, j, kp, bpack.data());
    for (std::int64_t i = 0; i < m; i += kIgemmTileM) {
      const std::int64_t rows = std::min(kIgemmTileM, m - i);
      const std::int32_t* ap = apack.data() + i * kp;
      const std::int16_t* bp = bpack.data();
      switch (rows) {
        case 1: igemm_tile16_avx2<1>(ap, kp, kp, bp, tile); break;
        case 2: igemm_tile16_avx2<2>(ap, kp, kp, bp, tile); break;
        case 3: igemm_tile16_avx2<3>(ap, kp, kp, bp, tile); break;
        case 4: igemm_tile16_avx2<4>(ap, kp, kp, bp, tile); break;
        case 5: igemm_tile16_avx2<5>(ap, kp, kp, bp, tile); break;
        default: igemm_tile16_avx2<6>(ap, kp, kp, bp, tile); break;
      }
      if ((k & 1) != 0) {
        // Odd trailing k element, added exactly like any other product.
        const std::int8_t* btail = b + (k - 1) * n + j;
        for (std::int64_t r = 0; r < rows; ++r) {
          const std::int32_t av = a[(i + r) * k + (k - 1)];
          std::int32_t* trow = tile + r * kIgemmTileN;
          for (std::int64_t jj = 0; jj < kIgemmTileN; ++jj) {
            trow[jj] += av * static_cast<std::int32_t>(btail[jj]);
          }
        }
      }
      igemm_requant_tile16_avx2(tile, i, rows, j, n, c, ep);
    }
  }
  if (j < n) {
    // Ragged column tail (< 16 columns): scalar accumulation. Exact
    // integer math, so mixing paths cannot change any bit.
    for (std::int64_t i = 0; i < m; i += kIgemmTileM) {
      const std::int64_t rows = std::min(kIgemmTileM, m - i);
      igemm_tile_scalar(rows, n - j, k, a + i * k, k, b + j, n, tile);
      igemm_requant_tile(tile, i, rows, j, n - j, n, c, ep);
    }
  }
}

// The Avx2Fma tier's int8 kernel on AVX-512 VNNI hosts. vpdpbusd multiplies
// u8 by s8 and adds each 4-product group straight into an int32 lane
// (no i16 intermediate sum, so unlike maddubs nothing saturates), so B is
// shifted to u8 as b ^ 0x80 = b + 128 and A stays s8:
//   Σ (b + 128)·a = Σ a·b + 128·Σ a.
// Each accumulator starts at −128·Σₚ a[i][p] for its row, so it ends at
// the exact Σ a·b. vpdpbusd wraps modulo 2³² and the start value is
// computed in uint32, so every step is exact mod 2³²; the true sum fits
// int32 for k ≤ kIgemmMaxK, hence the int32 result is exact even where the
// shifted sum alone wraps (k > 65,793). A signed 128·Σa would overflow
// near kIgemmMaxK. The requant epilogue is the same per-element sequence
// as every other igemm path, so the kernel choice moves no bit.

// GCC 12's AVX-512 intrinsics pass _mm512_undefined_*() as the merge
// operand of their unmasked forms, which -Wuninitialized reports once
// inlined; under a full mask that operand is never read.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// Byte transpose inside each 128-bit lane: 4 dwords (4 B rows × 4
// columns) become 4 columns × 4 k bytes, the k-quad order vpdpbusd reads.
__attribute__((target("avx512f,avx512bw"))) inline __m512i
igemm_quads_vnni(__m512i rows_by_lane) {
  // Output byte 4c + r takes input byte 4r + c.
  const __m512i order = _mm512_setr4_epi32(0x0c080400, 0x0d090501,
                                           0x0e0a0602, 0x0f0b0703);
  return _mm512_xor_si512(_mm512_shuffle_epi8(rows_by_lane, order),
                          _mm512_set1_epi8(static_cast<char>(0x80)));
}

// Row p of B's columns [j, j + 32), masked to the `cols` that exist;
// zero for p ≥ k (the padding rows of the last k-quad).
__attribute__((target("avx512f,avx512bw,avx512vl"))) inline __m256i
igemm_b_row_vnni(const std::int8_t* b, std::int64_t n, std::int64_t k,
                 std::int64_t p, std::int64_t j, __mmask32 cols) {
  return p < k ? _mm256_maskz_loadu_epi8(cols, b + p * n + j)
               : _mm256_setzero_si256();
}

// Packs one k-quad of four B rows (32 columns each) as u8: 64 bytes per
// 16 columns, column c's 4 bytes being the four rows' bytes plus 128.
__attribute__((target("avx512f,avx512bw,avx512vl"))) inline void
igemm_pack_quad_vnni(__m256i r0, __m256i r1, __m256i r2, __m256i r3,
                     std::uint8_t* dst) {
  // Lanes of x: row 0 cols 0-15, row 0 cols 16-31, row 1 cols 0-15, row 1
  // cols 16-31; y likewise rows 2 and 3. lo/hi gather, per lane g, the
  // four rows' dword g of the low/high 16 columns.
  const __m512i lo = _mm512_setr_epi32(0, 8, 16, 24, 1, 9, 17, 25, 2, 10, 18,
                                       26, 3, 11, 19, 27);
  const __m512i hi = _mm512_setr_epi32(4, 12, 20, 28, 5, 13, 21, 29, 6, 14, 22,
                                       30, 7, 15, 23, 31);
  const __m512i x = _mm512_inserti64x4(_mm512_castsi256_si512(r0), r1, 1);
  const __m512i y = _mm512_inserti64x4(_mm512_castsi256_si512(r2), r3, 1);
  _mm512_store_si512(dst,
                     igemm_quads_vnni(_mm512_permutex2var_epi32(x, lo, y)));
  _mm512_store_si512(dst + 64,
                     igemm_quads_vnni(_mm512_permutex2var_epi32(x, hi, y)));
}

// Packs B columns [j, j + 32) ∩ [0, n) into k-quads of u8, 128 bytes per
// quad. Ragged columns load masked (their packed lanes are never stored)
// and rows past k load as zero, against zero A padding.
__attribute__((target("avx512f,avx512bw,avx512vl"))) void igemm_pack_b_vnni(
    const std::int8_t* b, std::int64_t n, std::int64_t k, std::int64_t j,
    std::int64_t kq, std::uint8_t* dst) {
  const std::int64_t w = std::min<std::int64_t>(32, n - j);
  const __mmask32 cols = w >= 32 ? ~__mmask32{0} : (__mmask32{1} << w) - 1;
  for (std::int64_t q = 0; q < kq; ++q) {
    const std::int64_t p = 4 * q;
    igemm_pack_quad_vnni(igemm_b_row_vnni(b, n, k, p, j, cols),
                         igemm_b_row_vnni(b, n, k, p + 1, j, cols),
                         igemm_b_row_vnni(b, n, k, p + 2, j, cols),
                         igemm_b_row_vnni(b, n, k, p + 3, j, cols),
                         dst + q * 128);
  }
}

// The requant epilogue of one finished VNNI tile (`rows` × 16·V int32,
// row stride 16·V): convert, vfmaddps scale and bias, PReLU select — per
// element the same IEEE sequence as igemm_requant_tile — and a store
// masked to the `last` columns of the final vector. `c` and the `ep`
// pointers start at the tile's first row.
template <int V>
__attribute__((target("avx512f"))) inline void igemm_requant_vnni(
    const std::int32_t* tile, std::int64_t rows, float* c, std::int64_t ldc,
    __mmask16 last, const IgemmEpilogue& ep) {
  const __m512 zero = _mm512_setzero_ps();
  for (std::int64_t r = 0; r < rows; ++r) {
    const __m512 scale = _mm512_set1_ps(ep.scale[r]);
    const __m512 bias = _mm512_set1_ps(ep.bias != nullptr ? ep.bias[r] : 0.0f);
    float* row = c + r * ldc;
    for (int v = 0; v < V; ++v) {
      const __m512i acc = _mm512_load_si512(tile + (r * V + v) * 16);
      __m512 x = _mm512_fmadd_ps(_mm512_cvtepi32_ps(acc), scale, bias);
      if (ep.prelu != nullptr) {
        const __mmask16 pos = _mm512_cmp_ps_mask(x, zero, _CMP_GT_OQ);
        x = _mm512_mask_mul_ps(x, static_cast<__mmask16>(~pos), x,
                               _mm512_set1_ps(ep.prelu[r]));
      }
      _mm512_mask_storeu_ps(row + 16 * v, v == V - 1 ? last : 0xffff, x);
    }
  }
}

// R rows × 16·V columns over kq k-quads: each A quad is broadcast (as a
// dword, the s8 operand) against the packed u8 B. `start` holds each
// row's −128·Σa (see above). The finished accumulators are stored to a
// stack tile for the requant: converting them in place makes GCC spill
// them inside the k loop.
template <int R, int V>
__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) inline void
igemm_tile_vnni(std::int64_t kq, const std::int32_t* ap,
                const std::int32_t* start, const std::uint8_t* bp, float* c,
                std::int64_t ldc, __mmask16 last, const IgemmEpilogue& ep) {
  __m512i acc[R][V];
#pragma GCC unroll 12
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) acc[r][v] = _mm512_set1_epi32(start[r]);
  }
  for (std::int64_t q = 0; q < kq; ++q) {
    __m512i bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      bv[v] = _mm512_load_si512(bp + q * 128 + 64 * v);
    }
#pragma GCC unroll 12
    for (int r = 0; r < R; ++r) {
      const __m512i av = _mm512_set1_epi32(ap[r * kq + q]);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm512_dpbusd_epi32(acc[r][v], bv[v], av);
      }
    }
  }
  alignas(64) std::int32_t tile[R * V * 16];
#pragma GCC unroll 12
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      _mm512_store_si512(tile + (r * V + v) * 16, acc[r][v]);
    }
  }
  igemm_requant_vnni<V>(tile, R, c, ldc, last, ep);
}

template <int V>
__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) void
igemm_rows_tile_vnni(std::int64_t rows, std::int64_t kq,
                     const std::int32_t* ap, const std::int32_t* start,
                     const std::uint8_t* bp, float* c, std::int64_t ldc,
                     __mmask16 last, const IgemmEpilogue& ep) {
  switch (rows) {
    case 1: igemm_tile_vnni<1, V>(kq, ap, start, bp, c, ldc, last, ep); break;
    case 2: igemm_tile_vnni<2, V>(kq, ap, start, bp, c, ldc, last, ep); break;
    case 3: igemm_tile_vnni<3, V>(kq, ap, start, bp, c, ldc, last, ep); break;
    case 4: igemm_tile_vnni<4, V>(kq, ap, start, bp, c, ldc, last, ep); break;
    case 5: igemm_tile_vnni<5, V>(kq, ap, start, bp, c, ldc, last, ep); break;
    case 6: igemm_tile_vnni<6, V>(kq, ap, start, bp, c, ldc, last, ep); break;
    case 7: igemm_tile_vnni<7, V>(kq, ap, start, bp, c, ldc, last, ep); break;
    case 8: igemm_tile_vnni<8, V>(kq, ap, start, bp, c, ldc, last, ep); break;
    case 9: igemm_tile_vnni<9, V>(kq, ap, start, bp, c, ldc, last, ep); break;
    case 10: igemm_tile_vnni<10, V>(kq, ap, start, bp, c, ldc, last, ep); break;
    case 11: igemm_tile_vnni<11, V>(kq, ap, start, bp, c, ldc, last, ep); break;
    default: igemm_tile_vnni<12, V>(kq, ap, start, bp, c, ldc, last, ep); break;
  }
}

constexpr std::int64_t kIgemmVnniMaxRows = 12;

// The VNNI driver of C (m × n, row-major) against a B
// that `pack_b(j, kq, dst)` packs one 32-column strip at a time, as
// igemm_pack_b_vnni lays it out. Rows go in near-equal groups of ≤ 12
// (m = 10, 20, 30 → 10, 10+10, 10+10+10) against 32- and 16-column tiles:
// 2·12 accumulators + 2 B vectors + 1 broadcast fit the 32 zmm registers.
// Column strips are outermost, so each packed strip (≤ 128·kq bytes) is
// reused by every row group while it is cache-hot. Ragged columns run the
// same tiles with a masked final store; there is no scalar tail.
template <typename PackB>
void igemm_strips_vnni(std::int64_t m, std::int64_t n, std::int64_t k,
                       const std::int8_t* a, float* c,
                       const IgemmEpilogue& ep,
                       std::vector<std::int32_t>& apack,
                       std::vector<std::int16_t>& bpack,
                       const PackB& pack_b) {
  // A rows as dword k-quads (zero-padded past k), then one start value
  // per row.
  const std::int64_t kq = (k + 3) / 4;
  apack.resize(static_cast<std::size_t>(m * (kq + 1)));
  std::int32_t* start = apack.data() + m * kq;
  for (std::int64_t r = 0; r < m; ++r) {
    const std::int8_t* ar = a + r * k;
    std::int32_t* quads = apack.data() + r * kq;
    if (kq > 0) quads[kq - 1] = 0;  // the zero bytes past k
    std::memcpy(quads, ar, static_cast<std::size_t>(k));
    std::int32_t sum = 0;  // |Σa| ≤ 128·kIgemmMaxK, far inside int32
    for (std::int64_t p = 0; p < k; ++p) sum += ar[p];
    start[r] = static_cast<std::int32_t>(0u - 128u *
                                         static_cast<std::uint32_t>(sum));
  }
  // 64-byte aligned strip buffer: 128 bytes per quad, + 64 of alignment
  // slack.
  bpack.resize(static_cast<std::size_t>(kq * 64 + 32));
  auto* bbuf = reinterpret_cast<std::uint8_t*>(bpack.data());
  bbuf += (64 - reinterpret_cast<std::uintptr_t>(bbuf) % 64) % 64;

  const std::int64_t groups = (m + kIgemmVnniMaxRows - 1) / kIgemmVnniMaxRows;
  for (std::int64_t j = 0; j < n; j += 32) {
    const std::int64_t w = std::min<std::int64_t>(32, n - j);
    const bool wide = w > 16;
    pack_b(j, kq, bbuf);
    const std::int64_t tail = wide ? w - 16 : w;
    const auto last = static_cast<__mmask16>((1u << tail) - 1);
    std::int64_t r = 0;
    for (std::int64_t g = 0; g < groups; ++g) {
      const std::int64_t rows = (m - r) / (groups - g);
      const IgemmEpilogue group_ep{
          ep.scale + r, ep.bias != nullptr ? ep.bias + r : nullptr,
          ep.prelu != nullptr ? ep.prelu + r : nullptr};
      const std::int32_t* ap = apack.data() + r * kq;
      float* ct = c + r * n + j;
      if (wide) {
        igemm_rows_tile_vnni<2>(rows, kq, ap, start + r, bbuf, ct, n, last,
                                group_ep);
      } else {
        igemm_rows_tile_vnni<1>(rows, kq, ap, start + r, bbuf, ct, n, last,
                                group_ep);
      }
      r += rows;
    }
  }
}

void igemm_rows_vnni(std::int64_t m, std::int64_t n, std::int64_t k,
                     const std::int8_t* a, const std::int8_t* b, float* c,
                     const IgemmEpilogue& ep,
                     std::vector<std::int32_t>& apack,
                     std::vector<std::int16_t>& bpack) {
  igemm_strips_vnni(m, n, k, a, c, ep, apack, bpack,
                    [&](std::int64_t j, std::int64_t kq, std::uint8_t* dst) {
                      igemm_pack_b_vnni(b, n, k, j, kq, dst);
                    });
}

// The direct int8 conv (stride 1, no pad): the strips of im2col_i8's column
// matrix are packed straight from the image. Output pixel q = oy·out_w + ox
// reads tap p at image offset koff[p] + oy·W + ox = koff[p] + q +
// oy·(W − out_w), so the pixels of one output row are one contiguous run
// of bytes per tap.
struct IconvRun {
  std::int64_t base;  ///< image offset of lane 0, ≥ 0, less koff[p]
  __mmask32 lanes;    ///< the strip lanes in this output row
};

// The runs of the strip of pixels [j, j + w), w ≤ 32: at most 32 (out_w
// 1). Lanes outside every run (past n) load nothing and pack as zero, as
// igemm_pack_b_vnni's masked columns do; each run's unmasked lanes read
// inside the image.
int plan_iconv_runs(std::int64_t j, std::int64_t w, std::int64_t width,
                    std::int64_t out_w, IconvRun* runs) {
  const auto below = [](std::int64_t lane) {
    return (std::uint64_t{1} << lane) - 1;
  };
  int count = 0;
  for (std::int64_t q = j; q < j + w;) {
    const std::int64_t oy = q / out_w;
    const std::int64_t end = std::min(j + w, (oy + 1) * out_w);
    runs[count++] = {j + oy * (width - out_w),
                     static_cast<__mmask32>(below(end - j) & ~below(q - j))};
    q = end;
  }
  return count;
}

// B row p of the strip: the merge of one masked load per run; zero for
// p ≥ k (the padding rows of the last k-quad).
__attribute__((target("avx512f,avx512bw,avx512vl"))) inline __m256i
iconv_b_row_vnni(const std::int8_t* image, const std::int64_t* koff,
                 std::int64_t k, std::int64_t p, const IconvRun* runs,
                 int count) {
  __m256i v = _mm256_setzero_si256();
  if (p >= k) return v;
  const std::int8_t* tap = image + koff[p];
  for (int r = 0; r < count; ++r) {
    v = _mm256_mask_loadu_epi8(v, runs[r].lanes, tap + runs[r].base);
  }
  return v;
}

// The quads pack exactly as igemm_pack_b_vnni packs the same rows of the
// column matrix, so the bytes are the same.
__attribute__((target("avx512f,avx512bw,avx512vl"))) void iconv_pack_b_vnni(
    const std::int8_t* image, const std::int64_t* koff, std::int64_t k,
    const IconvRun* runs, int count, std::int64_t kq, std::uint8_t* dst) {
  for (std::int64_t q = 0; q < kq; ++q) {
    const std::int64_t p = 4 * q;
    igemm_pack_quad_vnni(
        iconv_b_row_vnni(image, koff, k, p, runs, count),
        iconv_b_row_vnni(image, koff, k, p + 1, runs, count),
        iconv_b_row_vnni(image, koff, k, p + 2, runs, count),
        iconv_b_row_vnni(image, koff, k, p + 3, runs, count), dst + q * 128);
  }
}

void iconv_image_vnni(const std::int8_t* image, const std::int64_t* koff,
                      std::int64_t width, std::int64_t out_w, std::int64_t n,
                      std::int64_t k, const std::int8_t* weight,
                      std::int64_t out_channels, float* out,
                      const IgemmEpilogue& ep) {
  thread_local std::vector<std::int32_t> apack;
  thread_local std::vector<std::int16_t> bpack;
  igemm_strips_vnni(
      out_channels, n, k, weight, out, ep, apack, bpack,
      [&](std::int64_t j, std::int64_t kq, std::uint8_t* dst) {
        IconvRun runs[32];
        const int count = plan_iconv_runs(
            j, std::min<std::int64_t>(32, n - j), width, out_w, runs);
        iconv_pack_b_vnni(image, koff, k, runs, count, kq, dst);
      });
}

#pragma GCC diagnostic pop

#endif  // SNE_GEMM_X86

void igemm_check(std::int64_t k, const IgemmEpilogue& ep) {
  if (ep.scale == nullptr) {
    throw std::invalid_argument("igemm: epilogue requires a requant scale");
  }
  if (k > kIgemmMaxK) {
    throw std::invalid_argument(
        "igemm: k = " + std::to_string(k) +
        " exceeds the exact int32 accumulation bound (" +
        std::to_string(kIgemmMaxK) + ")");
  }
}

// The sum of sgemm_bt's even and odd chains in its scalar loop. Only the
// payload of a NaN result depends on the operand order: where both chains
// are NaN, x86 keeps the first operand's. The order is written out
// because the compiler's choice in `even + odd` follows its register
// allocation: Release builds (which target FMA) have kept the odd chain's
// payload, the -O2 sanitizer builds the even chain's, and the scalar-tier
// plan digests in tests/infer_parity_test.cpp pin both.
double chain_sum(double even, double odd) {
#if SNE_GEMM_X86 && defined(__FMA__)
  return _mm_cvtsd_f64(_mm_add_sd(_mm_set_sd(odd), _mm_set_sd(even)));
#elif SNE_GEMM_X86
  return _mm_cvtsd_f64(_mm_add_sd(_mm_set_sd(even), _mm_set_sd(odd)));
#else
  return even + odd;
#endif
}

}  // namespace

GemmTier gemm_tier() {
  int t = g_gemm_tier.load(std::memory_order_acquire);
  if (t < 0) {
    int expected = -1;
    const int resolved =
        static_cast<int>(clamp_to_supported(GemmTier::Avx2Fma));
    if (!g_gemm_tier.compare_exchange_strong(expected, resolved,
                                             std::memory_order_acq_rel)) {
      return static_cast<GemmTier>(expected);
    }
    t = resolved;
  }
  return static_cast<GemmTier>(t);
}

void set_gemm_tier(GemmTier tier) {
  g_gemm_tier.store(static_cast<int>(clamp_to_supported(tier)),
                    std::memory_order_release);
}

bool gemm_tier_supported(GemmTier tier) noexcept {
  switch (tier) {
    case GemmTier::Scalar:
      return true;
    case GemmTier::Avx2Fma: {
      static const bool supported = cpu_has_avx2_fma();
      return supported;
    }
  }
  return false;
}

const char* gemm_tier_name(GemmTier tier) noexcept {
  return tier == GemmTier::Avx2Fma ? "avx2" : "scalar";
}

void sgemm(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
           const float* b, float beta, float* c,
           const GemmEpilogue& epilogue) {
  scale_c(m, n, beta, c);
  if (m == 0 || n == 0 || k == 0) {
    // No accumulation, but the epilogue still applies to the scaled C.
    if (!epilogue.empty() && m > 0 && n > 0) apply_epilogue(0, m, n, c,
                                                            epilogue);
    return;
  }

  // Row panels are independent (each writes a disjoint row range of C and
  // applies the epilogue to its own rows), so they distribute across the
  // pool; the k/n blocking inside one panel stays serial, which keeps each
  // C element's accumulation order — and therefore the result bits —
  // independent of the thread count. The inner kernel is resolved once
  // per call, so a concurrent set_gemm_tier cannot mix tiers within one
  // GEMM.
  const BlockKernel kernel = active_block_kernel();
  const std::int64_t num_panels = (m + kBlockM - 1) / kBlockM;
  parallel_for(0, num_panels, [&](std::int64_t panel) {
    const std::int64_t i0 = panel * kBlockM;
    sgemm_panel(i0, std::min(kBlockM, m - i0), n, k, a, b, c, kernel,
                epilogue);
  });
}

void sgemm_serial(std::int64_t m, std::int64_t n, std::int64_t k,
                  const float* a, const float* b, float beta, float* c,
                  const GemmEpilogue& epilogue) {
  scale_c(m, n, beta, c);
  if (m == 0 || n == 0 || k == 0) {
    if (!epilogue.empty() && m > 0 && n > 0) apply_epilogue(0, m, n, c,
                                                            epilogue);
    return;
  }

  // Same panels as sgemm, walked on the calling thread, so calls never
  // touch the allocator (the std::function conversion inside parallel_for
  // would; that is why this is not just sgemm with a 1-wide pool).
  const BlockKernel kernel = active_block_kernel();
  for (std::int64_t i0 = 0; i0 < m; i0 += kBlockM) {
    sgemm_panel(i0, std::min(kBlockM, m - i0), n, k, a, b, c, kernel,
                epilogue);
  }
}

void sconv_serial(std::int64_t batch, const float* image,
                  std::int64_t channels, std::int64_t height,
                  std::int64_t width, std::int64_t kernel, std::int64_t pad,
                  std::int64_t stride, const float* weight,
                  std::int64_t out_channels, float* out,
                  const GemmEpilogue& epilogue, bool pool_2x2) {
  const std::int64_t out_h = conv_out_extent(height, kernel, pad, stride);
  const std::int64_t out_w = conv_out_extent(width, kernel, pad, stride);
  const std::int64_t n = out_h * out_w;
  const std::int64_t k = channels * kernel * kernel;
  const std::int64_t chw = channels * height * width;
  const std::int64_t out_stride = out_channels * n;

  // sgemm_serial's column blocks are 256 wide, so in the im2col lowering
  // the first n − n % 8 outputs of each row are FMA chains, which the
  // direct kernel reproduces, and the last n % 8 are scalar-tail columns,
  // whose bits are whatever the compiler made of gemm_block_avx2's scalar
  // loops. Those columns are gathered into a k × (n % 8) slab and run
  // through the same loops: sgemm_serial with the same weight, m and
  // epilogue walks the same row groups and k blocks. Gather offsets are
  // int32.
#if SNE_GEMM_X86
  static const bool has_avx512f = cpu_has_avx512f();
  const bool direct = has_avx512f && gemm_tier() == GemmTier::Avx2Fma &&
                      stride == 1 && pad == 0 && chw <= INT32_MAX;
#else
  const bool direct = false;
#endif
  const std::int64_t tail = n % 8;
  const std::int64_t ph = out_h / 2;
  const std::int64_t pw = out_w / 2;

  if (pool_2x2) {
    // The direct kernel pools in registers unless a pooled window reads a
    // tail pixel (out_h even and the tail inside the first 2·pw columns,
    // or narrow rows): those bits only come from the slab. Otherwise each
    // image's plain output goes into a per-thread plane, then the shared
    // pool: by construction the bits of conv + MaxPool2d.
    bool reads_tail = false;
    for (std::int64_t q = n - tail; q < n; ++q) {
      reads_tail |= q / out_w < 2 * ph && q % out_w < 2 * pw;
    }
#if SNE_GEMM_X86
    if (direct && !reads_tail) {
      const std::int64_t* koff = conv_tap_offsets(channels, height, width,
                                                  kernel);
      for (std::int64_t i = 0; i < batch; ++i) {
        conv_image_avx512(out_channels, k, koff, image + i * chw, width, out_h,
                          out_w, true, ph * pw, weight, epilogue,
                          out + i * out_channels * ph * pw);
      }
      return;
    }
#endif
    thread_local std::vector<float> plane;  // grow-only
    plane.resize(static_cast<std::size_t>(out_stride));
    for (std::int64_t i = 0; i < batch; ++i) {
      sconv_serial(1, image + i * chw, channels, height, width, kernel, pad,
                   stride, weight, out_channels, plane.data(), epilogue);
      maxpool_2x2(plane.data(), out_channels, out_h, out_w,
                  out + i * out_channels * ph * pw);
    }
    return;
  }

  if (kernel == 1 && stride == 1 && pad == 0) {
    for (std::int64_t i = 0; i < batch; ++i) {
      sgemm_serial(out_channels, n, k, weight, image + i * chw, 0.0f,
                   out + i * out_stride, epilogue);
    }
    return;
  }

#if SNE_GEMM_X86
  if (direct) {
    const std::int64_t* koff = conv_tap_offsets(channels, height, width,
                                                kernel);
    // Grow-only: the tail's columns, then its m × tail outputs.
    thread_local std::vector<float> slab;
    slab.resize(static_cast<std::size_t>((k + out_channels) * tail));
    float* tail_cols = slab.data();
    float* tail_out = tail_cols + k * tail;
    for (std::int64_t i = 0; i < batch; ++i) {
      const float* img = image + i * chw;
      float* dst = out + i * out_stride;
      conv_image_avx512(out_channels, k, koff, img, width, out_h, out_w, false,
                        n, weight, epilogue, dst);
      if (tail == 0) continue;
      for (std::int64_t l = 0; l < tail; ++l) {
        const std::int64_t q = n - tail + l;
        const float* at = img + q / out_w * width + q % out_w;
        for (std::int64_t p = 0; p < k; ++p) {
          tail_cols[p * tail + l] = at[koff[p]];
        }
      }
      sgemm_serial(out_channels, tail, k, weight, tail_cols, 0.0f,
                   tail_out, epilogue);
      for (std::int64_t r = 0; r < out_channels; ++r) {
        std::copy(tail_out + r * tail, tail_out + (r + 1) * tail,
                  dst + r * n + n - tail);
      }
    }
    return;
  }
#endif

  thread_local std::vector<float> cols;
  cols.resize(static_cast<std::size_t>(k * n));
  for (std::int64_t i = 0; i < batch; ++i) {
    im2col(image + i * chw, channels, height, width, kernel, kernel, pad,
           stride, cols.data());
    sgemm_serial(out_channels, n, k, weight, cols.data(), 0.0f,
                 out + i * out_stride, epilogue);
  }
}

void igemm_serial(std::int64_t m, std::int64_t n, std::int64_t k,
                  const std::int8_t* a, const std::int8_t* b, float* c,
                  const IgemmEpilogue& epilogue) {
  igemm_check(k, epilogue);
  if (m == 0 || n == 0) return;

#if SNE_GEMM_X86
  if (gemm_tier() == GemmTier::Avx2Fma) {
    // Exact integer accumulation either way, so the same bits; chosen once.
    // The pre-pack scratch grows once per thread and is then reused.
    using RowsKernel = decltype(&igemm_rows_avx2);
    static const RowsKernel kernel =
        cpu_has_avx512_vnni() ? igemm_rows_vnni : igemm_rows_avx2;
    thread_local std::vector<std::int32_t> apack;
    thread_local std::vector<std::int16_t> bpack;
    kernel(m, n, k, a, b, c, epilogue, apack, bpack);
    return;
  }
#endif
  igemm_rows_scalar(m, n, k, a, b, c, epilogue);
}

void iconv_serial(const std::int8_t* image, std::int64_t channels,
                  std::int64_t height, std::int64_t width, std::int64_t kernel,
                  std::int64_t pad, std::int64_t stride,
                  const std::int8_t* weight, std::int64_t out_channels,
                  float* out, const IgemmEpilogue& epilogue) {
  const std::int64_t out_w = conv_out_extent(width, kernel, pad, stride);
  const std::int64_t n = conv_out_extent(height, kernel, pad, stride) * out_w;
  const std::int64_t k = channels * kernel * kernel;

  if (kernel == 1 && stride == 1 && pad == 0) {
    igemm_serial(out_channels, n, k, weight, image, out, epilogue);
    return;
  }

#if SNE_GEMM_X86
  // The same kernel igemm_serial picks on this host, fed straight from the
  // image; exact integer accumulation needs no shape gate.
  static const bool has_vnni = cpu_has_avx512_vnni();
  if (has_vnni && gemm_tier() == GemmTier::Avx2Fma && stride == 1 &&
      pad == 0) {
    igemm_check(k, epilogue);
    iconv_image_vnni(image, conv_tap_offsets(channels, height, width, kernel),
                     width, out_w, n, k, weight, out_channels, out, epilogue);
    return;
  }
#endif

  thread_local std::vector<std::int8_t> cols;
  cols.resize(static_cast<std::size_t>(k * n));
  im2col_i8(image, channels, height, width, kernel, kernel, pad, stride,
            cols.data());
  igemm_serial(out_channels, n, k, weight, cols.data(), out, epilogue);
}

void sgemm_at(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
              const float* b, float beta, float* c) {
  // A is stored k×m; transpose blocks of A into a row-major panel, then
  // reuse the same inner kernel.
  scale_c(m, n, beta, c);
  if (m == 0 || n == 0 || k == 0) return;

  // Same parallel decomposition as sgemm: independent row panels of C,
  // per-thread transpose scratch, serial k accumulation within a panel.
  const BlockKernel kernel = active_block_kernel();
  const std::int64_t num_panels = (m + kBlockM - 1) / kBlockM;
  parallel_for(0, num_panels, [&](std::int64_t panel) {
    thread_local std::vector<float> a_panel;
    const std::int64_t i0 = panel * kBlockM;
    const std::int64_t mb = std::min(kBlockM, m - i0);
    for (std::int64_t p0 = 0; p0 < k; p0 += kBlockK) {
      const std::int64_t kb = std::min(kBlockK, k - p0);
      a_panel.assign(static_cast<std::size_t>(mb * kb), 0.0f);
      for (std::int64_t p = 0; p < kb; ++p) {
        const float* src = a + (p0 + p) * m + i0;
        for (std::int64_t i = 0; i < mb; ++i) {
          a_panel[static_cast<std::size_t>(i * kb + p)] = src[i];
        }
      }
      for (std::int64_t j0 = 0; j0 < n; j0 += kBlockN) {
        const std::int64_t nb = std::min(kBlockN, n - j0);
        kernel(mb, nb, kb, a_panel.data(), kb, b + p0 * n + j0, n,
               c + i0 * n + j0, n);
      }
    }
  });
}

void sgemm_bt(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
              const float* b, float beta, float* c) {
  // B is stored n×k; with B transposed both operands stream along k, so a
  // dot-product kernel is the cache-friendly choice.
  scale_c(m, n, beta, c);
  if (m == 0 || n == 0 || k == 0) return;

#if SNE_GEMM_X86
  // The same two double chains per output as the loop below, sixteen
  // outputs at a time, so the bits agree.
  if (gemm_tier() == GemmTier::Avx2Fma) {
    sgemm_bt_avx2(m, n, k, a, b, c);
    return;
  }
#endif

  for (std::int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * k;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* bj = b + j * k;
      double acc0 = 0.0, acc1 = 0.0;
      std::int64_t p = 0;
      for (; p + 2 <= k; p += 2) {
        acc0 += static_cast<double>(ai[p]) * bj[p];
        acc1 += static_cast<double>(ai[p + 1]) * bj[p + 1];
      }
      if (p < k) acc0 += static_cast<double>(ai[p]) * bj[p];
      c[i * n + j] += static_cast<float>(chain_sum(acc0, acc1));
    }
  }
}

namespace {

// The deepest serving stamps lower to runs of ~16 elements per output
// row; for byte elements the libcall overhead of memmove/memset swamps
// the copy itself, so route short byte runs through inline word-sized
// chunks. Fixed-size memcpy compiles to plain loads/stores.
inline void copy_run(const std::int8_t* src, std::int64_t len,
                     std::int8_t* dst) {
  while (len >= 8) {
    std::uint64_t v;
    std::memcpy(&v, src, 8);
    std::memcpy(dst, &v, 8);
    src += 8;
    dst += 8;
    len -= 8;
  }
  while (len > 0) {
    *dst++ = *src++;
    --len;
  }
}

inline void copy_run(const float* src, std::int64_t len, float* dst) {
  std::copy(src, src + len, dst);
}

// One traversal for both element types: the f32 instantiation is the
// historical im2col unchanged (same loops, same zero padding — the fp32
// path's bytes may not move), the int8 instantiation is the quantized
// serving variant.
template <typename T>
void im2col_impl(const T* image, std::int64_t channels, std::int64_t height,
                 std::int64_t width, std::int64_t kh, std::int64_t kw,
                 std::int64_t pad, std::int64_t stride, T* columns) {
  const std::int64_t out_h = conv_out_extent(height, kh, pad, stride);
  const std::int64_t out_w = conv_out_extent(width, kw, pad, stride);
  const std::int64_t out_hw = out_h * out_w;

  for (std::int64_t c = 0; c < channels; ++c) {
    const T* img_c = image + c * height * width;
    for (std::int64_t ky = 0; ky < kh; ++ky) {
      for (std::int64_t kx = 0; kx < kw; ++kx) {
        T* col_row = columns + ((c * kh + ky) * kw + kx) * out_hw;
        if (stride == 1) {
          // ix = ox + kx - pad is monotone: the in-bounds span is one
          // contiguous run, so each row is fill / copy / fill — the
          // same values the generic loop writes, minus the per-element
          // bounds checks (which the compiler cannot elide for narrow
          // element types). The run bounds do not depend on the output
          // row, so they hoist out of the row loop.
          const std::int64_t x0 = std::max<std::int64_t>(0, pad - kx);
          const std::int64_t x1 =
              std::min<std::int64_t>(out_w, width + pad - kx);
          const std::int64_t lead = std::min(x0, out_w);
          const std::int64_t run = x0 < x1 ? x1 - x0 : 0;
          const std::int64_t tail0 = std::max(x1, x0);
          for (std::int64_t oy = 0; oy < out_h; ++oy) {
            const std::int64_t iy = oy + ky - pad;
            T* dst = col_row + oy * out_w;
            if (iy < 0 || iy >= height) {
              std::fill(dst, dst + out_w, T{0});
              continue;
            }
            if (lead > 0) std::fill(dst, dst + lead, T{0});
            if (run > 0) copy_run(img_c + iy * width + x0 + kx - pad, run,
                                  dst + x0);
            if (tail0 < out_w) std::fill(dst + tail0, dst + out_w, T{0});
          }
          continue;
        }
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          const std::int64_t iy = oy * stride + ky - pad;
          T* dst = col_row + oy * out_w;
          if (iy < 0 || iy >= height) {
            std::fill(dst, dst + out_w, T{0});
            continue;
          }
          const T* src_row = img_c + iy * width;
          for (std::int64_t ox = 0; ox < out_w; ++ox) {
            const std::int64_t ix = ox * stride + kx - pad;
            dst[ox] = (ix >= 0 && ix < width) ? src_row[ix] : T{0};
          }
        }
      }
    }
  }
}

}  // namespace

void im2col(const float* image, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t pad, std::int64_t stride, float* columns) {
  im2col_impl(image, channels, height, width, kh, kw, pad, stride, columns);
}

void im2col_i8(const std::int8_t* image, std::int64_t channels,
               std::int64_t height, std::int64_t width, std::int64_t kh,
               std::int64_t kw, std::int64_t pad, std::int64_t stride,
               std::int8_t* columns) {
  im2col_impl(image, channels, height, width, kh, kw, pad, stride, columns);
}

void col2im(const float* columns, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t pad, std::int64_t stride, float* image) {
  const std::int64_t out_h = conv_out_extent(height, kh, pad, stride);
  const std::int64_t out_w = conv_out_extent(width, kw, pad, stride);
  const std::int64_t out_hw = out_h * out_w;

  for (std::int64_t c = 0; c < channels; ++c) {
    float* img_c = image + c * height * width;
    for (std::int64_t ky = 0; ky < kh; ++ky) {
      for (std::int64_t kx = 0; kx < kw; ++kx) {
        const float* col_row = columns + ((c * kh + ky) * kw + kx) * out_hw;
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          const std::int64_t iy = oy * stride + ky - pad;
          if (iy < 0 || iy >= height) continue;
          const float* src = col_row + oy * out_w;
          float* dst_row = img_c + iy * width;
          for (std::int64_t ox = 0; ox < out_w; ++ox) {
            const std::int64_t ix = ox * stride + kx - pad;
            if (ix >= 0 && ix < width) dst_row[ix] += src[ox];
          }
        }
      }
    }
  }
}

}  // namespace sne
