#include "nn/pooling.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "tensor/gemm.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define SNE_POOL_X86 1
#else
#define SNE_POOL_X86 0
#endif

namespace sne::nn {

namespace {

void check_pool_input(ConstTensorView x, std::int64_t kernel) {
  if (x.rank() != 4) {
    throw std::invalid_argument("pooling: expected [N, C, H, W], got " +
                                x.shape_string());
  }
  if (x.extent(2) < kernel || x.extent(3) < kernel) {
    throw std::invalid_argument("pooling: window larger than input");
  }
}

std::int64_t pooled_extent(std::int64_t in, std::int64_t kernel,
                           std::int64_t stride) {
  return (in - kernel) / stride + 1;
}

#if SNE_POOL_X86

// One fold step of the scalar update rule, per lane:
//   take v when (v > best, ordered) or (best is NaN and v is not).
// _CMP_GT_OQ is false whenever either operand is NaN — exactly like the
// scalar `v > best` — so the blend reproduces the scalar result bit for
// bit, including the all-NaN window and the first-seen-zero tie cases.
__attribute__((target("avx2"))) inline __m256 pool_fold_avx2(__m256 best,
                                                             __m256 v) {
  const __m256 gt = _mm256_cmp_ps(v, best, _CMP_GT_OQ);
  const __m256 nan_best = _mm256_cmp_ps(best, best, _CMP_UNORD_Q);
  const __m256 ord_v = _mm256_cmp_ps(v, v, _CMP_ORD_Q);
  return _mm256_blendv_ps(best, v, _mm256_or_ps(gt, _mm256_and_ps(nan_best, ord_v)));
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

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride)
    : kernel_(kernel), stride_(stride == 0 ? kernel : stride) {
  if (kernel <= 0 || stride_ <= 0) {
    throw std::invalid_argument("MaxPool2d: invalid window");
  }
}

Tensor MaxPool2d::forward(const Tensor& x) {
  check_pool_input(x, kernel_);
  const std::int64_t n = x.extent(0);
  const std::int64_t c = x.extent(1);
  const std::int64_t h = x.extent(2);
  const std::int64_t w = x.extent(3);
  const std::int64_t oh = pooled_extent(h, kernel_, stride_);
  const std::int64_t ow = pooled_extent(w, kernel_, stride_);

  cached_in_shape_ = x.shape();
  Tensor y({n, c, oh, ow});
  argmax_.assign(static_cast<std::size_t>(y.size()), 0);

  std::int64_t out = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = x.data() + (i * c + ch) * h * w;
      const std::int64_t plane_base = (i * c + ch) * h * w;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox, ++out) {
          // Seed the argmax with the window's own first element so the
          // gradient can never escape the window: with a -inf seed and
          // best_idx = 0, an all-NaN window would route its gradient to
          // global element 0 of the input — a cross-sample leak. NaN
          // candidates are skipped (they never win), a NaN seed is
          // replaced by the first finite candidate, and an all-NaN
          // window propagates NaN from its first element.
          const std::int64_t first = oy * stride_ * w + ox * stride_;
          float best = plane[first];
          std::int64_t best_idx = plane_base + first;
          for (std::int64_t ky = 0; ky < kernel_; ++ky) {
            const std::int64_t iy = oy * stride_ + ky;
            for (std::int64_t kx = 0; kx < kernel_; ++kx) {
              const std::int64_t ix = ox * stride_ + kx;
              const float v = plane[iy * w + ix];
              if (v > best || (std::isnan(best) && !std::isnan(v))) {
                best = v;
                best_idx = plane_base + iy * w + ix;
              }
            }
          }
          y[out] = best;
          argmax_[static_cast<std::size_t>(out)] = best_idx;
        }
      }
    }
  }
  return y;
}

void MaxPool2d::infer_into(ConstTensorView x, Tensor& out) const {
  check_pool_input(x, kernel_);
  const std::int64_t n = x.extent(0);
  const std::int64_t c = x.extent(1);
  const std::int64_t h = x.extent(2);
  const std::int64_t w = x.extent(3);
  const std::int64_t oh = pooled_extent(h, kernel_, stride_);
  const std::int64_t ow = pooled_extent(w, kernel_, stride_);

  out.resize({n, c, oh, ow});
#if SNE_POOL_X86
  // The serving-shaped window (2x2, stride 2) takes a vector pool: plane
  // by plane when a plane has at least 8 output columns, else across
  // planes (whose int32 gather offsets span up to 8 planes). Both are
  // bitwise identical to the scalar walk below (see pool_fold_avx2) and
  // pinned against it by the dispatch test.
  if (kernel_ == 2 && stride_ == 2 && gemm_tier() == GemmTier::Avx2Fma) {
    if (ow >= 8) {
      for (std::int64_t p = 0; p < n * c; ++p) {
        maxpool_2x2_avx2(x.data() + p * h * w, w, oh, ow,
                         out.data() + p * oh * ow);
      }
      return;
    }
    if (8 * h * w <= INT32_MAX) {
      maxpool_2x2_narrow_avx2(x.data(), n * c, h, w, oh, ow, out.data());
      return;
    }
  }
#endif
  // Same window walk and NaN semantics as forward, without the argmax
  // bookkeeping backward needs.
  std::int64_t o = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = x.data() + (i * c + ch) * h * w;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox, ++o) {
          float best = plane[oy * stride_ * w + ox * stride_];
          for (std::int64_t ky = 0; ky < kernel_; ++ky) {
            const float* row = plane + (oy * stride_ + ky) * w + ox * stride_;
            for (std::int64_t kx = 0; kx < kernel_; ++kx) {
              const float v = row[kx];
              if (v > best || (std::isnan(best) && !std::isnan(v))) best = v;
            }
          }
          out[o] = best;
        }
      }
    }
  }
}

Shape MaxPool2d::infer_shape(const Shape& in) const {
  if (in.size() != 4) {
    throw std::invalid_argument("MaxPool2d::infer_shape: bad input shape");
  }
  // Same validation as the execution paths (check_pool_input): the
  // planner's AOT shape walk must reject a window larger than the input
  // rather than plan a non-positive extent.
  if (in[2] < kernel_ || in[3] < kernel_) {
    throw std::invalid_argument(
        "MaxPool2d::infer_shape: window larger than input");
  }
  return {in[0], in[1], pooled_extent(in[2], kernel_, stride_),
          pooled_extent(in[3], kernel_, stride_)};
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  if (cached_in_shape_.empty()) {
    throw std::logic_error("MaxPool2d::backward before forward");
  }
  if (grad_output.size() != static_cast<std::int64_t>(argmax_.size())) {
    throw std::invalid_argument("MaxPool2d::backward: bad grad shape " +
                                grad_output.shape_string());
  }
  Tensor grad_input(cached_in_shape_);
  for (std::int64_t out = 0; out < grad_output.size(); ++out) {
    grad_input[argmax_[static_cast<std::size_t>(out)]] += grad_output[out];
  }
  return grad_input;
}

AvgPool2d::AvgPool2d(std::int64_t kernel, std::int64_t stride)
    : kernel_(kernel), stride_(stride == 0 ? kernel : stride) {
  if (kernel <= 0 || stride_ <= 0) {
    throw std::invalid_argument("AvgPool2d: invalid window");
  }
}

Tensor AvgPool2d::forward(const Tensor& x) {
  check_pool_input(x, kernel_);
  const std::int64_t n = x.extent(0);
  const std::int64_t c = x.extent(1);
  const std::int64_t h = x.extent(2);
  const std::int64_t w = x.extent(3);
  const std::int64_t oh = pooled_extent(h, kernel_, stride_);
  const std::int64_t ow = pooled_extent(w, kernel_, stride_);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);

  cached_in_shape_ = x.shape();
  Tensor y({n, c, oh, ow});
  std::int64_t out = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = x.data() + (i * c + ch) * h * w;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox, ++out) {
          float s = 0.0f;
          for (std::int64_t ky = 0; ky < kernel_; ++ky) {
            const float* row = plane + (oy * stride_ + ky) * w + ox * stride_;
            for (std::int64_t kx = 0; kx < kernel_; ++kx) s += row[kx];
          }
          y[out] = s * inv;
        }
      }
    }
  }
  return y;
}

void AvgPool2d::infer_into(ConstTensorView x, Tensor& out) const {
  check_pool_input(x, kernel_);
  const std::int64_t n = x.extent(0);
  const std::int64_t c = x.extent(1);
  const std::int64_t h = x.extent(2);
  const std::int64_t w = x.extent(3);
  const std::int64_t oh = pooled_extent(h, kernel_, stride_);
  const std::int64_t ow = pooled_extent(w, kernel_, stride_);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);

  out.resize({n, c, oh, ow});
  std::int64_t o = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = x.data() + (i * c + ch) * h * w;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox, ++o) {
          float s = 0.0f;
          for (std::int64_t ky = 0; ky < kernel_; ++ky) {
            const float* row = plane + (oy * stride_ + ky) * w + ox * stride_;
            for (std::int64_t kx = 0; kx < kernel_; ++kx) s += row[kx];
          }
          out[o] = s * inv;
        }
      }
    }
  }
}

Shape AvgPool2d::infer_shape(const Shape& in) const {
  if (in.size() != 4) {
    throw std::invalid_argument("AvgPool2d::infer_shape: bad input shape");
  }
  if (in[2] < kernel_ || in[3] < kernel_) {
    throw std::invalid_argument(
        "AvgPool2d::infer_shape: window larger than input");
  }
  return {in[0], in[1], pooled_extent(in[2], kernel_, stride_),
          pooled_extent(in[3], kernel_, stride_)};
}

Tensor AvgPool2d::backward(const Tensor& grad_output) {
  if (cached_in_shape_.empty()) {
    throw std::logic_error("AvgPool2d::backward before forward");
  }
  const std::int64_t n = cached_in_shape_[0];
  const std::int64_t c = cached_in_shape_[1];
  const std::int64_t h = cached_in_shape_[2];
  const std::int64_t w = cached_in_shape_[3];
  const std::int64_t oh = pooled_extent(h, kernel_, stride_);
  const std::int64_t ow = pooled_extent(w, kernel_, stride_);
  if (grad_output.rank() != 4 || grad_output.extent(0) != n ||
      grad_output.extent(1) != c || grad_output.extent(2) != oh ||
      grad_output.extent(3) != ow) {
    throw std::invalid_argument("AvgPool2d::backward: bad grad shape");
  }
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);

  Tensor grad_input(cached_in_shape_);
  std::int64_t out = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      float* plane = grad_input.data() + (i * c + ch) * h * w;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox, ++out) {
          const float g = grad_output[out] * inv;
          for (std::int64_t ky = 0; ky < kernel_; ++ky) {
            float* row = plane + (oy * stride_ + ky) * w + ox * stride_;
            for (std::int64_t kx = 0; kx < kernel_; ++kx) row[kx] += g;
          }
        }
      }
    }
  }
  return grad_input;
}

}  // namespace sne::nn
