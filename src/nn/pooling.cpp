#include "nn/pooling.h"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "tensor/pool.h"

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
  // The serving-shaped window (2x2, stride 2) is the tensor layer's pool,
  // which sconv_serial's pooled output shares (see tensor/pool.h).
  if (kernel_ == 2 && stride_ == 2) {
    maxpool_2x2(x.data(), n * c, h, w, out.data());
    return;
  }
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
