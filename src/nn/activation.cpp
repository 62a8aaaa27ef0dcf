#include "nn/activation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace sne::nn {

PReLU::PReLU(std::int64_t channels, float init_slope, std::string name)
    : channels_(channels),
      slope_(name + ".slope", Tensor({channels}, init_slope)) {
  if (channels <= 0) {
    throw std::invalid_argument("PReLU: channels must be positive");
  }
}

Tensor PReLU::forward(const Tensor& x) {
  if (x.rank() < 2 || x.extent(1) != channels_) {
    throw std::invalid_argument("PReLU: axis-1 extent must be " +
                                std::to_string(channels_) + ", got " +
                                x.shape_string());
  }
  cached_input_ = x;
  const std::int64_t n = x.extent(0);
  const std::int64_t spatial = x.size() / (n * channels_);
  Tensor y(x.shape());
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float a = slope_.value[c];
      const float* src = x.data() + (i * channels_ + c) * spatial;
      float* dst = y.data() + (i * channels_ + c) * spatial;
      for (std::int64_t p = 0; p < spatial; ++p) {
        dst[p] = src[p] > 0.0f ? src[p] : a * src[p];
      }
    }
  }
  return y;
}

void PReLU::infer_into(ConstTensorView x, Tensor& out) const {
  if (x.rank() < 2 || x.extent(1) != channels_) {
    throw std::invalid_argument("PReLU: axis-1 extent must be " +
                                std::to_string(channels_) + ", got " +
                                x.shape_string());
  }
  const std::int64_t n = x.extent(0);
  const std::int64_t spatial = x.size() / (n * channels_);
  out.resize(x.shape());
  if (spatial == 1) {
    // [N, C] (the FC stages): one select per element along each row's
    // contiguous channels, so the loop vectorizes.
    const float* slope = slope_.value.data();
    for (std::int64_t i = 0; i < n; ++i) {
      const float* src = x.data() + i * channels_;
      float* dst = out.data() + i * channels_;
      for (std::int64_t c = 0; c < channels_; ++c) {
        dst[c] = src[c] > 0.0f ? src[c] : slope[c] * src[c];
      }
    }
    return;
  }
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float a = slope_.value[c];
      const float* src = x.data() + (i * channels_ + c) * spatial;
      float* dst = out.data() + (i * channels_ + c) * spatial;
      for (std::int64_t p = 0; p < spatial; ++p) {
        dst[p] = src[p] > 0.0f ? src[p] : a * src[p];
      }
    }
  }
}

Tensor PReLU::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) {
    throw std::logic_error("PReLU::backward before forward");
  }
  check_same_shape(grad_output, cached_input_, "PReLU::backward");
  const std::int64_t n = cached_input_.extent(0);
  const std::int64_t spatial = cached_input_.size() / (n * channels_);
  Tensor grad_input(cached_input_.shape());
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float a = slope_.value[c];
      const float* xin = cached_input_.data() + (i * channels_ + c) * spatial;
      const float* gy = grad_output.data() + (i * channels_ + c) * spatial;
      float* gx = grad_input.data() + (i * channels_ + c) * spatial;
      double da = 0.0;
      for (std::int64_t p = 0; p < spatial; ++p) {
        if (xin[p] > 0.0f) {
          gx[p] = gy[p];
        } else {
          gx[p] = a * gy[p];
          da += static_cast<double>(gy[p]) * xin[p];
        }
      }
      slope_.grad[c] += static_cast<float>(da);
    }
  }
  return grad_input;
}

Tensor ReLU::forward(const Tensor& x) {
  cached_input_ = x;
  Tensor y(x.shape());
  for (std::int64_t i = 0; i < x.size(); ++i) {
    y[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }
  return y;
}

void ReLU::infer_into(ConstTensorView x, Tensor& out) const {
  out.resize(x.shape());
  const float* src = x.data();  // enforces a contiguous view
  for (std::int64_t i = 0; i < x.size(); ++i) {
    out[i] = src[i] > 0.0f ? src[i] : 0.0f;
  }
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) throw std::logic_error("ReLU::backward first");
  check_same_shape(grad_output, cached_input_, "ReLU::backward");
  Tensor grad_input(cached_input_.shape());
  for (std::int64_t i = 0; i < grad_output.size(); ++i) {
    grad_input[i] = cached_input_[i] > 0.0f ? grad_output[i] : 0.0f;
  }
  return grad_input;
}

Tensor Sigmoid::forward(const Tensor& x) {
  Tensor y(x.shape());
  for (std::int64_t i = 0; i < x.size(); ++i) {
    y[i] = 1.0f / (1.0f + std::exp(-x[i]));
  }
  cached_output_ = y;
  return y;
}

void Sigmoid::infer_into(ConstTensorView x, Tensor& out) const {
  out.resize(x.shape());
  const float* src = x.data();  // enforces a contiguous view
  for (std::int64_t i = 0; i < x.size(); ++i) {
    out[i] = 1.0f / (1.0f + std::exp(-src[i]));
  }
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  if (cached_output_.empty()) {
    throw std::logic_error("Sigmoid::backward before forward");
  }
  check_same_shape(grad_output, cached_output_, "Sigmoid::backward");
  Tensor grad_input(grad_output.shape());
  for (std::int64_t i = 0; i < grad_output.size(); ++i) {
    const float s = cached_output_[i];
    grad_input[i] = grad_output[i] * s * (1.0f - s);
  }
  return grad_input;
}

Tensor Tanh::forward(const Tensor& x) {
  Tensor y(x.shape());
  for (std::int64_t i = 0; i < x.size(); ++i) y[i] = std::tanh(x[i]);
  cached_output_ = y;
  return y;
}

void Tanh::infer_into(ConstTensorView x, Tensor& out) const {
  out.resize(x.shape());
  const float* src = x.data();  // enforces a contiguous view
  for (std::int64_t i = 0; i < x.size(); ++i) out[i] = std::tanh(src[i]);
}

Tensor Tanh::backward(const Tensor& grad_output) {
  if (cached_output_.empty()) {
    throw std::logic_error("Tanh::backward before forward");
  }
  check_same_shape(grad_output, cached_output_, "Tanh::backward");
  Tensor grad_input(grad_output.shape());
  for (std::int64_t i = 0; i < grad_output.size(); ++i) {
    const float t = cached_output_[i];
    grad_input[i] = grad_output[i] * (1.0f - t * t);
  }
  return grad_input;
}

Tensor Flatten::forward(const Tensor& x) {
  if (x.rank() < 2) {
    throw std::invalid_argument("Flatten: rank must be >= 2");
  }
  cached_shape_ = x.shape();
  return x.reshaped({x.extent(0), -1});
}

Tensor Flatten::forward_moved(Tensor&& x) {
  if (x.rank() < 2) {
    throw std::invalid_argument("Flatten: rank must be >= 2");
  }
  cached_shape_ = x.shape();
  return std::move(x).reshaped({cached_shape_[0], -1});
}

Tensor Flatten::backward_moved(Tensor&& grad_output) {
  if (cached_shape_.empty()) {
    throw std::logic_error("Flatten::backward before forward");
  }
  return std::move(grad_output).reshaped(cached_shape_);
}

void Flatten::infer_into(ConstTensorView x, Tensor& out) const {
  if (x.rank() < 2) {
    throw std::invalid_argument("Flatten: rank must be >= 2");
  }
  out.resize({x.extent(0), x.size() / x.extent(0)});
  std::copy(x.data(), x.data() + x.size(), out.data());
}

Shape Flatten::infer_shape(const Shape& in) const {
  if (in.size() < 2) {
    throw std::invalid_argument("Flatten: rank must be >= 2");
  }
  std::int64_t rest = 1;
  for (std::size_t a = 1; a < in.size(); ++a) rest *= in[a];
  return {in[0], rest};
}

Tensor Flatten::backward(const Tensor& grad_output) {
  if (cached_shape_.empty()) {
    throw std::logic_error("Flatten::backward before forward");
  }
  return grad_output.reshaped(cached_shape_);
}

}  // namespace sne::nn
