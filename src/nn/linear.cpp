#include "nn/linear.h"

#include <cmath>
#include <stdexcept>

#include "tensor/gemm.h"

namespace sne::nn {

namespace {

Tensor kaiming_uniform(std::int64_t out, std::int64_t in, Rng& rng) {
  const float bound = std::sqrt(6.0f / static_cast<float>(in));
  return Tensor::rand_uniform({out, in}, rng, -bound, bound);
}

}  // namespace

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
               std::string name)
    : in_(in_features),
      out_(out_features),
      weight_(name + ".weight", kaiming_uniform(out_features, in_features, rng)),
      bias_(name + ".bias", Tensor({out_features})) {
  if (in_features <= 0 || out_features <= 0) {
    throw std::invalid_argument("Linear: feature counts must be positive");
  }
}

Tensor Linear::forward(const Tensor& x) {
  if (x.rank() != 2 || x.extent(1) != in_) {
    throw std::invalid_argument("Linear::forward: expected [N, " +
                                std::to_string(in_) + "], got " +
                                x.shape_string());
  }
  cached_input_ = x;
  const std::int64_t n = x.extent(0);
  Tensor y({n, out_});
  // y = x[N,in] · Wᵀ (W is [out,in]).
  sgemm_bt(n, out_, in_, x.data(), weight_.value.data(), 0.0f, y.data());
  for (std::int64_t i = 0; i < n; ++i) {
    float* row = y.data() + i * out_;
    for (std::int64_t j = 0; j < out_; ++j) row[j] += bias_.value[j];
  }
  return y;
}

void Linear::infer_into(ConstTensorView x, Tensor& out) const {
  if (x.rank() != 2 || x.extent(1) != in_) {
    throw std::invalid_argument("Linear::infer_into: expected [N, " +
                                std::to_string(in_) + "], got " +
                                x.shape_string());
  }
  const std::int64_t n = x.extent(0);
  out.resize({n, out_});
  // sgemm_bt runs on the calling thread and allocates nothing once its
  // per-thread operand strip has grown (the session's warmup run grows
  // it), so this stays within the inference path's zero-allocation
  // contract.
  sgemm_bt(n, out_, in_, x.data(), weight_.value.data(), 0.0f,
           out.data());
  for (std::int64_t i = 0; i < n; ++i) {
    float* row = out.data() + i * out_;
    for (std::int64_t j = 0; j < out_; ++j) row[j] += bias_.value[j];
  }
}

Shape Linear::infer_shape(const Shape& in) const {
  if (in.size() != 2 || in[1] != in_) {
    throw std::invalid_argument("Linear::infer_shape: bad input shape");
  }
  return {in[0], out_};
}

Tensor Linear::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) {
    throw std::logic_error("Linear::backward before forward");
  }
  const std::int64_t n = cached_input_.extent(0);
  if (grad_output.rank() != 2 || grad_output.extent(0) != n ||
      grad_output.extent(1) != out_) {
    throw std::invalid_argument("Linear::backward: bad grad shape " +
                                grad_output.shape_string());
  }

  // dW[out,in] += gyᵀ[out,N] · x[N,in]
  sgemm_at(out_, in_, n, grad_output.data(), cached_input_.data(), 1.0f,
           weight_.grad.data());
  // db[out] += column sums of gy
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = grad_output.data() + i * out_;
    for (std::int64_t j = 0; j < out_; ++j) bias_.grad[j] += row[j];
  }
  // dx[N,in] = gy[N,out] · W[out,in]
  Tensor grad_input({n, in_});
  sgemm(n, in_, out_, grad_output.data(), weight_.value.data(), 0.0f,
        grad_input.data());
  return grad_input;
}

}  // namespace sne::nn
