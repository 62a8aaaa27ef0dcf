// pooling.h — spatial pooling. The paper singles out 2×2 max pooling as
// "the most important" component of the band-wise CNN, because every
// observation cutout contains at most one supernova: max pooling makes the
// magnitude estimate translation-tolerant to the SN position within the
// host ellipse. AvgPool2d exists for the ablation bench that tests that
// claim.
#pragma once

#include <vector>

#include "nn/module.h"

namespace sne::nn {

/// Max pooling over non-overlapping (stride = kernel) or strided windows.
/// Input [N, C, H, W] → [N, C, H', W'].
class MaxPool2d final : public Module {
 public:
  explicit MaxPool2d(std::int64_t kernel, std::int64_t stride = 0);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_output) override;
  void infer_into(ConstTensorView x, Tensor& out) const override;
  Shape infer_shape(const Shape& in) const override;

  std::int64_t kernel() const noexcept { return kernel_; }
  std::int64_t stride() const noexcept { return stride_; }

 private:
  std::int64_t kernel_;
  std::int64_t stride_;
  Shape cached_in_shape_;
  std::vector<std::int64_t> argmax_;  // flat input index per output element
};

/// Average pooling with the same window semantics as MaxPool2d.
class AvgPool2d final : public Module {
 public:
  explicit AvgPool2d(std::int64_t kernel, std::int64_t stride = 0);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_output) override;
  void infer_into(ConstTensorView x, Tensor& out) const override;
  Shape infer_shape(const Shape& in) const override;

 private:
  std::int64_t kernel_;
  std::int64_t stride_;
  Shape cached_in_shape_;
};

}  // namespace sne::nn
