// conv2d.h — 2-d convolution, the workhorse of the paper's band-wise CNN
// (three 5×5 convolution stages, Fig. 7). Training lowers it to im2col +
// GEMM, the standard lowering on CPU. Serving (infer_with) calls
// sconv_serial, which on AVX-512F hosts at the Avx2Fma tier convolves
// stride-1, unpadded inputs in place, without the column matrix, and
// lowers every other case through im2col + GEMM; both produce the same
// bits (see tensor/gemm.h). With the pool flag the same call writes the
// 2×2 max-pool of the output, bitwise equal to a MaxPool2d(2) after it —
// the inference plan sets it for each conv stage of the band-wise CNN.
// Quantized serving
// (infer_quantized) calls iconv_serial, which does the same for int8 on
// AVX-512 VNNI hosts at every stride-1, unpadded shape.
#pragma once

#include <vector>

#include "nn/module.h"
#include "tensor/gemm.h"
#include "tensor/rng.h"

namespace sne::nn {

/// Caller-owned scratch of the quantized conv path: the int8 image of the
/// current sample. Grow-only, so a serving session that reuses one across
/// run() calls stays allocation-free after warmup — this is the "int8
/// ping-pong arena" the InferenceSession sizes.
struct ConvInt8Scratch {
  std::vector<std::int8_t> input;
};

/// 2-d convolution: input [N, Cin, H, W] → output [N, Cout, H', W'] with
/// H' = (H + 2·pad − k)/stride + 1 (and likewise W').
class Conv2d final : public Module {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, Rng& rng, std::int64_t stride = 1,
         std::int64_t pad = 0, std::string name = "conv");

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_output) override;
  void infer_into(ConstTensorView x, Tensor& out) const override;
  Shape infer_shape(const Shape& in) const override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::vector<const Param*> params() const override {
    return {&weight_, &bias_};
  }

  /// infer_into with substituted parameters: the inference planner uses
  /// this to run a batch-norm-folded convolution through the layer's own
  /// kernel without mutating the trained weights. `weight` must be
  /// [Cout, Cin·k·k] and `bias` [Cout], like the layer's own parameters.
  /// When `prelu` is non-null it must be [Cout] per-channel PReLU slopes;
  /// they are applied in the GEMM epilogue, bitwise identical to running a
  /// separate PReLU pass over the conv output. With `pool_2x2`, `out`
  /// becomes [N, Cout, ⌊H'/2⌋, ⌊W'/2⌋], the 2×2/stride-2 max-pool of that
  /// output, bitwise equal to running MaxPool2d(2)::infer_into after it
  /// (H', W' ≥ 2). Runs sconv_serial, whose direct kernel (AVX-512F host,
  /// Avx2Fma tier, stride 1, no pad) reads the input in place and folds
  /// the pool windows in registers; it keeps the bits of im2col +
  /// sgemm_serial (see tensor/gemm.h). Serial and allocation-free after
  /// warmup.
  void infer_with(const Tensor& weight, const Tensor& bias, ConstTensorView x,
                  Tensor& out, const Tensor* prelu = nullptr,
                  bool pool_2x2 = false) const;

  /// Quantized inference: per sample, quantizes the f32 input with
  /// `input_inv_scale` (= 127 / calibrated max|x|) into `scratch`, then
  /// makes one iconv_serial call: the exact s8×s8→s32 convolution whose
  /// epilogue requantizes to f32 (per-channel scale), adds the bias and
  /// applies the fused PReLU — so the output tensor is f32 like every
  /// other step and downstream layers are oblivious to the precision.
  /// `qweight` is the per-channel-quantized weight payload [Cout, Cin·k·k]
  /// and `epilogue.scale` must carry input_scale · weight_scale[c] (the
  /// inference planner precomputes both). Same serial/zero-alloc
  /// contract as infer_with, with `scratch` holding the int8 image.
  void infer_quantized(const std::int8_t* qweight,
                       const IgemmEpilogue& epilogue, float input_inv_scale,
                       ConstTensorView x, Tensor& out,
                       ConvInt8Scratch& scratch) const;

  std::int64_t in_channels() const noexcept { return in_channels_; }
  std::int64_t out_channels() const noexcept { return out_channels_; }
  std::int64_t kernel() const noexcept { return kernel_; }
  /// 1×1/stride-1/no-pad: the im2col matrix equals the input sample, so
  /// both forward and inference feed the input straight to GEMM with no
  /// column buffer.
  bool is_pointwise() const noexcept {
    return kernel_ == 1 && stride_ == 1 && pad_ == 0;
  }
  const Param& weight() const noexcept { return weight_; }
  const Param& bias() const noexcept { return bias_; }

 private:
  std::int64_t in_channels_;
  std::int64_t out_channels_;
  std::int64_t kernel_;
  std::int64_t stride_;
  std::int64_t pad_;
  Param weight_;  // [Cout, Cin·k·k]
  Param bias_;    // [Cout]
  Shape cached_in_shape_;  // backward needs only the forward input's shape
  Tensor cached_columns_;  // im2col of the whole batch: [N, Cin·k·k, H'·W']
                           // (empty on the 1×1 fast path)
  Tensor cached_input_;    // 1×1 fast path: the input doubles as the column
                           // matrix, so backward caches it instead
};

}  // namespace sne::nn
