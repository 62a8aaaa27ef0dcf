// qtensor.h — the int8 side of the tensor layer. A QTensor is the
// minimal dtype break from the f32-only Tensor: a row-major int8 payload
// plus one f32 dequantization scale per leading-axis slice ("channel").
// Quantization is symmetric (no zero point): q = round(x / scale)
// saturated to [-127, 127], x ≈ q · scale, with scale chosen per channel
// as max|x_c| / 127 so the representable range exactly covers the data.
// Symmetric quantization keeps the s8×s8 GEMM a plain integer dot
// product (no zero-point correction terms), which is what makes the
// igemm kernels in gemm.h bitwise reproducible.
//
// -127 (not -128) is deliberate: the range stays symmetric, so
// quantizing -x always yields -q(x) and the AVX2 kernel never needs the
// asymmetric-corner special case.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace sne {

/// Largest-magnitude element of x[0..n). 0 for n == 0. NaNs propagate
/// (the caller decides how to treat a non-finite range).
float max_abs(const float* x, std::int64_t n) noexcept;

/// Quantizes n floats with a fixed scale: out[i] = clamp(round(x[i] *
/// inv_scale), -127, 127). Round is to-nearest-even (lrintf under the
/// default rounding mode); the same scalar loop serves every tier, so
/// quantized bytes never depend on the kernel dispatch. Non-finite
/// inputs saturate (NaN quantizes to 0).
void quantize_into(const float* x, std::int64_t n, float inv_scale,
                   std::int8_t* out) noexcept;

/// Dense row-major int8 tensor with per-channel (axis 0) dequantization
/// scales. `data.size() == numel(shape)` and `scales` is [shape[0]].
/// Like Tensor it owns its storage; unlike Tensor it is a plain struct —
/// the int8 path needs exactly "bytes plus scales", nothing more.
struct QTensor {
  Shape shape;
  std::vector<std::int8_t> data;
  Tensor scales;  ///< [shape[0]] f32 dequant scales, one per channel

  std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(data.size());
  }
  bool empty() const noexcept { return data.empty(); }
  std::int64_t channels() const noexcept {
    return shape.empty() ? 0 : shape[0];
  }
};

/// Symmetric per-channel quantization along axis 0. For each channel c,
/// scale_c = max|t[c, ...]| / 127 (1.0 for an all-zero channel so
/// dequantization stays well-defined) and the payload is
/// quantize_into(t[c, ...], 127 / max|t[c, ...]|). Throws on rank 0 and
/// on non-finite input (a NaN/Inf weight has no meaningful int8 image).
QTensor quantize_per_channel(const Tensor& t);

}  // namespace sne
