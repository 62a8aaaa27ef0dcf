#include "nn/conv2d.h"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/qtensor.h"
#include "tensor/thread_pool.h"

namespace sne::nn {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, Rng& rng, std::int64_t stride,
               std::int64_t pad, std::string name)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(name + ".weight",
              Tensor({out_channels, in_channels * kernel * kernel})),
      bias_(name + ".bias", Tensor({out_channels})) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || stride <= 0 ||
      pad < 0) {
    throw std::invalid_argument("Conv2d: invalid configuration");
  }
  const auto fan_in = static_cast<float>(in_channels * kernel * kernel);
  const float bound = std::sqrt(6.0f / fan_in);
  weight_.value = Tensor::rand_uniform(weight_.value.shape(), rng, -bound,
                                       bound);
}

Tensor Conv2d::forward(const Tensor& x) {
  if (x.rank() != 4 || x.extent(1) != in_channels_) {
    throw std::invalid_argument("Conv2d::forward: expected [N, " +
                                std::to_string(in_channels_) +
                                ", H, W], got " + x.shape_string());
  }
  const std::int64_t n = x.extent(0);
  const std::int64_t h = x.extent(2);
  const std::int64_t w = x.extent(3);
  const std::int64_t out_h = conv_out_extent(h, kernel_, pad_, stride_);
  const std::int64_t out_w = conv_out_extent(w, kernel_, pad_, stride_);
  if (out_h <= 0 || out_w <= 0) {
    throw std::invalid_argument("Conv2d::forward: kernel larger than input");
  }
  const std::int64_t col_rows = in_channels_ * kernel_ * kernel_;
  const std::int64_t out_hw = out_h * out_w;

  // backward only needs the input's shape (the pixels it reads come from
  // cached_columns_ / cached_input_), so caching the shape alone halves
  // the layer's per-batch activation memory.
  cached_in_shape_ = x.shape();
  Tensor y({n, out_channels_, out_h, out_w});
  // Bias rides in the GEMM epilogue: same per-element operations as a
  // separate broadcast pass, but applied while the output panel is still
  // cache-hot.
  const GemmEpilogue bias_ep{bias_.value.data(), nullptr};

  if (is_pointwise()) {
    // 1×1/stride-1/no-pad: the column matrix IS the input sample, so feed
    // it straight to GEMM — no im2col pass, no column buffer. backward
    // reads the columns, so cache the input itself instead.
    cached_columns_ = Tensor();
    cached_input_ = x;
    const std::int64_t chw = in_channels_ * h * w;
    parallel_for(0, n, [&](std::int64_t i) {
      sgemm(out_channels_, out_hw, col_rows, weight_.value.data(),
            x.data() + i * chw, 0.0f, y.data() + i * out_channels_ * out_hw,
            bias_ep);
    });
    return y;
  }

  cached_input_ = Tensor();
  cached_columns_ = Tensor({n, col_rows, out_hw});

  // Samples are independent: each writes its own slice of the column
  // buffer and of y.
  parallel_for(0, n, [&](std::int64_t i) {
    float* cols = cached_columns_.data() + i * col_rows * out_hw;
    im2col(x.data() + i * in_channels_ * h * w, in_channels_, h, w, kernel_,
           kernel_, pad_, stride_, cols);
    // y_i[Cout, H'W'] = W[Cout, col_rows] · cols[col_rows, H'W'] + bias
    sgemm(out_channels_, out_hw, col_rows, weight_.value.data(), cols,
          0.0f, y.data() + i * out_channels_ * out_hw, bias_ep);
  });
  return y;
}

void Conv2d::infer_into(ConstTensorView x, Tensor& out) const {
  infer_with(weight_.value, bias_.value, x, out);
}

void Conv2d::infer_with(const Tensor& weight, const Tensor& bias,
                        ConstTensorView x, Tensor& out,
                        const Tensor* prelu, bool pool_2x2) const {
  if (x.rank() != 4 || x.extent(1) != in_channels_) {
    throw std::invalid_argument("Conv2d::infer_with: expected [N, " +
                                std::to_string(in_channels_) +
                                ", H, W], got " + x.shape_string());
  }
  const std::int64_t n = x.extent(0);
  const std::int64_t h = x.extent(2);
  const std::int64_t w = x.extent(3);
  const std::int64_t out_h = conv_out_extent(h, kernel_, pad_, stride_);
  const std::int64_t out_w = conv_out_extent(w, kernel_, pad_, stride_);
  if (out_h <= 0 || out_w <= 0) {
    throw std::invalid_argument("Conv2d::infer_with: kernel larger than input");
  }
  if (pool_2x2) {
    if (out_h < 2 || out_w < 2) {
      throw std::invalid_argument(
          "Conv2d::infer_with: output smaller than the 2×2 pool window");
    }
    out.resize({n, out_channels_, out_h / 2, out_w / 2});
  } else {
    out.resize({n, out_channels_, out_h, out_w});
  }

  // Bias — and, when the planner fused the following activation, the
  // per-channel PReLU — run in the GEMM epilogue, bitwise identical to the
  // separate passes they replace. sconv_serial picks the lowering (direct
  // kernel, 1×1 pass-through or im2col + GEMM) from the tier, the CPU and
  // the shape, with the same bits every way; it runs serially and
  // allocates nothing after warmup. Concurrency on the inference path
  // comes from running independent sessions on separate workers.
  const GemmEpilogue ep{bias.data(),
                        prelu != nullptr ? prelu->data() : nullptr};
  sconv_serial(n, x.data(), in_channels_, h, w, kernel_, pad_, stride_,
               weight.data(), out_channels_, out.data(), ep, pool_2x2);
}

void Conv2d::infer_quantized(const std::int8_t* qweight,
                             const IgemmEpilogue& epilogue,
                             float input_inv_scale, ConstTensorView x,
                             Tensor& out, ConvInt8Scratch& scratch) const {
  if (x.rank() != 4 || x.extent(1) != in_channels_) {
    throw std::invalid_argument("Conv2d::infer_quantized: expected [N, " +
                                std::to_string(in_channels_) +
                                ", H, W], got " + x.shape_string());
  }
  const std::int64_t n = x.extent(0);
  const std::int64_t h = x.extent(2);
  const std::int64_t w = x.extent(3);
  const std::int64_t out_h = conv_out_extent(h, kernel_, pad_, stride_);
  const std::int64_t out_w = conv_out_extent(w, kernel_, pad_, stride_);
  if (out_h <= 0 || out_w <= 0) {
    throw std::invalid_argument(
        "Conv2d::infer_quantized: kernel larger than input");
  }
  const std::int64_t chw = in_channels_ * h * w;
  const std::int64_t out_stride = out_channels_ * out_h * out_w;

  out.resize({n, out_channels_, out_h, out_w});
  scratch.input.resize(static_cast<std::size_t>(chw));
  // Quantize once per sample (O(C·H·W)); iconv_serial then picks the
  // lowering (direct VNNI kernel, 1×1 pass-through or im2col_i8 + igemm)
  // from the tier, the CPU and the shape, with the same bits every way.
  for (std::int64_t i = 0; i < n; ++i) {
    quantize_into(x.data() + i * chw, chw, input_inv_scale,
                  scratch.input.data());
    iconv_serial(scratch.input.data(), in_channels_, h, w, kernel_, pad_,
                 stride_, qweight, out_channels_, out.data() + i * out_stride,
                 epilogue);
  }
}

Shape Conv2d::infer_shape(const Shape& in) const {
  if (in.size() != 4 || in[1] != in_channels_) {
    throw std::invalid_argument("Conv2d::infer_shape: bad input shape");
  }
  const std::int64_t out_h = conv_out_extent(in[2], kernel_, pad_, stride_);
  const std::int64_t out_w = conv_out_extent(in[3], kernel_, pad_, stride_);
  // Validate exactly like forward/infer_with: a plan built over a
  // kernel-larger-than-input shape must fail at plan time, not explode
  // when the session first runs.
  if (out_h <= 0 || out_w <= 0) {
    throw std::invalid_argument(
        "Conv2d::infer_shape: kernel larger than input for [" +
        std::to_string(in[2]) + ", " + std::to_string(in[3]) + "]");
  }
  return {in[0], out_channels_, out_h, out_w};
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  if (cached_in_shape_.empty()) {
    throw std::logic_error("Conv2d::backward before forward");
  }
  const std::int64_t n = cached_in_shape_[0];
  const std::int64_t h = cached_in_shape_[2];
  const std::int64_t w = cached_in_shape_[3];
  const std::int64_t out_h = conv_out_extent(h, kernel_, pad_, stride_);
  const std::int64_t out_w = conv_out_extent(w, kernel_, pad_, stride_);
  const std::int64_t out_hw = out_h * out_w;
  const std::int64_t col_rows = in_channels_ * kernel_ * kernel_;
  if (grad_output.rank() != 4 || grad_output.extent(0) != n ||
      grad_output.extent(1) != out_channels_ ||
      grad_output.extent(2) != out_h || grad_output.extent(3) != out_w) {
    throw std::invalid_argument("Conv2d::backward: bad grad shape " +
                                grad_output.shape_string());
  }

  Tensor grad_input(cached_in_shape_);

  // Per-sample partial parameter gradients. Samples run in parallel into
  // disjoint slices; the reduction below folds them into Param::grad in
  // sample order, which makes the result bitwise independent of the
  // thread count (and identical to the old serial accumulation).
  const std::int64_t wsize = out_channels_ * col_rows;
  std::vector<float> dw(static_cast<std::size_t>(n * wsize));
  std::vector<float> db(static_cast<std::size_t>(n * out_channels_));

  const bool pointwise = is_pointwise();
  parallel_for(0, n, [&](std::int64_t i) {
    const float* gy = grad_output.data() + i * out_channels_ * out_hw;
    // On the 1×1 fast path the cached input doubles as the column matrix
    // (no im2col ran in forward).
    const float* cols =
        pointwise ? cached_input_.data() + i * in_channels_ * h * w
                  : cached_columns_.data() + i * col_rows * out_hw;
    // dW_i[Cout, col_rows] = gy[Cout, H'W'] · colsᵀ
    sgemm_bt(out_channels_, col_rows, out_hw, gy, cols, 0.0f,
             dw.data() + i * wsize);
    // db_i[Cout] = per-channel sums of gy
    for (std::int64_t c = 0; c < out_channels_; ++c) {
      const float* plane = gy + c * out_hw;
      double s = 0.0;
      for (std::int64_t p = 0; p < out_hw; ++p) s += plane[p];
      db[static_cast<std::size_t>(i * out_channels_ + c)] =
          static_cast<float>(s);
    }
    if (pointwise) {
      // col2im is the identity for 1×1/stride-1/no-pad, so Wᵀ · gy is the
      // input gradient itself: write it straight into grad_input, no
      // scratch buffer and no scatter.
      sgemm_at(col_rows, out_hw, out_channels_, weight_.value.data(),
               gy, 0.0f, grad_input.data() + i * in_channels_ * h * w);
    } else {
      thread_local std::vector<float> grad_cols;
      grad_cols.resize(static_cast<std::size_t>(col_rows * out_hw));
      // dcols[col_rows, H'W'] = Wᵀ · gy, then scatter back with col2im.
      sgemm_at(col_rows, out_hw, out_channels_, weight_.value.data(),
               gy, 0.0f, grad_cols.data());
      col2im(grad_cols.data(), in_channels_, h, w, kernel_, kernel_, pad_,
             stride_, grad_input.data() + i * in_channels_ * h * w);
    }
  });

  // Deterministic reduction: fixed sample order, on the calling thread.
  for (std::int64_t i = 0; i < n; ++i) {
    const float* dwi = dw.data() + i * wsize;
    float* wg = weight_.grad.data();
    for (std::int64_t j = 0; j < wsize; ++j) wg[j] += dwi[j];
    for (std::int64_t c = 0; c < out_channels_; ++c) {
      bias_.grad[c] += db[static_cast<std::size_t>(i * out_channels_ + c)];
    }
  }
  return grad_input;
}

}  // namespace sne::nn
