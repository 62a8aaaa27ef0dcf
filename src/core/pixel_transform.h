// pixel_transform.h — the fixed (parameter-free) input stage of the
// band-wise CNN (Fig. 7): given the (matched-reference, observation) pair,
// compute the difference image, center-crop it to the network's input
// size and compress it with the signed logarithm y = sgn(x)·log10(|x| + 1)
// (tensor/signed_log.h, whose bits are the source's, not the host libm's).
// Implemented as Modules so the joint model can backpropagate through the
// stage during fine-tuning. Training (forward) and serving (infer_into)
// run the same crop walk and the same signed-log kernel, so they give the
// same bits.
#pragma once

#include "nn/module.h"

namespace sne::core {

/// [N, 2, S, S] (channel 0 = matched reference, channel 1 = observation)
/// → [N, 1, crop, crop].
class DiffSignedLogCrop final : public nn::Module {
 public:
  explicit DiffSignedLogCrop(std::int64_t crop_size);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_output) override;
  void infer_into(ConstTensorView x, Tensor& out) const override;
  Shape infer_shape(const Shape& in) const override;

  std::int64_t crop_size() const noexcept { return crop_; }

 private:
  std::int64_t crop_;
  Tensor cached_diff_crop_;  ///< pre-signed-log cropped difference
  Shape cached_in_shape_;
};

/// The raw-pixel variant used by ablations (BandCnnConfig::signed_log =
/// false): the same difference and crop, without the compression.
class RawDiffCrop final : public nn::Module {
 public:
  explicit RawDiffCrop(std::int64_t crop_size);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_output) override;
  void infer_into(ConstTensorView x, Tensor& out) const override;
  Shape infer_shape(const Shape& in) const override;

 private:
  std::int64_t crop_;
  Shape cached_in_shape_;
};

}  // namespace sne::core
