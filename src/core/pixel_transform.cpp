#include "core/pixel_transform.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "tensor/signed_log.h"

namespace sne::core {

namespace {

// 1 / ln(10): d/dx [sgn(x)·log10(|x|+1)] = 1 / ((|x|+1)·ln 10).
constexpr float kInvLn10 = 0.43429448190325176f;

std::int64_t checked_crop(std::int64_t crop_size, const char* who) {
  if (crop_size <= 0) {
    throw std::invalid_argument(std::string(who) + ": crop_size <= 0");
  }
  return crop_size;
}

// The centred crop × crop window of an [N, 2, H, W] pair batch (channel 0
// the matched reference, channel 1 the observation). Every crop loop of
// both input stages walks it.
class CropWindow {
 public:
  // Allocation-free, so the serving path stays allocation-free.
  CropWindow(ConstTensorView::Extents shape, std::int64_t crop,
             const char* who)
      : crop_(crop) {
    if (shape.size() != 4 || shape[1] != 2 || shape[2] < crop ||
        shape[3] < crop) {
      std::string got = "[";
      for (std::size_t d = 0; d < shape.size(); ++d) {
        got += (d ? ", " : "") + std::to_string(shape[d]);
      }
      throw std::invalid_argument(std::string(who) +
                                  ": expected [N, 2, S>=crop, S>=crop], got " +
                                  got + "]");
    }
    n_ = shape[0];
    h_ = shape[2];
    w_ = shape[3];
    plane_ = h_ * w_;
    origin_ = (shape[2] - crop) / 2 * w_ + (w_ - crop) / 2;
  }

  Shape out_shape() const { return {n_, 1, crop_, crop_}; }
  void resize_out(Tensor& out) const { out.resize({n_, 1, crop_, crop_}); }

  // out = obs − ref over the window, calling done(image) on each output
  // image (crop·crop floats) as soon as it is written, while it is still
  // in L1.
  template <typename Done>
  void diff(const float* x, float* out, Done&& done) const {
    walk(
        [&](std::int64_t ref, std::int64_t obs, std::int64_t dst) {
          for (std::int64_t j = 0; j < crop_; ++j) {
            out[dst + j] = x[obs + j] - x[ref + j];
          }
        },
        [&](std::int64_t image) { done(out + image); });
  }

  // The gradient w.r.t. the pair batch: grad(k) for crop element k goes
  // to its observation pixel and −grad(k) to its reference pixel; zero
  // elsewhere.
  template <typename Grad>
  Tensor scatter(Grad&& grad) const {
    Tensor g(Shape{n_, 2, h_, w_});
    float* gd = g.data();
    walk(
        [&](std::int64_t ref, std::int64_t obs, std::int64_t src) {
          for (std::int64_t j = 0; j < crop_; ++j) {
            const float v = grad(src + j);
            gd[obs + j] = v;
            gd[ref + j] = -v;
          }
        },
        [](std::int64_t) {});
    return g;
  }

 private:
  // Calls row(ref, obs, crop) for each of the N·crop window rows in order,
  // with the offsets of the row's first reference and observation pixels
  // in the pair batch and of its first element in the [N, 1, crop, crop]
  // crop; after each image's rows, image_done(offset of its first element).
  template <typename Row, typename ImageDone>
  void walk(Row&& row, ImageDone&& image_done) const {
    for (std::int64_t i = 0; i < n_; ++i) {
      for (std::int64_t y = 0; y < crop_; ++y) {
        const std::int64_t ref = 2 * i * plane_ + origin_ + y * w_;
        row(ref, ref + plane_, (i * crop_ + y) * crop_);
      }
      image_done(i * crop_ * crop_);
    }
  }

  std::int64_t crop_;
  std::int64_t n_ = 0;
  std::int64_t h_ = 0;
  std::int64_t w_ = 0;
  std::int64_t plane_ = 0;
  std::int64_t origin_ = 0;
};

void no_image_step(float*) {}

}  // namespace

DiffSignedLogCrop::DiffSignedLogCrop(std::int64_t crop_size)
    : crop_(checked_crop(crop_size, "DiffSignedLogCrop")) {}

Tensor DiffSignedLogCrop::forward(const Tensor& x) {
  const CropWindow window(x.shape(), crop_, "DiffSignedLogCrop");
  cached_in_shape_ = x.shape();
  cached_diff_crop_ = Tensor(window.out_shape());
  window.diff(x.data(), cached_diff_crop_.data(), no_image_step);
  Tensor out(cached_diff_crop_.shape());
  signed_log_span(cached_diff_crop_.data(), out.data(), out.size());
  return out;
}

void DiffSignedLogCrop::infer_into(ConstTensorView x, Tensor& out) const {
  const CropWindow window(x.shape(), crop_, "DiffSignedLogCrop");
  window.resize_out(out);
  window.diff(x.data(), out.data(),
              [this](float* image) {
                signed_log_span(image, image, crop_ * crop_);
              });
}

Shape DiffSignedLogCrop::infer_shape(const Shape& in) const {
  return CropWindow(in, crop_, "DiffSignedLogCrop::infer_shape").out_shape();
}

Tensor DiffSignedLogCrop::backward(const Tensor& grad_output) {
  if (cached_diff_crop_.empty()) {
    throw std::logic_error("DiffSignedLogCrop::backward before forward");
  }
  check_same_shape(grad_output, cached_diff_crop_,
                   "DiffSignedLogCrop::backward");
  const float* gy = grad_output.data();
  const float* d = cached_diff_crop_.data();
  return CropWindow(cached_in_shape_, crop_, "DiffSignedLogCrop")
      .scatter([&](std::int64_t k) {
        return gy[k] * kInvLn10 / (std::abs(d[k]) + 1.0f);
      });
}

RawDiffCrop::RawDiffCrop(std::int64_t crop_size)
    : crop_(checked_crop(crop_size, "RawDiffCrop")) {}

Tensor RawDiffCrop::forward(const Tensor& x) {
  Tensor out;
  infer_into(x, out);
  cached_in_shape_ = x.shape();
  return out;
}

void RawDiffCrop::infer_into(ConstTensorView x, Tensor& out) const {
  const CropWindow window(x.shape(), crop_, "RawDiffCrop");
  window.resize_out(out);
  window.diff(x.data(), out.data(), no_image_step);
}

Shape RawDiffCrop::infer_shape(const Shape& in) const {
  return CropWindow(in, crop_, "RawDiffCrop::infer_shape").out_shape();
}

Tensor RawDiffCrop::backward(const Tensor& grad_output) {
  if (cached_in_shape_.empty()) {
    throw std::logic_error("RawDiffCrop::backward before forward");
  }
  const CropWindow window(cached_in_shape_, crop_, "RawDiffCrop");
  if (grad_output.shape() != window.out_shape()) {
    throw std::invalid_argument("RawDiffCrop::backward: gradient " +
                                grad_output.shape_string() +
                                " does not match the crop");
  }
  const float* gy = grad_output.data();
  return window.scatter([gy](std::int64_t k) { return gy[k]; });
}

}  // namespace sne::core
