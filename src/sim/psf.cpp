#include "sim/psf.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace sne::sim {

GaussianPsf::GaussianPsf(double fwhm_pixels)
    : fwhm_(fwhm_pixels), sigma_(fwhm_pixels / kFwhmToSigma) {
  if (fwhm_pixels <= 0.0) {
    throw std::invalid_argument("GaussianPsf: FWHM must be positive");
  }
}

namespace {

// Calls put(y·width + x, value) for every pixel of the ±5σ box of a point
// source at (cy, cx), value = float(flux · fy · fx). Only that box
// contributes above float precision; the rest of a rendered stamp is +0.
// The per-pixel integral of the 2-d Gaussian factorizes into erf
// differences: a row factor fy times a column factor fx, each evaluated
// once per row or column of the box.
template <typename Put>
void walk_point_source(double sigma, std::int64_t height, std::int64_t width,
                       double cy, double cx, double flux, Put put) {
  const double inv = 1.0 / (std::sqrt(2.0) * sigma);
  const double reach = 5.0 * sigma + 1.0;
  const auto y_lo = std::max<std::int64_t>(
      0, static_cast<std::int64_t>(std::floor(cy - reach)));
  const auto y_hi = std::min<std::int64_t>(
      height - 1, static_cast<std::int64_t>(std::ceil(cy + reach)));
  const auto x_lo = std::max<std::int64_t>(
      0, static_cast<std::int64_t>(std::floor(cx - reach)));
  const auto x_hi = std::min<std::int64_t>(
      width - 1, static_cast<std::int64_t>(std::ceil(cx + reach)));
  if (y_lo > y_hi || x_lo > x_hi) return;

  thread_local std::vector<double> fx;  // grow-only
  fx.resize(static_cast<std::size_t>(x_hi - x_lo + 1));
  for (std::int64_t x = x_lo; x <= x_hi; ++x) {
    fx[static_cast<std::size_t>(x - x_lo)] =
        0.5 * (std::erf((x + 0.5 - cx) * inv) -
               std::erf((x - 0.5 - cx) * inv));
  }
  for (std::int64_t y = y_lo; y <= y_hi; ++y) {
    const double fy = 0.5 * (std::erf((y + 0.5 - cy) * inv) -
                             std::erf((y - 0.5 - cy) * inv));
    for (std::int64_t x = x_lo; x <= x_hi; ++x) {
      put(y * width + x, static_cast<float>(
                             flux * fy * fx[static_cast<std::size_t>(x - x_lo)]));
    }
  }
}

}  // namespace

Tensor GaussianPsf::render_point_source(std::int64_t height,
                                        std::int64_t width, double cy,
                                        double cx, double flux) const {
  if (height <= 0 || width <= 0) {
    throw std::invalid_argument("render_point_source: bad stamp extents");
  }
  Tensor stamp({height, width});
  walk_point_source(sigma_, height, width, cy, cx, flux,
                    [&stamp](std::int64_t i, float v) { stamp[i] = v; });
  return stamp;
}

void GaussianPsf::add_point_source(Tensor& stamp, double cy, double cx,
                                   double flux, bool subtract) const {
  if (stamp.rank() != 2) {
    throw std::invalid_argument("add_point_source: expected rank-2 stamp");
  }
  float* s = stamp.data();
  if (subtract) {
    walk_point_source(sigma_, stamp.extent(0), stamp.extent(1), cy, cx, flux,
                      [s](std::int64_t i, float v) { s[i] -= v; });
    return;
  }
  for (std::int64_t i = 0; i < stamp.size(); ++i) s[i] += 0.0f;
  walk_point_source(sigma_, stamp.extent(0), stamp.extent(1), cy, cx, flux,
                    [s](std::int64_t i, float v) { s[i] += v; });
}

MoffatPsf::MoffatPsf(double fwhm_pixels, double beta)
    : fwhm_(fwhm_pixels), beta_(beta) {
  if (fwhm_pixels <= 0.0 || beta <= 1.0) {
    throw std::invalid_argument(
        "MoffatPsf: FWHM must be positive and beta > 1");
  }
  // FWHM = 2α·sqrt(2^(1/β) − 1).
  alpha_ = fwhm_pixels / (2.0 * std::sqrt(std::pow(2.0, 1.0 / beta) - 1.0));
}

Tensor MoffatPsf::render_point_source(std::int64_t height, std::int64_t width,
                                      double cy, double cx,
                                      double flux) const {
  if (height <= 0 || width <= 0) {
    throw std::invalid_argument("MoffatPsf: bad stamp extents");
  }
  Tensor stamp({height, width});
  const double inv_a2 = 1.0 / (alpha_ * alpha_);
  double sum = 0.0;
  for (std::int64_t y = 0; y < height; ++y) {
    for (std::int64_t x = 0; x < width; ++x) {
      // 3×3 subpixel sampling: the Moffat core is cuspier than a Gaussian.
      double v = 0.0;
      for (int sy = -1; sy <= 1; ++sy) {
        for (int sx = -1; sx <= 1; ++sx) {
          const double dy = y + sy / 3.0 - cy;
          const double dx = x + sx / 3.0 - cx;
          v += std::pow(1.0 + (dy * dy + dx * dx) * inv_a2, -beta_);
        }
      }
      stamp[y * width + x] = static_cast<float>(v / 9.0);
      sum += v / 9.0;
    }
  }
  if (sum > 0.0) stamp *= static_cast<float>(flux / sum);
  return stamp;
}

double GaussianPsf::matching_sigma(const GaussianPsf& target) const {
  if (target.sigma_ < sigma_) {
    throw std::invalid_argument(
        "matching_sigma: target PSF must be broader than source");
  }
  return std::sqrt(target.sigma_ * target.sigma_ - sigma_ * sigma_);
}

}  // namespace sne::sim
