// psf.h — point-spread-function models. Ground-based seeing varies per
// epoch; the renderer convolves galaxies with the epoch PSF and injects
// the supernova as a PSF-shaped point source, so a seeing mismatch between
// the reference and the observation leaves realistic subtraction
// residuals for the CNN to cope with.
#pragma once

#include "tensor/tensor.h"

namespace sne::sim {

/// Circular Gaussian PSF parametrized by FWHM in pixels.
class GaussianPsf {
 public:
  explicit GaussianPsf(double fwhm_pixels);

  double fwhm() const noexcept { return fwhm_; }
  double sigma() const noexcept { return sigma_; }

  /// Renders a unit-flux point source at fractional pixel position
  /// (cy, cx) into a stamp of the given extents. Pixel (y, x) integrates
  /// the Gaussian via the error function (exact per-pixel flux, so
  /// aperture photometry on the stamp recovers the injected flux).
  Tensor render_point_source(std::int64_t height, std::int64_t width,
                             double cy, double cx, double flux) const;

  /// `stamp += render_point_source(...)` (or `-=` when `subtract`) for a
  /// rank-2 stamp, bit for bit, without rendering a whole stamp: only the
  /// source's ±5σ box is computed. Outside it the rendered stamp is +0;
  /// s − (+0) is s, so a subtraction touches only the box, but s + (+0)
  /// turns a −0 into +0, so an addition still adds +0 everywhere else.
  void add_point_source(Tensor& stamp, double cy, double cx, double flux,
                        bool subtract = false) const;

  /// Quadrature "seeing match": the Gaussian blur sigma that degrades this
  /// PSF to `target` (which must be broader). Used by difference imaging.
  double matching_sigma(const GaussianPsf& target) const;

 private:
  double fwhm_;
  double sigma_;
};

/// FWHM → Gaussian sigma conversion factor (2·sqrt(2·ln 2)).
inline constexpr double kFwhmToSigma = 2.3548200450309493;

/// Moffat PSF: I(r) ∝ (1 + (r/α)²)^(−β) — the standard model of real
/// ground-based seeing, whose power-law wings a Gaussian underestimates.
/// Used by the artifact/bogus simulations (PSF-mismatch residuals) and
/// available for extension studies; the difference-imaging kernel match
/// assumes Gaussian PSFs, so the survey renderer defaults to those.
class MoffatPsf {
 public:
  /// β defaults to 3.5 (typical atmospheric turbulence value).
  explicit MoffatPsf(double fwhm_pixels, double beta = 3.5);

  double fwhm() const noexcept { return fwhm_; }
  double beta() const noexcept { return beta_; }
  double alpha() const noexcept { return alpha_; }

  /// Unit-flux point source at fractional position (cy, cx); pixel values
  /// by 3×3 subpixel sampling, renormalized to `flux` on the stamp.
  Tensor render_point_source(std::int64_t height, std::int64_t width,
                             double cy, double cx, double flux) const;

 private:
  double fwhm_;
  double beta_;
  double alpha_;
};

}  // namespace sne::sim
