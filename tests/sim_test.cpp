// sim_test.cpp — the survey simulator: galaxy rendering, PSFs, noise,
// scheduling, difference imaging, photometric measurement, and the lazy
// dataset builder (determinism, flux recovery, class balance).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numbers>
#include <utility>

#include "astro/photometry.h"
#include "sim/artifacts.h"
#include "sim/dataset_builder.h"
#include "sim/difference.h"
#include "sim/galaxy_catalog.h"
#include "sim/image_ops.h"
#include "sim/measurement.h"
#include "sim/noise.h"
#include "sim/pgm.h"
#include "sim/position_sampler.h"
#include "sim/psf.h"
#include "sim/renderer.h"
#include "sim/scheduler.h"
#include "sim/sersic.h"

namespace sne::sim {
namespace {

SnDataset::Config small_config(std::int64_t n = 12,
                               std::uint64_t seed = 2024) {
  SnDataset::Config cfg;
  cfg.num_samples = n;
  cfg.seed = seed;
  cfg.catalog.count = 200;
  return cfg;
}

// ---- image ops ----

TEST(ImageOps, CenterCropTakesMiddle) {
  Tensor img({5, 5});
  img.at(2, 2) = 1.0f;
  const Tensor crop = center_crop(img, 3);
  EXPECT_EQ(crop.shape(), (Shape{3, 3}));
  EXPECT_FLOAT_EQ(crop.at(1, 1), 1.0f);
}

TEST(ImageOps, CenterCropRejectsOversize) {
  EXPECT_THROW(center_crop(Tensor({4, 4}), 5), std::invalid_argument);
  EXPECT_THROW(center_crop(Tensor({4, 4}), 0), std::invalid_argument);
}

TEST(ImageOps, GaussianBlurPreservesInteriorFlux) {
  Tensor img({33, 33});
  img.at(16, 16) = 100.0f;
  const Tensor blurred = gaussian_blur(img, 2.0);
  EXPECT_NEAR(blurred.sum(), 100.0f, 0.5f);
  EXPECT_LT(blurred.at(16, 16), 100.0f);
  EXPECT_GT(blurred.at(16, 18), 0.0f);
}

TEST(ImageOps, GaussianBlurZeroSigmaIsIdentity) {
  Rng rng(1);
  const Tensor img = Tensor::randn({8, 8}, rng);
  EXPECT_TRUE(gaussian_blur(img, 0.0).equals(img));
}

TEST(ImageOps, ApertureSumCountsDisk) {
  Tensor img({11, 11}, 1.0f);
  const double s = aperture_sum(img, 5.0, 5.0, 1.1);
  EXPECT_DOUBLE_EQ(s, 5.0);  // center + 4 neighbors
}

// ---- PSF ----

TEST(Psf, PointSourceFluxConserved) {
  const GaussianPsf psf(3.5);
  const Tensor stamp = psf.render_point_source(65, 65, 32.0, 32.0, 250.0);
  EXPECT_NEAR(stamp.sum(), 250.0f, 0.5f);
  EXPECT_GT(stamp.at(32, 32), stamp.at(32, 36));
}

TEST(Psf, SubPixelCentroid) {
  const GaussianPsf psf(3.0);
  const Tensor stamp = psf.render_point_source(21, 21, 10.0, 10.4, 1.0);
  // Centroid x should be ≈ 10.4.
  double cx = 0.0;
  for (std::int64_t y = 0; y < 21; ++y) {
    for (std::int64_t x = 0; x < 21; ++x) {
      cx += stamp.at(y, x) * static_cast<double>(x);
    }
  }
  EXPECT_NEAR(cx / stamp.sum(), 10.4, 0.01);
}

// The pre-hoisting renderer, verbatim: both erf calls of the column
// factor evaluated for every pixel of the ±5σ box.
Tensor per_pixel_erf_reference(const GaussianPsf& psf, std::int64_t height,
                               std::int64_t width, double cy, double cx,
                               double flux) {
  Tensor stamp({height, width});
  const double inv = 1.0 / (std::sqrt(2.0) * psf.sigma());
  const double reach = 5.0 * psf.sigma() + 1.0;
  const auto y_lo = std::max<std::int64_t>(
      0, static_cast<std::int64_t>(std::floor(cy - reach)));
  const auto y_hi = std::min<std::int64_t>(
      height - 1, static_cast<std::int64_t>(std::ceil(cy + reach)));
  const auto x_lo = std::max<std::int64_t>(
      0, static_cast<std::int64_t>(std::floor(cx - reach)));
  const auto x_hi = std::min<std::int64_t>(
      width - 1, static_cast<std::int64_t>(std::ceil(cx + reach)));
  for (std::int64_t y = y_lo; y <= y_hi; ++y) {
    const double fy = 0.5 * (std::erf((y + 0.5 - cy) * inv) -
                             std::erf((y - 0.5 - cy) * inv));
    for (std::int64_t x = x_lo; x <= x_hi; ++x) {
      const double fx = 0.5 * (std::erf((x + 0.5 - cx) * inv) -
                               std::erf((x - 0.5 - cx) * inv));
      stamp[y * width + x] = static_cast<float>(flux * fy * fx);
    }
  }
  return stamp;
}

TEST(Psf, GaussianPointSourceMatchesPerPixelErfBitwise) {
  struct Stamp {
    std::int64_t h, w;
  };
  const Stamp stamps[] = {{1, 1}, {1, 17}, {17, 1}, {13, 29}, {44, 44}};
  for (const double fwhm : {1.0, 2.5, 4.5, 9.0}) {
    const GaussianPsf psf(fwhm);
    for (const Stamp& s : stamps) {
      const double h = static_cast<double>(s.h);
      const double w = static_cast<double>(s.w);
      // Sub-pixel centres inside, boxes clipped at each edge and corner,
      // and centres outside the stamp (near and far).
      const std::pair<double, double> centres[] = {
          {0.5 * h + 0.37, 0.5 * w - 0.21}, {0.3, 0.5 * w + 0.4},
          {h - 1.3, 0.5 * w - 0.6},          {0.5 * h - 0.2, 0.45},
          {0.5 * h + 0.7, w - 0.55},         {0.1, 0.2},
          {h - 0.4, w - 0.9},                {-2.6, 0.5 * w},
          {0.5 * h, w + 3.3},                {-60.0, -60.0},
          {h + 80.5, 0.5 * w}};
      for (const auto& [cy, cx] : centres) {
        const Tensor got =
            psf.render_point_source(s.h, s.w, cy, cx, 137.25);
        const Tensor want =
            per_pixel_erf_reference(psf, s.h, s.w, cy, cx, 137.25);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              static_cast<std::size_t>(got.size()) *
                                  sizeof(float)),
                  0)
            << "fwhm " << fwhm << " stamp " << s.h << "x" << s.w
            << " centre (" << cy << ", " << cx << ")";
      }
    }
  }
}

TEST(Psf, MatchingSigmaQuadrature) {
  const GaussianPsf narrow(2.0);
  const GaussianPsf broad(4.0);
  const double match = narrow.matching_sigma(broad);
  EXPECT_NEAR(match * match + narrow.sigma() * narrow.sigma(),
              broad.sigma() * broad.sigma(), 1e-9);
  EXPECT_THROW(broad.matching_sigma(narrow), std::invalid_argument);
}

TEST(Psf, MoffatFluxNormalizedAndPeaked) {
  const MoffatPsf psf(3.5, 3.5);
  const Tensor stamp = psf.render_point_source(65, 65, 32.0, 32.0, 200.0);
  EXPECT_NEAR(stamp.sum(), 200.0f, 0.5f);
  EXPECT_GT(stamp.at(32, 32), stamp.at(32, 38));
}

TEST(Psf, MoffatHasHeavierWingsThanGaussian) {
  // At the same FWHM, a Moffat profile puts more flux beyond ~2×FWHM.
  const double fwhm = 3.5;
  const MoffatPsf moffat(fwhm, 3.0);
  const GaussianPsf gauss(fwhm);
  const Tensor m = moffat.render_point_source(65, 65, 32.0, 32.0, 1.0);
  const Tensor g = gauss.render_point_source(65, 65, 32.0, 32.0, 1.0);
  const double core_m = aperture_sum(m, 32.0, 32.0, 2.0 * fwhm);
  const double core_g = aperture_sum(g, 32.0, 32.0, 2.0 * fwhm);
  EXPECT_LT(core_m, core_g);  // less flux in the core = more in the wings
}

TEST(Psf, MoffatRejectsBadParams) {
  EXPECT_THROW(MoffatPsf(0.0), std::invalid_argument);
  EXPECT_THROW(MoffatPsf(3.0, 1.0), std::invalid_argument);
}

// ---- Sérsic ----

class SersicIndex : public ::testing::TestWithParam<double> {};

TEST_P(SersicIndex, FluxNormalizedOnGrid) {
  SersicProfile p;
  p.sersic_n = GetParam();
  p.half_light_radius = 4.0;
  p.total_flux = 500.0;
  const Tensor img = render_sersic(p, 65, 65, 32.0, 32.0);
  EXPECT_NEAR(img.sum(), 500.0f, 0.5f);
  EXPECT_GT(img.at(32, 32), img.at(32, 45));
}

INSTANTIATE_TEST_SUITE_P(IndexSweep, SersicIndex,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0));

TEST(Sersic, EllipticityFollowsAxisRatio) {
  SersicProfile p;
  p.half_light_radius = 6.0;
  p.axis_ratio = 0.4;
  p.position_angle = 0.0;  // major axis along +x
  p.total_flux = 100.0;
  const Tensor img = render_sersic(p, 65, 65, 32.0, 32.0);
  // Brighter along x (major axis) than along y at the same offset.
  EXPECT_GT(img.at(32, 40), img.at(40, 32));
}

TEST(Sersic, BnApproximation) {
  EXPECT_NEAR(sersic_bn(1.0), 1.6765, 0.01);   // exponential disk
  EXPECT_NEAR(sersic_bn(4.0), 7.6692, 0.01);   // de Vaucouleurs
}

// ---- noise ----

TEST(Noise, ZeroMeanAfterSkySubtraction) {
  NoiseModel model;
  Rng rng(2);
  const Tensor dark({64, 64});  // no source
  const Tensor noisy = apply_noise(dark, model, rng);
  EXPECT_NEAR(noisy.mean(), 0.0f, 1.5f);
}

TEST(Noise, VarianceMatchesSkyPlusReadNoise) {
  NoiseModel model;
  model.sky_level = 400.0;
  model.read_noise = 5.0;
  model.gain = 1.0;
  Rng rng(3);
  const Tensor noisy = apply_noise(Tensor({128, 128}), model, rng);
  double var = 0.0;
  for (std::int64_t i = 0; i < noisy.size(); ++i) {
    var += static_cast<double>(noisy[i]) * noisy[i];
  }
  var /= static_cast<double>(noisy.size());
  EXPECT_NEAR(var, 425.0, 20.0);
}

TEST(Noise, FluxSigmaGrowsWithSeeing) {
  NoiseModel model;
  EXPECT_GT(point_source_flux_sigma(model, 3.0, 0.0),
            point_source_flux_sigma(model, 1.5, 0.0));
  EXPECT_GT(point_source_flux_sigma(model, 2.0, 1e5),
            point_source_flux_sigma(model, 2.0, 0.0));
}

// ---- catalog ----

TEST(Catalog, RespectsRedshiftCut) {
  GalaxyCatalog::Config cfg;
  cfg.count = 2000;
  const GalaxyCatalog cat = GalaxyCatalog::generate(cfg);
  ASSERT_EQ(cat.size(), 2000);
  for (const Galaxy& g : cat.galaxies()) {
    EXPECT_GE(g.photo_z, 0.1);
    EXPECT_LE(g.photo_z, 2.0);
    EXPECT_GT(g.morphology.total_flux, 0.0);
  }
}

TEST(Catalog, RedshiftDistributionPeaksBelowOne) {
  GalaxyCatalog::Config cfg;
  cfg.count = 5000;
  const GalaxyCatalog cat = GalaxyCatalog::generate(cfg);
  const auto hist = cat.redshift_histogram(19);
  const auto peak_bin = static_cast<std::size_t>(std::distance(
      hist.begin(), std::max_element(hist.begin(), hist.end())));
  const double peak_z = 0.1 + (static_cast<double>(peak_bin) + 0.5) *
                                  (2.0 - 0.1) / 19.0;
  EXPECT_GT(peak_z, 0.3);
  EXPECT_LT(peak_z, 1.1);
}

TEST(Catalog, DeterministicInSeed) {
  GalaxyCatalog::Config cfg;
  cfg.count = 50;
  const GalaxyCatalog a = GalaxyCatalog::generate(cfg);
  const GalaxyCatalog b = GalaxyCatalog::generate(cfg);
  EXPECT_EQ(a.galaxy(17).photo_z, b.galaxy(17).photo_z);
  EXPECT_EQ(a.galaxy(17).morphology.sersic_n, b.galaxy(17).morphology.sersic_n);
}

TEST(Catalog, HigherRedshiftGalaxiesSmallerOnAverage) {
  GalaxyCatalog::Config cfg;
  cfg.count = 4000;
  const GalaxyCatalog cat = GalaxyCatalog::generate(cfg);
  double size_lo = 0.0, n_lo = 0.0, size_hi = 0.0, n_hi = 0.0;
  for (const Galaxy& g : cat.galaxies()) {
    if (g.photo_z < 0.5) {
      size_lo += g.morphology.half_light_radius;
      n_lo += 1.0;
    } else if (g.photo_z > 1.2) {
      size_hi += g.morphology.half_light_radius;
      n_hi += 1.0;
    }
  }
  ASSERT_GT(n_lo, 0.0);
  ASSERT_GT(n_hi, 0.0);
  EXPECT_GT(size_lo / n_lo, size_hi / n_hi);
}

// ---- scheduler ----

TEST(Scheduler, FourEpochsPerBand) {
  Rng rng(4);
  const Schedule s = make_schedule({}, rng);
  for (const astro::Band b : astro::kAllBands) {
    EXPECT_EQ(s.band_observations(b).size(), 4u);
  }
  EXPECT_EQ(s.observations.size(), 20u);
}

TEST(Scheduler, AtMostTwoBandsPerDay) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const Schedule s = make_schedule({}, rng);
    std::map<std::int64_t, int> per_day;
    for (const Observation& o : s.observations) {
      ++per_day[static_cast<std::int64_t>(std::floor(o.mjd))];
    }
    for (const auto& [day, count] : per_day) EXPECT_LE(count, 2);
  }
}

TEST(Scheduler, SortedAndWithinSeason) {
  Rng rng(6);
  ScheduleConfig cfg;
  cfg.start_mjd = 100.0;
  const Schedule s = make_schedule(cfg, rng);
  double prev = -1e9;
  for (const Observation& o : s.observations) {
    EXPECT_GE(o.mjd, prev);
    prev = o.mjd;
    EXPECT_GE(o.mjd, 100.0);
    EXPECT_LE(o.mjd, 160.0 + 1.0);
    EXPECT_GT(o.seeing_fwhm_px, 0.0);
    EXPECT_GT(o.transparency, 0.0);
    EXPECT_LE(o.transparency, 1.0);
  }
}

TEST(Scheduler, ReferencesPredateSeasonWithGoodSeeing) {
  Rng rng(7);
  ScheduleConfig cfg;
  const Schedule s = make_schedule(cfg, rng);
  for (const Observation& ref : s.references) {
    EXPECT_LT(ref.mjd, cfg.start_mjd);
    EXPECT_LT(ref.seeing_fwhm_px, cfg.mean_seeing_fwhm_px);
  }
}

// ---- position sampler ----

TEST(PositionSampler, StaysWithinTruncationRadius) {
  Rng rng(8);
  SersicProfile host;
  host.half_light_radius = 5.0;
  host.axis_ratio = 0.5;
  for (int i = 0; i < 2000; ++i) {
    const SnOffset off = sample_sn_offset(host, rng, 3.0);
    EXPECT_LE(off.radius(), 3.0 * 5.0 + 1e-9);
  }
}

TEST(PositionSampler, FollowsHostEllipticity) {
  Rng rng(9);
  SersicProfile host;
  host.half_light_radius = 6.0;
  host.axis_ratio = 0.3;
  host.position_angle = 0.0;  // major axis = x
  double sx = 0.0, sy = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const SnOffset off = sample_sn_offset(host, rng);
    sx += off.dx * off.dx;
    sy += off.dy * off.dy;
  }
  EXPECT_GT(sx / n, 3.0 * sy / n);  // spread along major axis dominates
}

// ---- renderer + difference imaging ----

TEST(Renderer, DifferenceRecoversInjectedFlux) {
  const ImageRenderer renderer;
  GalaxyCatalog::Config ccfg;
  ccfg.count = 10;
  const GalaxyCatalog cat = GalaxyCatalog::generate(ccfg);
  const Galaxy& gal = cat.galaxy(0);

  Observation ref;
  ref.seeing_fwhm_px = 3.0;
  ref.transparency = 1.0;
  Observation obs;
  obs.seeing_fwhm_px = 3.6;
  obs.transparency = 0.9;

  const double injected = 400.0;  // bright SN, mag ≈ 20.5
  SnOffset offset{2.0, -3.0};

  // Average the measured flux over independent noise realizations.
  Rng rng(10);
  double measured = 0.0;
  const int trials = 8;
  for (int t = 0; t < trials; ++t) {
    const Tensor ref_img = renderer.render_reference(gal, ref, rng);
    const Tensor obs_img =
        renderer.render_observation(gal, obs, injected, offset, rng);
    const Tensor diff = psf_matched_difference(obs_img, ref_img, obs, ref);
    // The SN is at host center + offset (± pointing jitter ≤ 0.3 px).
    const double c = renderer.center();
    measured += aperture_sum(diff, c + offset.dy, c + offset.dx, 12.0) /
                obs.transparency;
  }
  measured /= trials;
  EXPECT_NEAR(measured, injected, 0.15 * injected);
}

TEST(Renderer, NoSupernovaDifferenceIsNoise) {
  const ImageRenderer renderer;
  GalaxyCatalog::Config ccfg;
  ccfg.count = 10;
  const GalaxyCatalog cat = GalaxyCatalog::generate(ccfg);
  const Galaxy& gal = cat.galaxy(3);

  Observation ref;
  ref.seeing_fwhm_px = 3.0;
  Observation obs;
  obs.seeing_fwhm_px = 3.4;
  obs.transparency = 0.95;

  Rng rng(11);
  double total = 0.0;
  const int trials = 8;
  for (int t = 0; t < trials; ++t) {
    const Tensor ref_img = renderer.render_reference(gal, ref, rng);
    const Tensor obs_img =
        renderer.render_observation(gal, obs, 0.0, {0.0, 0.0}, rng);
    const Tensor diff = psf_matched_difference(obs_img, ref_img, obs, ref);
    total += aperture_sum(diff, renderer.center(), renderer.center(), 10.0);
  }
  // Mean residual should be small compared to a detectable SN (~100 flux).
  EXPECT_LT(std::abs(total / trials), 60.0);
}

TEST(Measurement, PsfWeightedFluxUnbiasedOnCleanStamp) {
  const GaussianPsf psf(3.2);
  const Tensor stamp = psf.render_point_source(65, 65, 30.0, 35.0, 120.0);
  const double est = psf_weighted_flux(stamp, 30.0, 35.0, psf.sigma());
  EXPECT_NEAR(est, 120.0, 1.0);
}

TEST(Measurement, SampledFluxStatistics) {
  const astro::Cosmology cosmo;
  astro::SnParams p = {astro::SnType::Ia, 0.4, 1.0, 0.0, 20.0, -19.3};
  const astro::LightCurve lc(p, cosmo);
  Observation obs;
  obs.band = astro::Band::r;
  obs.mjd = 20.0;
  NoiseModel noise;
  noise.gain = 30.0;

  Rng rng(12);
  const double truth = lc.flux(astro::Band::r, 20.0);
  double sum = 0.0;
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    sum += sample_measurement(lc, obs, noise, rng).flux;
  }
  EXPECT_NEAR(sum / n, truth, 0.1 * truth + 2.0);
}

// ---- dataset builder ----

TEST(Dataset, BalancedClasses) {
  const SnDataset data = SnDataset::build(small_config(40));
  int n_ia = 0;
  for (std::int64_t i = 0; i < data.size(); ++i) {
    if (data.is_ia(i)) ++n_ia;
  }
  EXPECT_EQ(n_ia, 20);
}

TEST(Dataset, ImagesDeterministic) {
  const SnDataset data = SnDataset::build(small_config());
  const Tensor a = data.observation_image(3, astro::Band::i, 2);
  const Tensor b = data.observation_image(3, astro::Band::i, 2);
  EXPECT_TRUE(a.equals(b));
  const Tensor ra = data.reference_image(3, astro::Band::i);
  const Tensor rb = data.reference_image(3, astro::Band::i);
  EXPECT_TRUE(ra.equals(rb));
}

TEST(Dataset, DifferentEpochsDiffer) {
  const SnDataset data = SnDataset::build(small_config());
  const Tensor a = data.observation_image(0, astro::Band::r, 0);
  const Tensor b = data.observation_image(0, astro::Band::r, 1);
  EXPECT_FALSE(a.allclose(b, 1e-3f));
}

TEST(Dataset, StampShapes) {
  const SnDataset data = SnDataset::build(small_config());
  EXPECT_EQ(data.reference_image(0, astro::Band::g).shape(),
            (Shape{kStampSize, kStampSize}));
  EXPECT_EQ(data.difference_image(0, astro::Band::g, 0).shape(),
            (Shape{kStampSize, kStampSize}));
}

TEST(Dataset, RedshiftsComeFromHosts) {
  const SnDataset data = SnDataset::build(small_config(30));
  for (std::int64_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data.spec(i).sn.redshift, data.host(i).photo_z);
  }
}

TEST(Dataset, TrueMagnitudeClamped) {
  const SnDataset data = SnDataset::build(small_config(30));
  for (std::int64_t i = 0; i < data.size(); ++i) {
    for (std::int64_t e = 0; e < 4; ++e) {
      const double m = data.true_magnitude(i, astro::Band::g, e);
      EXPECT_GE(m, 10.0);
      EXPECT_LE(m, 32.0);
    }
  }
}

TEST(Dataset, MeasuredLightCurveSortedAndComplete) {
  const SnDataset data = SnDataset::build(small_config());
  const auto lc = data.measured_light_curve(1);
  EXPECT_EQ(lc.size(), 20u);
  for (std::size_t k = 1; k < lc.size(); ++k) {
    EXPECT_GE(lc[k].mjd, lc[k - 1].mjd);
  }
  for (const FluxMeasurement& m : lc) EXPECT_GT(m.flux_error, 0.0);
}

TEST(Dataset, MeasuredPointAgreesWithLightCurveEntry) {
  const SnDataset data = SnDataset::build(small_config());
  const FluxMeasurement p = data.measured_point(2, astro::Band::z, 1);
  const auto lc = data.measured_light_curve(2);
  bool found = false;
  for (const FluxMeasurement& m : lc) {
    if (m.band == p.band && m.mjd == p.mjd) {
      EXPECT_EQ(m.flux, p.flux);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Dataset, PeakInsideSeason) {
  const SnDataset data = SnDataset::build(small_config(30));
  for (std::int64_t i = 0; i < data.size(); ++i) {
    const double peak = data.spec(i).sn.peak_mjd;
    EXPECT_GE(peak, data.config().schedule.start_mjd);
    EXPECT_LE(peak, data.config().schedule.start_mjd +
                        data.config().schedule.season_days);
  }
}

TEST(Dataset, ObservationContainsSnFluxAboveReference) {
  // For a bright epoch, obs − matched ref integrates to ≈ the SN flux.
  const SnDataset data = SnDataset::build(small_config(20, 555));
  int checked = 0;
  for (std::int64_t i = 0; i < data.size() && checked < 3; ++i) {
    for (std::int64_t e = 0; e < 4 && checked < 3; ++e) {
      const double truth = data.true_flux(i, astro::Band::i, e);
      if (truth < 200.0) continue;  // only bright, high-SNR cases
      const Tensor diff = data.difference_image(i, astro::Band::i, e);
      const sim::Observation obs = data.band_epoch(i, astro::Band::i, e);
      const double c = 32.0;
      const double measured =
          aperture_sum(diff, c + data.spec(i).offset.dy,
                       c + data.spec(i).offset.dx, 12.0) /
          obs.transparency;
      EXPECT_NEAR(measured, truth, 0.4 * truth);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

// ---- PGM export ----

TEST(Pgm, WellFormedHeaderAndSize) {
  Rng rng(50);
  const Tensor img = Tensor::randn({20, 30}, rng);
  const std::string pgm = encode_pgm(img);
  EXPECT_EQ(pgm.rfind("P5\n30 20\n255\n", 0), 0u);
  // Header + exactly one byte per pixel.
  const std::size_t header = pgm.find("255\n") + 4;
  EXPECT_EQ(pgm.size() - header, 600u);
}

TEST(Pgm, BrightSourceMapsBright) {
  Tensor img({21, 21});
  Rng rng(51);
  for (std::int64_t i = 0; i < img.size(); ++i) {
    img[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  img.at(10, 10) = 500.0f;
  const std::string pgm = encode_pgm(img);
  const std::size_t header = pgm.find("255\n") + 4;
  const auto center = static_cast<unsigned char>(pgm[header + 10 * 21 + 10]);
  EXPECT_GT(static_cast<int>(center), 240);
}

TEST(Pgm, ConstantImageRendersWithoutCrash) {
  const Tensor img({8, 8}, 3.0f);
  EXPECT_NO_THROW(encode_pgm(img));
}

TEST(Pgm, RejectsBadInputs) {
  EXPECT_THROW(encode_pgm(Tensor({4})), std::invalid_argument);
  EXPECT_THROW(encode_pgm(Tensor({4, 4}), -1.0), std::invalid_argument);
}

// ---- artifacts / real-bogus ----

class ArtifactKinds : public ::testing::TestWithParam<ArtifactKind> {};

TEST_P(ArtifactKinds, ChangesTheStamp) {
  Rng rng(1);
  Tensor stamp({65, 65});
  Tensor before = stamp;
  inject_artifact(stamp, GetParam(), 100.0, rng);
  EXPECT_FALSE(stamp.equals(before));
}

TEST_P(ArtifactKinds, DeterministicGivenRngState) {
  Tensor a({65, 65});
  Tensor b({65, 65});
  Rng rng_a(7);
  Rng rng_b(7);
  inject_artifact(a, GetParam(), 50.0, rng_a);
  inject_artifact(b, GetParam(), 50.0, rng_b);
  EXPECT_TRUE(a.equals(b));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ArtifactKinds,
                         ::testing::ValuesIn(kAllArtifactKinds));

TEST(Artifacts, DipoleRoughlyFluxNeutral) {
  Rng rng(3);
  Tensor stamp({65, 65});
  inject_artifact(stamp, ArtifactKind::Dipole, 200.0, rng);
  // Positive and negative lobes nearly cancel in total flux.
  EXPECT_LT(std::abs(stamp.sum()), 0.8f * 200.0f);
  EXPECT_GT(stamp.max(), 0.0f);
  EXPECT_LT(stamp.min(), 0.0f);
}

// The dipole adds its positive lobe and subtracts its negative one only
// inside each lobe's ±5σ box. It must give the bits of the whole-stamp
// form it replaced, `stamp += pos; stamp -= neg` with both lobes rendered
// in full, on stamps holding −0 and +0 (inside and outside the boxes),
// NaNs and ordinary values, at several sizes, centres and seeds.
TEST(Artifacts, DipoleMatchesWholeStampAddAndSubtract) {
  for (const std::int64_t size : {21, 44, 65}) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      Rng fill(seed * 977 + static_cast<std::uint64_t>(size));
      Tensor stamp({size, size});
      for (std::int64_t i = 0; i < stamp.size(); ++i) {
        const double r = fill.uniform(0.0, 1.0);
        stamp[i] = r < 0.3    ? -0.0f
                   : r < 0.4  ? 0.0f
                   : r < 0.42 ? std::numeric_limits<float>::quiet_NaN()
                              : static_cast<float>(fill.normal(0.0, 30.0));
      }
      const double amplitude = 50.0 + 10.0 * static_cast<double>(seed);
      Tensor want = stamp;
      Rng rng_want(seed);
      {
        // The whole-stamp form, drawing from the generator in the same
        // order as inject_artifact.
        const double cy = 0.5 * size + rng_want.uniform(-4.0, 4.0);
        const double cx = 0.5 * size + rng_want.uniform(-4.0, 4.0);
        const GaussianPsf psf(rng_want.uniform(2.5, 4.5));
        const double shift = rng_want.uniform(0.8, 1.8);
        const double angle = rng_want.uniform(0.0, 2.0 * std::numbers::pi);
        const Tensor pos = psf.render_point_source(
            size, size, cy, cx, amplitude * rng_want.uniform(1.0, 2.0));
        const Tensor neg = psf.render_point_source(
            size, size, cy + shift * std::sin(angle),
            cx + shift * std::cos(angle),
            amplitude * rng_want.uniform(1.0, 2.0));
        want += pos;
        want -= neg;
      }
      Rng rng_got(seed);
      inject_artifact(stamp, ArtifactKind::Dipole, amplitude, rng_got);
      ASSERT_EQ(std::memcmp(stamp.data(), want.data(),
                            sizeof(float) *
                                static_cast<std::size_t>(want.size())),
                0)
          << "size=" << size << " seed=" << seed;
      EXPECT_EQ(rng_got.uniform(0.0, 1.0), rng_want.uniform(0.0, 1.0));
    }
  }
}

TEST(Artifacts, CosmicRayIsCompactAndSharp) {
  Rng rng(4);
  Tensor stamp({65, 65});
  inject_artifact(stamp, ArtifactKind::CosmicRay, 300.0, rng);
  std::int64_t touched = 0;
  for (std::int64_t i = 0; i < stamp.size(); ++i) {
    if (stamp[i] != 0.0f) ++touched;
  }
  EXPECT_GT(touched, 3);
  EXPECT_LT(touched, 80);  // a streak, not a blob
}

TEST(Artifacts, RejectsBadInputs) {
  Rng rng(5);
  Tensor stamp({65, 65});
  EXPECT_THROW(inject_artifact(stamp, ArtifactKind::HotPixel, 0.0, rng),
               std::invalid_argument);
  Tensor not_an_image({4});
  EXPECT_THROW(
      inject_artifact(not_an_image, ArtifactKind::HotPixel, 1.0, rng),
      std::invalid_argument);
}

TEST(RealBogus, BalancedAndWellFormed) {
  const SnDataset data = SnDataset::build(small_config(30, 808));
  std::vector<std::int64_t> samples;
  for (std::int64_t i = 0; i < data.size(); ++i) samples.push_back(i);
  const nn::LazyDataset rb = make_real_bogus_dataset(data, samples, 33);
  ASSERT_GT(rb.size(), 0);
  ASSERT_EQ(rb.size() % 2, 0);
  float positives = 0.0f;
  for (std::int64_t k = 0; k < rb.size(); ++k) {
    const nn::Sample s = rb.get(k);
    EXPECT_EQ(s.x.shape(), (Shape{1, 33, 33}));
    positives += s.y[0];
  }
  EXPECT_FLOAT_EQ(positives, static_cast<float>(rb.size()) / 2.0f);
}

TEST(RealBogus, Deterministic) {
  const SnDataset data = SnDataset::build(small_config(12, 909));
  std::vector<std::int64_t> samples{0, 1, 2, 3, 4, 5};
  const nn::LazyDataset a = make_real_bogus_dataset(data, samples, 33);
  const nn::LazyDataset b = make_real_bogus_dataset(data, samples, 33);
  for (std::int64_t k = 0; k < std::min<std::int64_t>(a.size(), 8); ++k) {
    EXPECT_TRUE(a.get(k).x.equals(b.get(k).x));
  }
}

}  // namespace
}  // namespace sne::sim
