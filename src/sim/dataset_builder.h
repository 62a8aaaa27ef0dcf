// dataset_builder.h — assembles the paper's synthetic dataset (§3). One
// sample is a host galaxy from the catalog, a supernova drawn from the
// population priors and placed inside the host ellipse, an observation
// schedule (5 bands × 4 epochs, ≤2 bands/day), and the resulting imagery:
// 20 observation stamps + 5 reference stamps + the ground-truth light
// curve. The paper generates 6000 SNIa + 6000 non-SNIa samples.
//
// Samples are stored as compact specs; stamps are rendered lazily and
// deterministically (seeded per sample/band/epoch), so the dataset costs
// kilobytes per sample instead of megabytes and any image can be
// regenerated bit-identically at any time.
#pragma once

#include <cstdint>
#include <vector>

#include "astro/lightcurve.h"
#include "astro/priors.h"
#include "sim/difference.h"
#include "sim/galaxy_catalog.h"
#include "sim/measurement.h"
#include "sim/position_sampler.h"
#include "sim/renderer.h"
#include "sim/scheduler.h"

namespace sne::sim {

/// Compact description of one dataset sample.
struct SampleSpec {
  std::int64_t galaxy_index = 0;
  astro::SnParams sn;
  SnOffset offset;          ///< SN position relative to host center, pixels
  Schedule schedule;        ///< this sample's season (conditions fluctuate)
  std::uint64_t noise_seed = 0;
};

class SnDataset {
 public:
  struct Config {
    std::int64_t num_samples = 1000;  ///< paper scale: 12000
    double p_ia = 0.5;                ///< paper: exactly half SNIa
    std::uint64_t seed = 20171130;
    GalaxyCatalog::Config catalog;
    ScheduleConfig schedule;
    RendererConfig renderer;
    astro::SnPopulation population;
    /// Peak date window inside the season (ensures the SN is bright
    /// during a usable part of the schedule, as the paper arranges).
    double peak_margin_lo = 5.0;
    double peak_margin_hi = 15.0;
  };

  /// Samples all specs (galaxies, SN parameters, schedules). No images
  /// are rendered here.
  static SnDataset build(const Config& config);

  /// Reassembles a dataset from a config and previously sampled specs
  /// (the deserialization path): the catalog regenerates deterministically
  /// from config.catalog, the specs are adopted as-is.
  static SnDataset from_parts(const Config& config,
                              std::vector<SampleSpec> specs);

  std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(specs_.size());
  }
  const SampleSpec& spec(std::int64_t i) const {
    return specs_.at(static_cast<std::size_t>(i));
  }
  const Galaxy& host(std::int64_t i) const {
    return catalog_.galaxy(spec(i).galaxy_index);
  }
  bool is_ia(std::int64_t i) const {
    return astro::is_type_ia(spec(i).sn.type);
  }
  astro::LightCurve light_curve(std::int64_t i) const {
    return astro::LightCurve(spec(i).sn, cosmology_);
  }
  const GalaxyCatalog& catalog() const noexcept { return catalog_; }
  const astro::Cosmology& cosmology() const noexcept { return cosmology_; }
  const Config& config() const noexcept { return config_; }

  // ---- lazy, deterministic imagery ----

  /// Reference stamp of band `b` for sample `i` (no supernova).
  Tensor reference_image(std::int64_t i, astro::Band b) const;

  /// Observation stamp of epoch `e` (0-based within the band) of band `b`:
  /// host + SN at its light-curve flux for that date + noise.
  Tensor observation_image(std::int64_t i, astro::Band b,
                           std::int64_t e) const;

  /// Reference matched to the observation's image quality — the first
  /// element of the CNN's input pair.
  Tensor matched_reference_image(std::int64_t i, astro::Band b,
                                 std::int64_t e) const;

  /// PSF-matched difference stamp (observation − matched reference).
  Tensor difference_image(std::int64_t i, astro::Band b,
                          std::int64_t e) const;

  // ---- ground truth and measurements ----

  Observation band_epoch(std::int64_t i, astro::Band b, std::int64_t e) const;

  /// True SN flux at that epoch (zero-point 27 units, before transparency).
  double true_flux(std::int64_t i, astro::Band b, std::int64_t e) const;

  /// True SN magnitude, clamped at `faint_limit` for unobservable fluxes.
  double true_magnitude(std::int64_t i, astro::Band b, std::int64_t e,
                        double faint_limit = 32.0) const;

  /// Noisy forced photometry of one epoch (classical pipeline output;
  /// deterministic per (sample, band, epoch)).
  FluxMeasurement measured_point(std::int64_t i, astro::Band b,
                                 std::int64_t e) const;

  /// Noisy forced photometry of all 20 epochs, sorted by date.
  std::vector<FluxMeasurement> measured_light_curve(std::int64_t i) const;

  // ---- batched parallel rendering ----
  //
  // Renders samples[k] → result[k] concurrently on the shared thread pool
  // (tensor/thread_pool.h). Safe and bitwise identical to the per-sample
  // calls for any thread count: every stamp draws from its own
  // mix64-derived RNG stream and the renderer is stateless.

  /// Batched matched_reference_image.
  std::vector<Tensor> matched_reference_images(
      const std::vector<std::int64_t>& samples, astro::Band b,
      std::int64_t e) const;

  /// Batched difference_image.
  std::vector<Tensor> difference_images(
      const std::vector<std::int64_t>& samples, astro::Band b,
      std::int64_t e) const;

 private:
  SnDataset(Config config, GalaxyCatalog catalog,
            std::vector<SampleSpec> specs)
      : config_(std::move(config)),
        catalog_(std::move(catalog)),
        specs_(std::move(specs)),
        renderer_(config_.renderer) {}

  /// Deterministic per-purpose RNG stream.
  Rng stream(std::int64_t i, std::int64_t purpose, std::int64_t band,
             std::int64_t epoch) const;

  Config config_;
  GalaxyCatalog catalog_;
  astro::Cosmology cosmology_;
  std::vector<SampleSpec> specs_;
  ImageRenderer renderer_;
};

}  // namespace sne::sim
