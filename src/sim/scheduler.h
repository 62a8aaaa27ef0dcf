// scheduler.h — broad-band observation scheduling. The paper's dataset
// section fixes the survey cadence in advance: every band gets exactly
// four observation epochs, no more than two band images are taken on the
// same day, and per-epoch observing conditions (seeing, transparency)
// fluctuate. References are deep, good-seeing stacks taken before the
// season.
#pragma once

#include <cstdint>
#include <vector>

#include "astro/bands.h"
#include "tensor/rng.h"

namespace sne::sim {

/// One scheduled exposure of one band.
struct Observation {
  astro::Band band = astro::Band::g;
  double mjd = 0.0;
  double seeing_fwhm_px = 3.5;   ///< epoch seeing, pixels
  double transparency = 1.0;     ///< atmospheric throughput ∈ (0, 1]
  /// Per-epoch sky-background multiplier (moonlight, airglow). The CNN
  /// can only calibrate the local noise floor from background pixels
  /// because this varies — the mechanism behind the paper's Table 1
  /// finding that larger input stamps estimate fluxes better.
  double sky_scale = 1.0;
};

/// Full schedule of one season: per-band reference conditions plus the
/// interleaved observation epochs.
struct Schedule {
  std::vector<Observation> observations;              ///< sorted by mjd
  std::array<Observation, astro::kNumBands> references;

  /// Observations of one band, in time order.
  std::vector<Observation> band_observations(astro::Band b) const;
};

struct ScheduleConfig {
  double start_mjd = 0.0;
  double season_days = 60.0;        ///< SNe stay bright ≲ 2 months (paper §1)
  std::int64_t epochs_per_band = 4; ///< paper: "every band has 4 observations"
  std::int64_t max_bands_per_day = 2;
  double mean_seeing_fwhm_px = 3.5; ///< ≈ 0.7″ at 0.2″/px
  double seeing_log_sigma = 0.18;
  double min_transparency = 0.7;
  double sky_log_sigma = 0.35;      ///< lognormal spread of the sky level
};

/// Generates a schedule honoring the per-day band cap. Deterministic in
/// the RNG state passed in.
Schedule make_schedule(const ScheduleConfig& config, Rng& rng);

}  // namespace sne::sim
