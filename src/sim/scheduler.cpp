#include "sim/scheduler.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace sne::sim {

std::vector<Observation> Schedule::band_observations(astro::Band b) const {
  std::vector<Observation> out;
  for (const Observation& obs : observations) {
    if (obs.band == b) out.push_back(obs);
  }
  return out;
}

Schedule make_schedule(const ScheduleConfig& config, Rng& rng) {
  if (config.epochs_per_band <= 0 || config.season_days <= 0.0 ||
      config.max_bands_per_day <= 0) {
    throw std::invalid_argument("make_schedule: bad configuration");
  }

  auto draw_seeing = [&]() {
    return config.mean_seeing_fwhm_px *
           std::exp(rng.normal(0.0, config.seeing_log_sigma));
  };
  auto draw_transparency = [&]() {
    return rng.uniform(config.min_transparency, 1.0);
  };
  auto draw_sky_scale = [&]() {
    return std::clamp(std::exp(rng.normal(0.0, config.sky_log_sigma)), 0.4,
                      3.0);
  };

  Schedule schedule;

  // References: deep pre-season stacks with better-than-median seeing
  // (a stack of many exposures; the difference-imaging convention).
  for (std::size_t b = 0; b < astro::kNumBands; ++b) {
    Observation ref;
    ref.band = astro::kAllBands[b];
    ref.mjd = config.start_mjd - 180.0;
    ref.seeing_fwhm_px = 0.85 * config.mean_seeing_fwhm_px;
    ref.transparency = 1.0;
    ref.sky_scale = 1.0;  // deep stacks average many sky conditions
    schedule.references[b] = ref;
  }

  // Observations: band b epoch e targets day ≈ (e + phase_b)·Δ with a
  // ±2-day jitter, then greedily shifts to honor the bands-per-day cap.
  const double interval =
      config.season_days / static_cast<double>(config.epochs_per_band);
  std::map<std::int64_t, std::int64_t> per_day_count;

  for (std::size_t b = 0; b < astro::kNumBands; ++b) {
    const double phase =
        static_cast<double>(b) / static_cast<double>(astro::kNumBands);
    for (std::int64_t e = 0; e < config.epochs_per_band; ++e) {
      double day = (static_cast<double>(e) + phase) * interval +
                   rng.uniform(-2.0, 2.0);
      day = std::clamp(day, 0.0, config.season_days);
      auto day_key = static_cast<std::int64_t>(std::floor(day));
      // Shift forward (wrapping once at season end) until a free day.
      for (std::int64_t tries = 0;
           per_day_count[day_key] >= config.max_bands_per_day &&
           tries < static_cast<std::int64_t>(config.season_days) + 2;
           ++tries) {
        day += 1.0;
        if (day > config.season_days) day = 0.0;
        day_key = static_cast<std::int64_t>(std::floor(day));
      }
      ++per_day_count[day_key];

      Observation obs;
      obs.band = astro::kAllBands[b];
      obs.mjd = config.start_mjd + day;
      obs.seeing_fwhm_px = draw_seeing();
      obs.transparency = draw_transparency();
      obs.sky_scale = draw_sky_scale();
      schedule.observations.push_back(obs);
    }
  }

  std::sort(schedule.observations.begin(), schedule.observations.end(),
            [](const Observation& a, const Observation& b) {
              return a.mjd < b.mjd;
            });
  return schedule;
}

}  // namespace sne::sim
