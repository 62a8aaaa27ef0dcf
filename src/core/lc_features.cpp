#include "core/lc_features.h"

#include <algorithm>
#include <stdexcept>

#include "astro/photometry.h"

namespace sne::core {

std::int64_t feature_dim(const FeatureConfig& config) {
  return config.epochs * astro::kNumBands * 2;
}

double normalize_mag(double mag, const FeatureConfig& config) {
  return (mag - config.mag_offset) / config.mag_scale;
}

double normalize_date(double mjd, double season_start,
                      const FeatureConfig& config) {
  return (mjd - season_start) / config.date_scale;
}

double mag_from_measured_flux(double flux, const FeatureConfig& config) {
  const double floor_flux = astro::flux_from_mag(config.faint_mag);
  return astro::mag_from_flux(std::max(flux, floor_flux));
}

Tensor lc_features(const sim::SnDataset& data, std::int64_t i,
                   const FeatureConfig& config) {
  if (config.epochs <= 0 ||
      config.epochs > data.config().schedule.epochs_per_band) {
    throw std::invalid_argument("lc_features: bad epoch count");
  }
  const double season_start = data.config().schedule.start_mjd;

  Tensor out({feature_dim(config)});
  std::int64_t k = 0;
  for (std::int64_t e = 0; e < config.epochs; ++e) {
    for (const astro::Band b : astro::kAllBands) {
      double mag;
      if (config.noisy) {
        mag = mag_from_measured_flux(data.measured_point(i, b, e).flux,
                                     config);
      } else {
        mag = data.true_magnitude(i, b, e, config.faint_mag);
      }
      const sim::Observation obs = data.band_epoch(i, b, e);
      out[k++] = static_cast<float>(normalize_mag(mag, config));
      out[k++] =
          static_cast<float>(normalize_date(obs.mjd, season_start, config));
    }
  }
  return out;
}

nn::LazyDataset make_lc_feature_dataset(const sim::SnDataset& data,
                                        std::vector<std::int64_t> indices,
                                        const FeatureConfig& config) {
  const auto n = static_cast<std::int64_t>(indices.size());
  auto generator = [&data, indices = std::move(indices),
                    config](std::int64_t k) -> nn::Sample {
    const std::int64_t i = indices.at(static_cast<std::size_t>(k));
    nn::Sample s;
    s.x = lc_features(data, i, config);
    s.y = Tensor({1}, data.is_ia(i) ? 1.0f : 0.0f);
    return s;
  };
  // Batch-parallel: lc_features only reads SnDataset's deterministic
  // per-(sample, band, epoch) measurement streams, so batches (and
  // materialize()) fan across the shared pool.
  return nn::LazyDataset(n, std::move(generator), nn::BatchMode::Parallel);
}

}  // namespace sne::core
