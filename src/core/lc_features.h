// lc_features.h — light-curve feature assembly for the classifier (the
// right half of Fig. 6). A k-epoch feature vector holds, for each of the
// k epoch-subsets and each of the 5 bands, the pair (magnitude, date):
// 10 dimensions per epoch, matching the paper's "10-dimensional light
// curve features composed of the estimated flux and the observation date
// for each band". Magnitudes and dates are affinely normalized so the
// network starts in a well-scaled regime; the same normalization is
// shared with the joint model so pre-trained classifier weights transplant
// unchanged.
#pragma once

#include <vector>

#include "nn/dataset.h"
#include "sim/dataset_builder.h"

namespace sne::core {

struct FeatureConfig {
  std::int64_t epochs = 1;    ///< k ∈ [1, epochs_per_band]
  bool noisy = false;         ///< true: measured fluxes; false: ground truth
  double mag_offset = 25.0;   ///< feature = (mag − offset) / scale
  double mag_scale = 5.0;
  double faint_mag = 32.0;    ///< clamp for unmeasurable fluxes
  double date_scale = 60.0;   ///< feature = (mjd − season start) / scale
};

/// Feature dimensionality: epochs × bands × 2.
std::int64_t feature_dim(const FeatureConfig& config);

/// Features of sample `i`: epochs-major, band-minor, (mag, date) pairs.
Tensor lc_features(const sim::SnDataset& data, std::int64_t i,
                   const FeatureConfig& config);

/// Normalized magnitude feature from a raw magnitude.
double normalize_mag(double mag, const FeatureConfig& config);

/// Normalized date feature from an observer MJD.
double normalize_date(double mjd, double season_start,
                      const FeatureConfig& config);

/// Magnitude from a (possibly non-positive) measured flux, clamped at the
/// faint limit.
double mag_from_measured_flux(double flux, const FeatureConfig& config);

/// Lazy nn::Dataset over the given sample indices: x = features,
/// y = [1] (1 = SNIa). The dataset borrows `data`; it must outlive it.
nn::LazyDataset make_lc_feature_dataset(const sim::SnDataset& data,
                                        std::vector<std::int64_t> indices,
                                        const FeatureConfig& config);

}  // namespace sne::core
