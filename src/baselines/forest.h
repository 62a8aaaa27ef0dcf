// forest.h — random forest classifier built from scratch (CART trees,
// Gini impurity, bootstrap aggregation, per-split feature subsampling).
// Random forests are the workhorse of the photometric-classification
// literature the paper compares against (Bailey 2007, Bloom 2012,
// Lochner 2016); this implementation backs the Lochner-style baseline
// row of Table 2.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "tensor/rng.h"

namespace sne::baselines {

struct ForestConfig {
  std::int64_t num_trees = 100;
  std::int64_t max_depth = 10;
  std::int64_t min_samples_leaf = 4;
  /// Features tried per split, as a fraction of the total (√d is the
  /// classical default; 0 selects √d automatically).
  double feature_fraction = 0.0;
  std::uint64_t seed = 1234;
};

class RandomForest {
 public:
  explicit RandomForest(const ForestConfig& config = {});

  /// Fits on a row-major feature matrix with binary labels {0, 1}.
  void fit(const std::vector<std::vector<float>>& features,
           const std::vector<int>& labels);

  /// Fraction of trees voting class 1 (a calibrated-ish probability).
  double predict_proba(std::span<const float> features) const;

  /// Batch scoring.
  std::vector<float> predict_proba_all(
      const std::vector<std::vector<float>>& features) const;

  std::int64_t num_features() const noexcept { return num_features_; }

 private:
  struct Node {
    // Leaf when feature < 0.
    std::int32_t feature = -1;
    float threshold = 0.0f;
    float leaf_value = 0.5f;  ///< P(class 1)
    std::int32_t left = -1;
    std::int32_t right = -1;
  };
  using Tree = std::vector<Node>;

  std::int32_t build_node(Tree& tree, const std::vector<std::vector<float>>& x,
                          const std::vector<int>& y,
                          std::vector<std::int64_t>& rows, std::int64_t begin,
                          std::int64_t end, std::int64_t depth, Rng& rng);

  ForestConfig config_;
  std::int64_t num_features_ = 0;
  std::vector<Tree> trees_;
};

}  // namespace sne::baselines
