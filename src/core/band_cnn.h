// band_cnn.h — the paper's band-wise CNN for flux (magnitude) estimation
// (Fig. 7): difference + signed-log + crop, then three convolution modules
// (5×5 conv → batch norm → PReLU → 2×2 max pool, channels 10/20/30),
// then a three-layer fully connected head ending in the scalar magnitude.
// One network is shared across all five bands ("all the parameters of the
// band-wise CNNs are shared with all the bands").
#pragma once

#include <memory>

#include "nn/nn.h"

namespace sne::core {

/// Pooling flavor; the paper argues max pooling is essential (each stamp
/// holds at most one SN) — the ablation bench tests average pooling.
enum class PoolKind { Max, Average };

struct BandCnnConfig {
  std::int64_t input_size = 60;  ///< crop size (Table 1 sweeps 36…65)
  std::array<std::int64_t, 3> conv_channels = {10, 20, 30};
  std::int64_t kernel = 5;
  std::array<std::int64_t, 2> fc_hidden = {64, 32};
  PoolKind pool = PoolKind::Max;
  bool signed_log = true;       ///< ablation: raw difference pixels
  /// Initial bias of the output unit; starting near a typical SN
  /// magnitude removes a large constant from the initial loss.
  float output_bias_init = 25.5f;
};

/// Builds the network. Input [N, 2, S, S] with S ≥ input_size; output
/// [N, 1] estimated magnitudes.
class BandCnn final : public nn::Module {
 public:
  BandCnn(const BandCnnConfig& config, Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_output) override;
  void infer_into(ConstTensorView x, Tensor& out) const override {
    net_.infer_into(x, out);
  }
  Shape infer_shape(const Shape& in) const override {
    return net_.infer_shape(in);
  }
  std::vector<nn::Param*> params() override { return net_.params(); }
  std::vector<const nn::Param*> params() const override {
    return net_.params();
  }
  std::vector<nn::Param*> buffers() override { return net_.buffers(); }
  std::vector<const nn::Param*> buffers() const override {
    return net_.buffers();
  }
  void set_training(bool training) override;

  const BandCnnConfig& config() const noexcept { return config_; }

  /// The underlying layer stack; the inference planner walks it to size
  /// arena buffers and fold batch norms into convolutions.
  const nn::Sequential& net() const noexcept { return net_; }

  /// Spatial extent after the three conv/pool stages for a given input
  /// size (used to size the first FC layer; throws if the input is too
  /// small to survive three stages).
  static std::int64_t trunk_output_extent(std::int64_t input_size,
                                          std::int64_t kernel);

 private:
  BandCnnConfig config_;
  nn::Sequential net_;
};

}  // namespace sne::core
