#include "core/band_cnn.h"

#include <stdexcept>

#include "core/pixel_transform.h"

namespace sne::core {

std::int64_t BandCnn::trunk_output_extent(std::int64_t input_size,
                                          std::int64_t kernel) {
  std::int64_t e = input_size;
  for (int stage = 0; stage < 3; ++stage) {
    e = e - kernel + 1;  // valid convolution
    if (e < 2) {
      throw std::invalid_argument(
          "BandCnn: input size too small for three conv/pool stages");
    }
    e /= 2;  // 2×2 pooling
  }
  return e;
}

BandCnn::BandCnn(const BandCnnConfig& config, Rng& rng) : config_(config) {
  const std::int64_t out_extent =
      trunk_output_extent(config.input_size, config.kernel);

  if (config.signed_log) {
    net_.emplace<DiffSignedLogCrop>(config.input_size);
  } else {
    net_.emplace<RawDiffCrop>(config.input_size);
  }

  std::int64_t in_ch = 1;
  for (std::size_t stage = 0; stage < config.conv_channels.size(); ++stage) {
    const std::int64_t out_ch = config.conv_channels[stage];
    const std::string tag = "conv" + std::to_string(stage + 1);
    net_.emplace<nn::Conv2d>(in_ch, out_ch, config.kernel, rng, 1, 0,
                             "bandcnn." + tag);
    net_.emplace<nn::BatchNorm2d>(out_ch, 0.1f, 1e-5f,
                                  "bandcnn." + tag + ".bn");
    net_.emplace<nn::PReLU>(out_ch, 0.25f, "bandcnn." + tag + ".prelu");
    if (config.pool == PoolKind::Max) {
      net_.emplace<nn::MaxPool2d>(2);
    } else {
      net_.emplace<nn::AvgPool2d>(2);
    }
    in_ch = out_ch;
  }

  net_.emplace<nn::Flatten>();
  std::int64_t features = in_ch * out_extent * out_extent;
  for (std::size_t k = 0; k < config.fc_hidden.size(); ++k) {
    const std::string tag = "fc" + std::to_string(k + 1);
    net_.emplace<nn::Linear>(features, config.fc_hidden[k], rng,
                             "bandcnn." + tag);
    net_.emplace<nn::PReLU>(config.fc_hidden[k], 0.25f,
                            "bandcnn." + tag + ".prelu");
    features = config.fc_hidden[k];
  }
  auto& head = net_.emplace<nn::Linear>(features, 1, rng, "bandcnn.out");
  head.bias().value.fill(config.output_bias_init);
}

Tensor BandCnn::forward(const Tensor& x) { return net_.forward(x); }

Tensor BandCnn::backward(const Tensor& grad_output) {
  return net_.backward(grad_output);
}

void BandCnn::set_training(bool training) {
  Module::set_training(training);
  net_.set_training(training);
}

}  // namespace sne::core
