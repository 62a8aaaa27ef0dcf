// core_test.cpp — the paper's models: pixel transform, band CNN,
// light-curve features, classifier, joint model, and the pipeline glue.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>

#include "astro/photometry.h"
#include "core/band_cnn.h"
#include "core/joint_model.h"
#include "core/lc_classifier.h"
#include "core/lc_features.h"
#include "core/pipeline.h"
#include "core/pixel_transform.h"

namespace sne::core {
namespace {

sim::SnDataset::Config small_config(std::int64_t n = 8) {
  sim::SnDataset::Config cfg;
  cfg.num_samples = n;
  cfg.seed = 77;
  cfg.catalog.count = 100;
  return cfg;
}

TEST(PixelTransform, ComputesSignedLogDifference) {
  DiffSignedLogCrop t(2);
  Tensor x({1, 2, 2, 2});
  // ref = [[1,2],[3,4]], obs = [[10, 2],[3, -5]]
  x[0] = 1; x[1] = 2; x[2] = 3; x[3] = 4;
  x[4] = 10; x[5] = 2; x[6] = 3; x[7] = -5;
  const Tensor y = t.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_NEAR(y[0], std::log10(9.0 + 1.0), 1e-6);   // diff = 9
  EXPECT_NEAR(y[1], 0.0, 1e-6);                      // diff = 0
  EXPECT_NEAR(y[3], -std::log10(9.0 + 1.0), 1e-6);   // diff = −9
}

TEST(PixelTransform, CropIsCentered) {
  DiffSignedLogCrop t(1);
  Tensor x({1, 2, 3, 3});
  // obs − ref = 0 except center (obs channel index: 9 + 4).
  x[9 + 4] = 99.0f;
  const Tensor y = t.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_NEAR(y[0], std::log10(100.0), 1e-5);
}

TEST(PixelTransform, RejectsWrongChannels) {
  DiffSignedLogCrop t(2);
  EXPECT_THROW(t.forward(Tensor({1, 3, 4, 4})), std::invalid_argument);
  EXPECT_THROW(t.forward(Tensor({1, 2, 1, 1})), std::invalid_argument);
}

TEST(PixelTransform, BackwardRejectsGradientOfWrongShape) {
  DiffSignedLogCrop log_crop(2);
  RawDiffCrop raw_crop(2);
  const Tensor x({1, 2, 4, 4});
  log_crop.forward(x);
  raw_crop.forward(x);
  EXPECT_THROW(log_crop.backward(Tensor({1, 1, 3, 3})), std::invalid_argument);
  EXPECT_THROW(raw_crop.backward(Tensor({1, 1, 3, 3})), std::invalid_argument);
  EXPECT_EQ(raw_crop.backward(Tensor({1, 1, 2, 2})).shape(), x.shape());
}

// A [37, 2, 44, 44] pair batch built from integer bits only, so no build
// flag can change it. Images 0–3 hold the crafted diffs (ref = +0, obs =
// the diff) cycled so each lands in every column; the rest pair random
// floats of one magnitude band per image, and every ninth image pairs raw
// 32-bit patterns (NaNs and infinities included).
Tensor crop_pin_input() {
  const std::uint32_t crafted[] = {
      0x00000000, 0x80000000,                          // ±0
      0x00000001, 0x80000001, 0x00400000, 0x80400000,  // ± subnormals
      0x007fffff, 0x807fffff, 0x00800000, 0x80800000,  // ± FLT_MIN
      0x3f800000, 0xbf800000, 0x41100000, 0xc1100000,  // ±1, ±9
      0x42c60000, 0xc2c60000, 0x4479c000, 0xc479c000,  // ±99, ±999
      0x4b800000, 0xcb800000, 0x4b800001, 0xcb800001,  // ±2^24, next up
      0x5d5e0b6b, 0xdd5e0b6b, 0x7149f2ca, 0xf149f2ca,  // ±1e18, ±1e30
      0x7f7fffff, 0xff7fffff, 0x7f800000, 0xff800000,  // ±FLT_MAX, ±Inf
      0x7fc00000, 0xffc00000, 0x7fc12345, 0xffe00001,  // quiet NaNs
      0x7f800001, 0xff812345, 0x7fbfffff,              // signalling NaNs
  };
  constexpr std::size_t kCrafted = std::size(crafted);
  constexpr std::int64_t kN = 37;
  constexpr std::int64_t kS = 44;
  Tensor x({kN, 2, kS, kS});
  std::uint64_t state = 0x5EED5EEDULL;
  const auto next = [&state] {
    state += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  for (std::int64_t i = 0; i < kN; ++i) {
    float* ref = x.data() + (i * 2 + 0) * kS * kS;
    float* obs = x.data() + (i * 2 + 1) * kS * kS;
    for (std::int64_t p = 0; p < kS * kS; ++p) {
      std::uint32_t r = 0;
      std::uint32_t o = 0;
      if (i < 4) {
        o = crafted[static_cast<std::size_t>(p + i * 5) % kCrafted];
      } else if (i % 9 == 8) {
        const std::uint64_t z = next();
        r = static_cast<std::uint32_t>(z);
        o = static_cast<std::uint32_t>(z >> 32);
      } else {
        // Exponents 2^(e-4) … 2^(e+3) with e = −12 … 24 by image, random
        // sign and mantissa: diffs from far below 1 to far above 2^24.
        const auto band = static_cast<std::uint32_t>(127 - 12 + (i * 5) % 37);
        const std::uint64_t z = next();
        r = (static_cast<std::uint32_t>(z) & 0x807fffffU) |
            ((band - 4 + static_cast<std::uint32_t>(z >> 23) % 8) << 23);
        o = (static_cast<std::uint32_t>(z >> 32) & 0x807fffffU) |
            ((band - 4 + static_cast<std::uint32_t>(z >> 55) % 8) << 23);
      }
      ref[p] = std::bit_cast<float>(r);
      obs[p] = std::bit_cast<float>(o);
    }
  }
  return x;
}

std::uint64_t fnv1a_mix(std::uint64_t h, const Tensor& t) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
  for (std::size_t i = 0; i < static_cast<std::size_t>(t.size()) * 4; ++i) {
    h = (h ^ bytes[i]) * 0x100000001B3ULL;
  }
  return h;
}

// The crop's output bits: crop 44 (rows end in a 12-lane tail) and crop 40
// (rows start at x0 = 2). infer_into and forward must give the same bits,
// and those bits hold in every build (the crop multiplies nothing, so no
// -O or -march setting has anything to contract).
TEST(PixelTransform, CropMatchesGoldenDigest) {
  constexpr std::uint64_t kGolden = 0x3a176c91191193f3ULL;
  const Tensor x = crop_pin_input();
  std::uint64_t served = 0xCBF29CE484222325ULL;
  std::uint64_t trained = served;
  for (const std::int64_t crop : {44, 40}) {
    DiffSignedLogCrop t(crop);
    Tensor out;
    t.infer_into(x, out);
    served = fnv1a_mix(served, out);
    trained = fnv1a_mix(trained, t.forward(x));
  }
  EXPECT_EQ(served, kGolden) << std::hex << "0x" << served;
  EXPECT_EQ(trained, kGolden) << std::hex << "0x" << trained;
}

TEST(BandCnn, TrunkExtentFormula) {
  // 60 → (56/2=28) → (24/2=12) → (8/2=4).
  EXPECT_EQ(BandCnn::trunk_output_extent(60, 5), 4);
  EXPECT_EQ(BandCnn::trunk_output_extent(65, 5), 4);  // 61/2=30, 26/2=13, 9/2=4
  EXPECT_EQ(BandCnn::trunk_output_extent(36, 5), 1);
  EXPECT_THROW(BandCnn::trunk_output_extent(20, 5), std::invalid_argument);
}

class BandCnnSizes : public ::testing::TestWithParam<int> {};

TEST_P(BandCnnSizes, ForwardShapeAcrossPaperSizes) {
  const std::int64_t size = GetParam();
  Rng rng(size);
  BandCnnConfig cfg;
  cfg.input_size = size;
  BandCnn cnn(cfg, rng);
  const Tensor y = cnn.forward(Tensor::randn({2, 2, 65, 65}, rng));
  EXPECT_EQ(y.shape(), (Shape{2, 1}));
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, BandCnnSizes,
                         ::testing::Values(36, 44, 52, 60, 65));

TEST(BandCnn, OutputNearBiasInitAtStart) {
  Rng rng(3);
  BandCnnConfig cfg;
  cfg.input_size = 36;
  cfg.output_bias_init = 25.5f;
  BandCnn cnn(cfg, rng);
  cnn.set_training(false);
  const Tensor y = cnn.forward(Tensor::randn({4, 2, 36, 36}, rng));
  for (std::int64_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], 25.5f, 6.0f);
  }
}

TEST(BandCnn, AvgPoolVariantRuns) {
  Rng rng(4);
  BandCnnConfig cfg;
  cfg.input_size = 36;
  cfg.pool = PoolKind::Average;
  cfg.signed_log = false;
  BandCnn cnn(cfg, rng);
  const Tensor y = cnn.forward(Tensor::randn({1, 2, 36, 36}, rng));
  EXPECT_EQ(y.shape(), (Shape{1, 1}));
}

TEST(LcFeatures, DimAndLayout) {
  const sim::SnDataset data = sim::SnDataset::build(small_config());
  FeatureConfig fc;
  fc.epochs = 1;
  EXPECT_EQ(feature_dim(fc), 10);
  const Tensor f = lc_features(data, 0, fc);
  ASSERT_EQ(f.size(), 10);
  // Even slots are magnitudes (normalized, plausible range), odd slots are
  // dates in [0, ~1.1].
  for (std::int64_t b = 0; b < astro::kNumBands; ++b) {
    EXPECT_GE(f[2 * b + 1], -0.1f);
    EXPECT_LE(f[2 * b + 1], 1.2f);
    EXPECT_GE(f[2 * b], -3.0f);
    EXPECT_LE(f[2 * b], 3.0f);
  }
}

TEST(LcFeatures, MultiEpochStacksEpochMajor) {
  const sim::SnDataset data = sim::SnDataset::build(small_config());
  FeatureConfig f1;
  f1.epochs = 1;
  FeatureConfig f4;
  f4.epochs = 4;
  EXPECT_EQ(feature_dim(f4), 40);
  const Tensor a = lc_features(data, 2, f1);
  const Tensor b = lc_features(data, 2, f4);
  // First 10 dims of the 4-epoch features equal the single-epoch features.
  for (std::int64_t k = 0; k < 10; ++k) EXPECT_EQ(a[k], b[k]);
}

TEST(LcFeatures, NoisyFeaturesDifferButCorrelate) {
  const sim::SnDataset data = sim::SnDataset::build(small_config(20));
  FeatureConfig clean;
  FeatureConfig noisy;
  noisy.noisy = true;
  int differing = 0;
  for (std::int64_t i = 0; i < data.size(); ++i) {
    const Tensor a = lc_features(data, i, clean);
    const Tensor b = lc_features(data, i, noisy);
    if (!a.allclose(b, 1e-6f)) ++differing;
    // Dates are identical; only magnitudes move.
    for (std::int64_t k = 1; k < 10; k += 2) EXPECT_EQ(a[k], b[k]);
  }
  EXPECT_GT(differing, 10);
}

TEST(LcFeatures, MagFromMeasuredFluxHandlesNegatives) {
  FeatureConfig fc;
  EXPECT_DOUBLE_EQ(mag_from_measured_flux(-50.0, fc), fc.faint_mag);
  EXPECT_NEAR(mag_from_measured_flux(astro::flux_from_mag(22.0), fc), 22.0,
              1e-9);
}

TEST(LcFeatures, DatasetAdapterLabels) {
  const sim::SnDataset data = sim::SnDataset::build(small_config(10));
  std::vector<std::int64_t> indices{0, 1, 2, 3};
  const nn::LazyDataset ds = make_lc_feature_dataset(data, indices, {});
  EXPECT_EQ(ds.size(), 4);
  for (std::int64_t k = 0; k < 4; ++k) {
    const nn::Sample s = ds.get(k);
    EXPECT_EQ(s.x.size(), 10);
    EXPECT_EQ(s.y[0], data.is_ia(k) ? 1.0f : 0.0f);
  }
}

TEST(LcClassifier, ShapesAndVariants) {
  Rng rng(5);
  LcClassifierConfig cfg;
  cfg.input_dim = 10;
  cfg.hidden_units = 32;
  LcClassifier highway(cfg, rng);
  EXPECT_EQ(highway.forward(Tensor::randn({6, 10}, rng)).shape(),
            (Shape{6, 1}));

  cfg.use_highway = false;
  LcClassifier plain(cfg, rng);
  EXPECT_EQ(plain.forward(Tensor::randn({6, 10}, rng)).shape(),
            (Shape{6, 1}));
  // Highway variant has twice the per-layer parameters of the plain one
  // in its hidden blocks.
  EXPECT_GT(highway.num_params(), plain.num_params());
}

TEST(JointModel, InputDimFormula) {
  EXPECT_EQ(JointModel::input_dim(44), 5 * 2 * 44 * 44 + 5);
}

TEST(JointModel, ForwardMatchesManualComposition) {
  // The joint model must equal: classifier(normalize(cnn(pairs)), dates).
  Rng rng(6);
  JointModelConfig cfg;
  cfg.cnn.input_size = 36;
  cfg.classifier.input_dim = 10;
  cfg.classifier.hidden_units = 16;
  JointModel joint(cfg, rng);
  joint.set_training(false);

  const std::int64_t s = 36;
  Rng data_rng(7);
  const Tensor x = Tensor::rand_uniform({1, JointModel::input_dim(s)},
                                        data_rng, -1.0f, 1.0f);
  const Tensor logit = joint.forward(x);

  // Manual path.
  Tensor images({5, 2, s, s});
  std::copy(x.data(), x.data() + 5 * 2 * s * s, images.data());
  const Tensor mags = joint.band_cnn().forward(images);
  Tensor features({1, 10});
  for (std::int64_t b = 0; b < 5; ++b) {
    features[2 * b] = (mags[b] - 25.0f) / 5.0f;
    features[2 * b + 1] = x[5 * 2 * s * s + b];
  }
  const Tensor manual = joint.classifier().forward(features);
  EXPECT_NEAR(logit[0], manual[0], 1e-4f);
}

TEST(JointModel, RejectsWrongInputDim) {
  Rng rng(8);
  JointModelConfig cfg;
  cfg.cnn.input_size = 36;
  JointModel joint(cfg, rng);
  EXPECT_THROW(joint.forward(Tensor({1, 100})), std::invalid_argument);
}

TEST(JointModel, ClassifierDimMustBeTen) {
  Rng rng(9);
  JointModelConfig cfg;
  cfg.cnn.input_size = 36;
  cfg.classifier.input_dim = 12;
  EXPECT_THROW(JointModel(cfg, rng), std::invalid_argument);
}

TEST(Pipeline, EnumerateFluxPairsCountsBandsTimesEpochs) {
  const sim::SnDataset data = sim::SnDataset::build(small_config(3));
  const auto items = enumerate_flux_pairs(data, {0, 1, 2});
  EXPECT_EQ(items.size(), 3u * 5u * 4u);
}

TEST(Pipeline, FluxPairDatasetShapesAndTarget) {
  const sim::SnDataset data = sim::SnDataset::build(small_config(4));
  auto items = enumerate_flux_pairs(data, {0});
  const nn::LazyDataset ds = make_flux_pair_dataset(data, items, 0);
  const nn::Sample s = ds.get(0);
  EXPECT_EQ(s.x.shape(), (Shape{2, 65, 65}));
  EXPECT_EQ(s.y.size(), 1);
  EXPECT_NEAR(s.y[0], data.true_magnitude(0, astro::Band::g, 0), 1e-5);
}

TEST(Pipeline, FluxPairDatasetCrops) {
  const sim::SnDataset data = sim::SnDataset::build(small_config(4));
  auto items = enumerate_flux_pairs(data, {1});
  const nn::LazyDataset ds = make_flux_pair_dataset(data, items, 44);
  EXPECT_EQ(ds.get(0).x.shape(), (Shape{2, 44, 44}));
}

TEST(Pipeline, JointDatasetShape) {
  const sim::SnDataset data = sim::SnDataset::build(small_config(4));
  const nn::LazyDataset ds =
      make_joint_dataset(data, {0, 1}, 0, 36, {});
  const nn::Sample s = ds.get(1);
  EXPECT_EQ(s.x.size(), JointModel::input_dim(36));
  EXPECT_EQ(s.y[0], data.is_ia(1) ? 1.0f : 0.0f);
}

TEST(Pipeline, ZeroPointCalibrationRemovesBias) {
  const sim::SnDataset data = sim::SnDataset::build(small_config(4));
  auto items = enumerate_flux_pairs(data, {0, 1}, 27.0);
  ASSERT_FALSE(items.empty());
  const nn::LazyDataset pairs = make_flux_pair_dataset(data, items, 36);

  Rng rng(44);
  BandCnnConfig cfg;
  cfg.input_size = 36;
  cfg.output_bias_init = 28.0f;  // deliberately offset from the targets
  BandCnn cnn(cfg, rng);

  const double removed = calibrate_flux_zero_point(cnn, pairs);

  // After calibration, the mean residual on the same pairs is ~zero.
  cnn.set_training(false);
  double residual = 0.0;
  const std::int64_t n = std::min<std::int64_t>(pairs.size(), 64);
  for (std::int64_t k = 0; k < n; ++k) {
    const nn::Sample s = pairs.get(k);
    const Tensor pred = cnn.forward(s.x.reshaped({1, 2, 36, 36}));
    residual += pred[0] - s.y[0];
  }
  EXPECT_NEAR(residual / n, 0.0, 0.05);
  EXPECT_NE(removed, 0.0);
}

TEST(Pipeline, PretrainedTransplantPreservesOutputs) {
  Rng rng(10);
  BandCnnConfig ccfg;
  ccfg.input_size = 36;
  BandCnn cnn(ccfg, rng);
  LcClassifierConfig lcfg;
  lcfg.hidden_units = 16;
  LcClassifier clf(lcfg, rng);

  JointModelConfig jcfg;
  jcfg.cnn = ccfg;
  jcfg.classifier = lcfg;
  Rng rng2(11);
  JointModel joint(jcfg, rng2);
  init_joint_from_pretrained(joint, cnn, clf);

  cnn.set_training(false);
  joint.set_training(false);
  Rng data_rng(12);
  const Tensor pair = Tensor::randn({1, 2, 36, 36}, data_rng);
  EXPECT_TRUE(cnn.forward(pair).allclose(joint.band_cnn().forward(pair),
                                         1e-5f));
}

}  // namespace
}  // namespace sne::core
