// pipeline_test.cpp — the end-to-end facade (SnePipeline) and dataset
// persistence (dataset_io): train/score/save/load round-trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/inference.h"
#include "core/sne_pipeline.h"
#include "eval/roc.h"
#include "sim/dataset_io.h"

namespace sne {
namespace {

sim::SnDataset small_dataset(std::int64_t n = 40, std::uint64_t seed = 9) {
  sim::SnDataset::Config cfg;
  cfg.num_samples = n;
  cfg.seed = seed;
  cfg.catalog.count = 150;
  return sim::SnDataset::build(cfg);
}

std::vector<std::int64_t> range_indices(std::int64_t lo, std::int64_t hi) {
  std::vector<std::int64_t> idx;
  for (std::int64_t i = lo; i < hi; ++i) idx.push_back(i);
  return idx;
}

core::SnePipelineConfig tiny_pipeline_config() {
  core::SnePipelineConfig cfg;
  cfg.stamp_size = 36;
  cfg.hidden_units = 16;
  cfg.flux_epochs = 1;
  cfg.flux_pairs = 60;
  cfg.classifier_epochs = 8;
  cfg.joint_epochs = 1;
  return cfg;
}

TEST(SnePipeline, RejectsScoringBeforeTraining) {
  core::SnePipeline pipeline(tiny_pipeline_config());
  const sim::SnDataset data = small_dataset();
  EXPECT_FALSE(pipeline.is_trained());
  EXPECT_THROW(pipeline.score(data, 0), std::logic_error);
  EXPECT_THROW(pipeline.save("/tmp/never.bin"), std::logic_error);
}

TEST(SnePipeline, TrainScoreRoundTrip) {
  const sim::SnDataset data = small_dataset(40, 31);
  core::SnePipeline pipeline(tiny_pipeline_config());
  const core::SnePipelineReport report =
      pipeline.train(data, range_indices(0, 32), range_indices(32, 40));

  EXPECT_EQ(report.flux_history.size(), 1u);
  EXPECT_EQ(report.classifier_history.size(), 8u);
  EXPECT_EQ(report.joint_history.size(), 1u);
  EXPECT_TRUE(pipeline.is_trained());

  const double p = pipeline.score(data, 0);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);

  const auto scores = pipeline.score_all(data, range_indices(0, 10));
  ASSERT_EQ(scores.size(), 10u);
  EXPECT_NEAR(scores[0], p, 1e-5);
}

TEST(SnePipeline, SaveLoadPreservesScores) {
  const sim::SnDataset data = small_dataset(30, 77);
  core::SnePipeline pipeline(tiny_pipeline_config());
  pipeline.train(data, range_indices(0, 30));

  const std::string path =
      (std::filesystem::temp_directory_path() / "sne_pipeline_test.bin")
          .string();
  pipeline.save(path);
  core::SnePipeline restored = core::SnePipeline::load(path);
  std::remove(path.c_str());

  EXPECT_TRUE(restored.is_trained());
  EXPECT_EQ(restored.config().stamp_size, 36);
  EXPECT_EQ(restored.config().hidden_units, 16);
  for (std::int64_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(pipeline.score(data, i), restored.score(data, i), 1e-5);
  }
}

// An int8 pipeline saves as a .snet v2 file: its calibration tables (one
// step_max entry per plan step of each sub-network) plus the quantized
// conv weights, which load() recomputes from those tables and refuses to
// serve unless they match. A plan whose step count changed would refuse
// every file saved before it; this round trip pins the band CNN's 13
// steps and its three int8 convs.
TEST(SnePipeline, Int8SaveLoadKeepsCalibrationAndScores) {
  const sim::SnDataset data = small_dataset(30, 78);
  core::SnePipeline pipeline(tiny_pipeline_config());
  pipeline.train(data, range_indices(0, 30));
  pipeline.calibrate(data, range_indices(0, 8));
  pipeline.set_precision(Precision::Int8);
  ASSERT_EQ(pipeline.precision(), Precision::Int8);

  const std::string path =
      (std::filesystem::temp_directory_path() / "sne_pipeline_int8.snet")
          .string();
  pipeline.save(path);
  core::SnePipeline restored = core::SnePipeline::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(restored.precision(), Precision::Int8);
  const infer::CalibrationTable& table = restored.calibration().cnn;
  EXPECT_TRUE(table.step_max.equals(pipeline.calibration().cnn.step_max));
  EXPECT_TRUE(table.input_max.equals(pipeline.calibration().cnn.input_max));
  core::SessionOptions options;
  options.precision = Precision::Int8;
  options.calibration = &table;
  const auto plan =
      core::compile_plan(restored.joint_model().band_cnn(), options);
  EXPECT_EQ(plan->num_steps(), 13u);
  EXPECT_EQ(table.step_max.size(), 13);
  EXPECT_EQ(plan->num_int8_steps(), 3u);
  for (std::int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(pipeline.score(data, i), restored.score(data, i)) << i;
  }
}

TEST(SnePipeline, EstimateMagnitudeCropsOversizedPairs) {
  const sim::SnDataset data = small_dataset(10, 5);
  core::SnePipeline pipeline(tiny_pipeline_config());
  pipeline.train(data, range_indices(0, 10));

  // Full 65×65 pair → internally cropped to 36.
  const Tensor ref = data.matched_reference_image(0, astro::Band::r, 0);
  const Tensor obs = data.observation_image(0, astro::Band::r, 0);
  Tensor pair({2, 65, 65});
  std::copy(ref.data(), ref.data() + ref.size(), pair.data());
  std::copy(obs.data(), obs.data() + obs.size(), pair.data() + ref.size());
  const double mag = pipeline.estimate_magnitude(pair);
  EXPECT_GT(mag, 15.0);
  EXPECT_LT(mag, 40.0);
}

TEST(SnePipeline, LoadRejectsGarbage) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "sne_pipeline_bad.bin")
          .string();
  {
    std::ofstream os(path, std::ios::binary);
    os << "not a pipeline";
  }
  EXPECT_THROW(core::SnePipeline::load(path), std::runtime_error);
  std::remove(path.c_str());
}

// ---- dataset persistence ----

TEST(DatasetIo, RoundTripPreservesSpecs) {
  const sim::SnDataset data = small_dataset(25, 123);
  std::stringstream ss;
  sim::write_dataset(ss, data);
  const sim::SnDataset restored = sim::read_dataset(ss);

  ASSERT_EQ(restored.size(), data.size());
  for (std::int64_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(restored.spec(i).galaxy_index, data.spec(i).galaxy_index);
    EXPECT_EQ(restored.spec(i).sn.type, data.spec(i).sn.type);
    EXPECT_EQ(restored.spec(i).sn.redshift, data.spec(i).sn.redshift);
    EXPECT_EQ(restored.spec(i).sn.peak_mjd, data.spec(i).sn.peak_mjd);
    EXPECT_EQ(restored.spec(i).offset.dx, data.spec(i).offset.dx);
    EXPECT_EQ(restored.spec(i).noise_seed, data.spec(i).noise_seed);
  }
}

TEST(DatasetIo, RoundTripReproducesImagesBitExactly) {
  const sim::SnDataset data = small_dataset(8, 321);
  std::stringstream ss;
  sim::write_dataset(ss, data);
  const sim::SnDataset restored = sim::read_dataset(ss);

  // Images regenerate deterministically from the specs.
  EXPECT_TRUE(data.observation_image(3, astro::Band::z, 2)
                  .equals(restored.observation_image(3, astro::Band::z, 2)));
  EXPECT_TRUE(data.reference_image(5, astro::Band::g)
                  .equals(restored.reference_image(5, astro::Band::g)));
  const auto a = data.measured_light_curve(1);
  const auto b = restored.measured_light_curve(1);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].flux, b[k].flux);
  }
}

TEST(DatasetIo, FileRoundTrip) {
  const sim::SnDataset data = small_dataset(6, 555);
  const std::string path =
      (std::filesystem::temp_directory_path() / "sne_dataset_test.bin")
          .string();
  sim::save_dataset(path, data);
  const sim::SnDataset restored = sim::load_dataset(path);
  std::remove(path.c_str());
  EXPECT_EQ(restored.size(), 6);
  EXPECT_EQ(restored.spec(2).sn.peak_abs_mag, data.spec(2).sn.peak_abs_mag);
}

TEST(DatasetIo, RejectsBadMagic) {
  std::stringstream ss;
  ss << "JUNKJUNKJUNK";
  EXPECT_THROW(sim::read_dataset(ss), std::runtime_error);
}

TEST(DatasetIo, RejectsTruncated) {
  const sim::SnDataset data = small_dataset(5, 999);
  std::stringstream ss;
  sim::write_dataset(ss, data);
  std::string blob = ss.str();
  blob.resize(blob.size() / 3);
  std::stringstream truncated(blob);
  EXPECT_THROW(sim::read_dataset(truncated), std::runtime_error);
}

TEST(DatasetIo, FromPartsValidatesGalaxyIndices) {
  const sim::SnDataset data = small_dataset(5, 1);
  std::vector<sim::SampleSpec> specs;
  for (std::int64_t i = 0; i < data.size(); ++i) {
    specs.push_back(data.spec(i));
  }
  specs[0].galaxy_index = 10'000'000;  // out of catalog range
  EXPECT_THROW(sim::SnDataset::from_parts(data.config(), std::move(specs)),
               std::invalid_argument);
}

}  // namespace
}  // namespace sne
