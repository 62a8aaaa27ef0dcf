#include "core/inference.h"

#include <stdexcept>

#include "astro/bands.h"

namespace sne::core {

namespace {

infer::JointGlue joint_glue(const JointModel& joint) {
  infer::JointGlue glue;
  glue.stamp = joint.config().cnn.input_size;
  glue.num_bands = astro::kNumBands;
  glue.mag_offset = static_cast<float>(joint.config().features.mag_offset);
  glue.mag_scale = static_cast<float>(joint.config().features.mag_scale);
  return glue;
}

// Shared validation of the calibration/precision pairing for the
// single-net factories (which must not receive the joint table).
void check_single_net(const SessionOptions& options) {
  if (options.joint_calibration != nullptr) {
    throw std::invalid_argument(
        "SessionOptions: joint_calibration is only meaningful for the "
        "JointModel factory; single-net factories take `calibration`");
  }
  if (options.precision == Precision::Int8 && options.calibration == nullptr) {
    throw std::invalid_argument(
        "SessionOptions: Int8 requires a calibration table "
        "(record one via InferenceSession::calibrate)");
  }
}

}  // namespace

infer::PlanOptions plan_options(const SessionOptions& options) {
  check_single_net(options);
  infer::PlanOptions plan;
  plan.precision = options.precision;
  plan.calibration = options.calibration;
  return plan;
}

std::shared_ptr<const infer::InferencePlan> compile_plan(
    const BandCnn& cnn, const SessionOptions& options) {
  const std::int64_t s = cnn.config().input_size;
  return std::make_shared<const infer::InferencePlan>(
      cnn.net(), Shape{2, s, s}, plan_options(options));
}

std::shared_ptr<const infer::InferencePlan> compile_plan(
    const LcClassifier& classifier, const SessionOptions& options) {
  return std::make_shared<const infer::InferencePlan>(
      classifier.net(), Shape{classifier.config().input_dim},
      plan_options(options));
}

infer::InferenceSession make_session(const BandCnn& cnn,
                                     const SessionOptions& options) {
  return infer::InferenceSession(compile_plan(cnn, options));
}

infer::InferenceSession make_session(const LcClassifier& classifier,
                                     const SessionOptions& options) {
  return infer::InferenceSession(compile_plan(classifier, options));
}

infer::JointSession make_session(const JointModel& joint,
                                 const SessionOptions& options) {
  if (options.calibration != nullptr) {
    throw std::invalid_argument(
        "SessionOptions: the JointModel factory takes `joint_calibration`, "
        "not the single-net `calibration` table");
  }
  SessionOptions sub = options;
  sub.joint_calibration = nullptr;
  if (options.precision == Precision::Int8) {
    if (options.joint_calibration == nullptr) {
      throw std::invalid_argument(
          "SessionOptions: Int8 joint session requires joint_calibration "
          "(record one via core::calibrate)");
    }
    SessionOptions cnn_options = sub;
    cnn_options.calibration = &options.joint_calibration->cnn;
    SessionOptions clf_options = sub;
    clf_options.calibration = &options.joint_calibration->classifier;
    return infer::JointSession(make_session(joint.band_cnn(), cnn_options),
                               make_session(joint.classifier(), clf_options),
                               joint_glue(joint));
  }
  return infer::JointSession(make_session(joint.band_cnn(), sub),
                             make_session(joint.classifier(), sub),
                             joint_glue(joint));
}

infer::JointCalibration calibrate(const JointModel& joint,
                                  std::span<const Tensor> batches) {
  // Ranges must describe the fp32 reference path, so the recording
  // session is always built with default (fp32) options.
  infer::JointSession session = make_session(joint);
  infer::JointCalibration table;
  Tensor out;
  for (const Tensor& batch : batches) {
    session.calibrate(batch, out, table);
  }
  return table;
}

}  // namespace sne::core
