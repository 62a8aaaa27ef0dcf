// inference.h — model-aware factories bridging the paper's trained models
// to the generic serving machinery in src/infer. The infer library knows
// only about Sequential stacks; these helpers know the models' input
// shapes and the joint model's feature-glue constants, so call sites can
// build a serving session in one line:
//
//   auto scorer = core::make_session(joint_model, core::SessionOptions{});
//   Tensor logits = scorer.run(batch);
//
// One options struct drives every precision: fp32 is the default, int8
// flips `precision` and attaches the calibration recorded by calibrate()
// (joint model) or InferenceSession::calibrate (single nets).
#pragma once

#include <memory>
#include <span>

#include "core/band_cnn.h"
#include "core/joint_model.h"
#include "core/lc_classifier.h"
#include "infer/session.h"

namespace sne::core {

/// The one knob set for building serving plans and sessions, whatever
/// the model and precision. Exactly one of the calibration pointers may
/// be non-null, and which one is legal depends on the factory:
/// single-net factories (BandCnn, LcClassifier, stream tiers) take
/// `calibration`; the JointModel factory takes `joint_calibration`.
/// Int8 without the matching calibration is refused — quantizing against
/// absent ranges would silently serve garbage.
struct SessionOptions {
  Precision precision = Precision::Fp32;
  /// Activation ranges for a single-net int8 plan. Borrowed for the
  /// duration of the factory call only.
  const infer::CalibrationTable* calibration = nullptr;
  /// Activation ranges for the two sub-networks of the joint model.
  /// Borrowed for the duration of the factory call only.
  const infer::JointCalibration* joint_calibration = nullptr;
};

/// Lowers SessionOptions to the infer-layer options for one single-net
/// plan (validating the calibration/precision pairing). Exposed so other
/// model owners — e.g. stream::Tier1Cnn — compile their plans through
/// the same options surface.
infer::PlanOptions plan_options(const SessionOptions& options);

/// Plan for the band-wise CNN over [N, 2, S, S] stamps (S = the model's
/// configured input size). The model must outlive the plan.
std::shared_ptr<const infer::InferencePlan> compile_plan(
    const BandCnn& cnn, const SessionOptions& options = {});

/// Plan for the light-curve classifier over [N, input_dim] features.
std::shared_ptr<const infer::InferencePlan> compile_plan(
    const LcClassifier& classifier, const SessionOptions& options = {});

/// One-call session builders. Each session is single-threaded; build one
/// per worker (sharing a plan via compile_plan + the shared_ptr
/// constructor when building many).
infer::InferenceSession make_session(const BandCnn& cnn,
                                     const SessionOptions& options = {});
infer::InferenceSession make_session(const LcClassifier& classifier,
                                     const SessionOptions& options = {});

/// Serving session for the full image→class joint model; wires the CNN
/// and classifier sessions together with the model's feature-glue
/// constants (stamp extent, band count, magnitude normalization). Int8
/// requires options.joint_calibration (each sub-network's plan is
/// lowered against its half of the table).
infer::JointSession make_session(const JointModel& joint,
                                 const SessionOptions& options = {});

/// Records activation ranges for both sub-networks of the joint model by
/// streaming `batches` (each [N, bands·2·S·S + bands], the joint-model
/// sample layout) through a fresh fp32 serving session. The returned
/// table feeds an int8 make_session via
/// SessionOptions::joint_calibration. Deterministic: the result is
/// byte-identical regardless of how the calibration set is batched or
/// which thread count renders it.
infer::JointCalibration calibrate(const JointModel& joint,
                                  std::span<const Tensor> batches);

}  // namespace sne::core
