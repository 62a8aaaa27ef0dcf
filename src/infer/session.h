// session.h — the serving-side executor for a trained network. A session
// owns the mutable run-time state (two ping-pong arena buffers sized on
// first use), while the immutable InferencePlan it executes is shared.
// After the first run() with a given batch size, subsequent runs perform
// zero heap allocations: every buffer is grow-only and every kernel on
// this path (sconv_serial, sgemm_serial, sgemm_bt, the elementwise loops)
// runs on the calling thread without touching the allocator or the
// thread pool. run() lets each pool-fused conv step write the pooled
// output and skips the absorbed pool step after it; calibrate() runs
// every step, so the table it records has one range per plan step.
//
// Thread-safety contract: a session is NOT safe for concurrent run()
// calls, but sessions are cheap and independent — create one per worker
// thread over a shared plan and run them concurrently (the plan and the
// model it borrows are only read).
#pragma once

#include <memory>

#include "infer/plan.h"

namespace sne::infer {

class InferenceSession {
 public:
  explicit InferenceSession(std::shared_ptr<const InferencePlan> plan);

  /// Convenience: builds a fresh plan privately owned by this session.
  InferenceSession(const nn::Sequential& net, Shape sample_input_shape,
                   PlanOptions options = {});

  const InferencePlan& plan() const noexcept { return *plan_; }

  /// Runs the planned network over `batch` (shape [N, ...sample shape])
  /// and resizes `out` to [N, ...output shape]. Reusing the same `out`
  /// tensor across calls keeps the steady state allocation-free.
  ///
  /// `batch` is a non-owning view: a Tensor converts implicitly, and a
  /// contiguous row slice of a larger batch (view().slice(0, lo, hi))
  /// scores directly with no shard copy — the serving shard pattern. A
  /// strided view is gathered once into the arena, then runs as usual.
  /// Reshape-only (Flatten) steps at the head of the plan are executed
  /// as view reinterpretations of the caller's buffer: zero copies until
  /// the first computing step.
  void run(ConstTensorView batch, Tensor& out);

  /// Allocating convenience overload.
  Tensor run(ConstTensorView batch);

  /// Runs the batch exactly like run() AND folds the observed activation
  /// ranges into `table` (initializing it on first use, accumulating on
  /// repeat calls — stream the calibration set through in batches). Only
  /// valid on an fp32 plan: the table feeds the int8 lowering, so it must
  /// describe the reference path. max-abs is order-independent and the
  /// fp32 path is bitwise deterministic, so the finished table does not
  /// depend on batch order, thread count, or snapshot-replay vs live
  /// rendering of the calibration set.
  void calibrate(ConstTensorView batch, Tensor& out, CalibrationTable& table);

 private:
  void run_impl(ConstTensorView batch, Tensor& out, CalibrationTable* calib);

  std::shared_ptr<const InferencePlan> plan_;
  Tensor ping_;
  Tensor pong_;
  nn::ConvInt8Scratch int8_scratch_;  ///< quantized input image
  Shape shape_scratch_;  ///< reused per-step shape, batch axis rescaled
  bool warmed_ = false;  ///< first run() sizes the arena; traced apart
};

/// Layout/normalization constants the joint image→class model glues its
/// two sub-networks together with. Kept as a plain struct so the infer
/// library stays generic over any (cnn, classifier) Sequential pair.
struct JointGlue {
  std::int64_t stamp = 0;      ///< stamp extent S
  std::int64_t num_bands = 5;  ///< bands per sample
  float mag_offset = 25.0f;    ///< feature = (mag − offset) / scale
  float mag_scale = 5.0f;
};

/// Calibration state of the joint model: one table per sub-network.
struct JointCalibration {
  CalibrationTable cnn;
  CalibrationTable classifier;

  bool empty() const noexcept {
    return cnn.empty() || classifier.empty();
  }
};

/// Serving path for the joint model: repacks each flat sample
/// [bands·2·S·S images, bands dates] into a [N·bands, 2, S, S] image
/// batch, runs the CNN session, assembles the (normalized magnitude,
/// date) features, and runs the classifier session. Same thread-safety
/// contract as InferenceSession: one JointSession per worker.
class JointSession {
 public:
  JointSession(InferenceSession cnn, InferenceSession classifier,
               const JointGlue& glue);

  /// batch is [N, bands·2·S·S + bands]; out becomes [N, 1] logits.
  void run(const Tensor& batch, Tensor& out);
  Tensor run(const Tensor& batch);

  /// run() that also folds activation ranges of both sub-networks into
  /// `table`; see InferenceSession::calibrate for the contract.
  void calibrate(const Tensor& batch, Tensor& out, JointCalibration& table);

  const JointGlue& glue() const noexcept { return glue_; }
  InferenceSession& cnn() noexcept { return cnn_; }
  InferenceSession& classifier() noexcept { return classifier_; }

 private:
  void run_impl(const Tensor& batch, Tensor& out, JointCalibration* table);


  InferenceSession cnn_;
  InferenceSession classifier_;
  JointGlue glue_;
  Tensor images_;
  Tensor mags_;
  Tensor features_;
};

}  // namespace sne::infer
