// plan.h — ahead-of-time execution plan for serving a trained Sequential.
// The training path's forward() caches every activation for backward; the
// serving path needs none of that, so the plan walks the layer stack once,
// computes every intermediate shape (validating it — a network that would
// throw at execution time fails here, at plan time), decides which steps
// are pure reshapes, folds each Conv2d → BatchNorm2d pair into a single
// convolution with adjusted weights, and fuses a following per-channel
// PReLU into that convolution's GEMM epilogue — so the paper's
// conv→BN→PReLU module executes as ONE fused step per stage — and lets
// that step also compute a following 2×2 max-pool, whose step stays in
// the plan (absorbed: run() skips it) so step counts, step names and
// calibration tables do not change. The plan is
// immutable and borrows the network: build it once from a trained model,
// then share it across any number of InferenceSessions (one per serving
// thread).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/conv2d.h"
#include "nn/sequential.h"
#include "tensor/qtensor.h"
#include "tensor/runtime.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"

namespace sne::infer {

/// Activation ranges recorded by InferenceSession::calibrate over one or
/// more representative fp32 batches: the largest |value| seen at the
/// network input and after every plan step. The int8 lowering derives its
/// activation scales from these (scale = max/127, symmetric). max is
/// order-independent and the fp32 serving path is bitwise deterministic,
/// so a table is byte-identical no matter how the calibration set is
/// batched, which thread count runs it, or whether the batches replay
/// from a SnapshotDataset or render live.
struct CalibrationTable {
  Tensor input_max;  ///< [1], largest |x| over all calibration batches
  Tensor step_max;   ///< [num_steps], largest |out| after each plan step
  std::int64_t batches = 0;  ///< batches folded in (diagnostic only)

  bool empty() const noexcept { return step_max.size() == 0; }
};

/// How a plan lowers. Every plan folds each Conv2d immediately followed by
/// a BatchNorm2d into one convolution with scaled weights (γ/√(var+ε) per
/// output channel) and shifted bias, using the batch norm's *running*
/// statistics (the trained model is not modified; the folded parameters
/// live in the plan; exact for inference semantics up to float rounding).
/// Every plan also fuses a per-channel PReLU that immediately follows a
/// Conv2d (or a folded Conv2d→BatchNorm2d pair) into the convolution's
/// GEMM epilogue, so Conv+BN+PReLU executes as one plan step: bitwise
/// identical to running the activation as its own step, minus one full
/// pass over the activation tensor and one arena ping-pong.
struct PlanOptions {
  /// Serving precision this plan lowers to. Fp32 plans ignore
  /// `calibration`. Int8 plans require a calibration table recorded from
  /// an fp32 plan of the same network (step counts are validated; the
  /// factories in core/inference.h get this right): each conv step whose
  /// calibrated input range is usable gets per-output-channel quantized
  /// weights and a requantization epilogue; every other step — pooling,
  /// Linear, unfused activations, or a conv with a degenerate range —
  /// falls back to fp32, per step, with no accuracy cliff.
  Precision precision = Precision::Fp32;
  /// Borrowed during plan construction only (the plan copies what it
  /// keeps). Required when precision == Precision::Int8.
  const CalibrationTable* calibration = nullptr;
};

/// One executable step of the plan. Either a layer invocation (possibly
/// with folded substitute parameters) or a pure reshape the session
/// performs in place on its arena buffer.
class InferencePlan {
 public:
  /// Builds a plan for `net` applied to batches whose per-sample shape is
  /// `sample_input_shape` (no batch axis, e.g. {2, 60, 60}). The network
  /// must outlive the plan; it is never mutated.
  InferencePlan(const nn::Sequential& net, Shape sample_input_shape,
                PlanOptions options = {});

  const Shape& sample_input_shape() const noexcept { return input_shape_; }
  const Shape& sample_output_shape() const noexcept { return output_shape_; }
  std::size_t num_steps() const noexcept { return steps_.size(); }
  /// Number of Conv2d→BatchNorm2d pairs folded at plan time.
  std::size_t num_folded() const noexcept { return num_folded_; }
  /// Number of PReLU activations fused into a convolution epilogue.
  std::size_t num_fused_prelu() const noexcept { return num_fused_prelu_; }
  /// Number of 2×2 max-pool steps that run() computes inside the conv
  /// step before them (each stays in the plan as an absorbed step).
  std::size_t num_fused_pool() const noexcept { return num_fused_pool_; }
  /// The precision this plan was lowered to.
  Precision precision() const noexcept { return precision_; }
  /// Number of steps running the int8 kernel (0 for fp32 plans; the
  /// remaining steps of an int8 plan are per-step fp32 fallbacks).
  std::size_t num_int8_steps() const noexcept { return num_int8_; }

  /// Appends every int8 step's quantized constants to `out` as
  /// ("<prefix><step index>.qweight", QTensor) records — the
  /// serialization side of a quantized plan. Quantization is a pure
  /// function of the trained weights and the calibration table, so a
  /// plan rebuilt from a loaded checkpoint reproduces these bytes
  /// exactly; saving them pins that invariant on disk.
  void append_quantized(QTensorMap& out, const std::string& prefix) const;

 private:
  friend class InferenceSession;

  struct Step {
    const nn::Module* layer = nullptr;  ///< borrowed from the network
    Shape sample_out;  ///< output shape of this step at batch size 1
    bool reshape_only = false;  ///< Flatten: in-place metadata change
    bool folded = false;        ///< run conv with substitute parameters
    /// Set when folded, PReLU-fused or pool-fused: the step runs through
    /// Conv2d::infer_with instead of the generic infer_into.
    const nn::Conv2d* conv = nullptr;
    Tensor weight;  ///< folded weight [Cout, Cin·k·k] (folded only)
    Tensor bias;    ///< folded bias [Cout] (folded only)
    /// Per-channel PReLU slopes [Cout] fused into the conv's GEMM
    /// epilogue; empty when no activation was fused.
    Tensor prelu;
    /// Conv step followed by a MaxPool2d(2) step: run() has the conv
    /// write the pooled output itself (sconv_serial's pooled output,
    /// bitwise equal to conv then pool) and skips the pool step, which
    /// stays in the plan marked `absorbed`. calibrate() runs both steps
    /// unfused, so each keeps its own step_max entry, and an int8 conv
    /// step is never pool-fused.
    bool pool_fused = false;
    bool absorbed = false;
    /// Int8 lowering of this conv step (int8 == true): per-channel
    /// quantized weights, the precomputed requant scales
    /// (input_scale · weight_scale[c]) for the igemm epilogue, and the
    /// inverse input scale (127 / calibrated max|x|) the session
    /// quantizes activations with. The step's bias/prelu tensors are
    /// shared with the fp32 path — the requant epilogue applies them.
    bool int8 = false;
    QTensor qweight;
    Tensor requant;  ///< [Cout]
    float input_inv_scale = 0.0f;
    /// Interned obs span label ("infer.<i>.<layer type>"), stable for
    /// the process — safe to reference from trace records that outlive
    /// the plan.
    const char* trace_name = nullptr;
  };

  /// Quantizes every eligible conv step against the calibrated ranges;
  /// called from the constructor when options.precision == Int8.
  void lower_int8(const CalibrationTable& calibration);

  Shape input_shape_;
  Shape output_shape_;
  std::vector<Step> steps_;
  std::size_t num_folded_ = 0;
  std::size_t num_fused_prelu_ = 0;
  std::size_t num_fused_pool_ = 0;
  std::size_t num_int8_ = 0;
  Precision precision_ = Precision::Fp32;
};

}  // namespace sne::infer
