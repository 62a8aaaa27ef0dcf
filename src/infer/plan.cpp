#include "infer/plan.h"

#include <cxxabi.h>

#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/pooling.h"
#include "obs/obs.h"

namespace sne::infer {

namespace {

// "sne::nn::Conv2d" → "Conv2d": the span label for one plan step.
std::string layer_type_name(const nn::Module& layer) {
  int status = 0;
  char* demangled =
      abi::__cxa_demangle(typeid(layer).name(), nullptr, nullptr, &status);
  std::string name =
      (status == 0 && demangled != nullptr) ? demangled : typeid(layer).name();
  std::free(demangled);
  const std::size_t pos = name.rfind("::");
  if (pos != std::string::npos) name.erase(0, pos + 2);
  return name;
}

// Folds BN(conv(x)) into a single convolution. With per-channel running
// statistics (μ, σ²), scale γ and shift β:
//   y_c = γ_c · (conv_c(x) − μ_c) / √(σ²_c + ε) + β_c
//       = (s_c · W_c) * x + (s_c · (b_c − μ_c) + β_c),  s_c = γ_c/√(σ²_c+ε)
void fold_conv_bn(const nn::Conv2d& conv, const nn::BatchNorm2d& bn,
                  Tensor& weight, Tensor& bias) {
  weight = conv.weight().value;  // [Cout, Cin·k·k]
  bias = conv.bias().value;      // [Cout]
  const std::int64_t cout = weight.extent(0);
  const std::int64_t row = weight.extent(1);
  for (std::int64_t c = 0; c < cout; ++c) {
    const float inv_std =
        1.0f / std::sqrt(bn.running_var().value[c] + bn.eps());
    const float s = bn.gamma().value[c] * inv_std;
    float* w = weight.data() + c * row;
    for (std::int64_t j = 0; j < row; ++j) w[j] *= s;
    bias[c] = s * (bias[c] - bn.running_mean().value[c]) +
              bn.beta().value[c];
  }
}

}  // namespace

InferencePlan::InferencePlan(const nn::Sequential& net,
                             Shape sample_input_shape, PlanOptions options)
    : input_shape_(std::move(sample_input_shape)) {
  if (net.size() == 0) {
    throw std::invalid_argument("InferencePlan: empty network");
  }

  // Shapes are planned per-sample with a placeholder batch axis of 1; the
  // session rescales axis 0 to the actual batch size at run time.
  Shape cur;
  cur.reserve(input_shape_.size() + 1);
  cur.push_back(1);
  cur.insert(cur.end(), input_shape_.begin(), input_shape_.end());

  for (std::size_t i = 0; i < net.size(); ++i) {
    const nn::Module& layer = net.layer(i);
    Step step;
    step.layer = &layer;

    const auto* conv = dynamic_cast<const nn::Conv2d*>(&layer);
    const nn::BatchNorm2d* bn =
        (conv != nullptr && i + 1 < net.size())
            ? dynamic_cast<const nn::BatchNorm2d*>(&net.layer(i + 1))
            : nullptr;
    if (bn != nullptr) {
      step.folded = true;
      step.conv = conv;
      fold_conv_bn(*conv, *bn, step.weight, step.bias);
      ++num_folded_;
      ++i;  // the batch norm is absorbed; skip its step
    } else if (dynamic_cast<const nn::Flatten*>(&layer) != nullptr) {
      step.reshape_only = true;
    }

    // A per-channel PReLU right after the conv (or the absorbed BN) rides
    // in the convolution's GEMM epilogue: conv→BN→PReLU becomes one step.
    // Bitwise identical to a separate activation pass, so fusing is
    // unconditionally safe when the channel counts line up.
    bool fused_prelu = false;
    if (conv != nullptr && i + 1 < net.size()) {
      const auto* prelu = dynamic_cast<const nn::PReLU*>(&net.layer(i + 1));
      if (prelu != nullptr && prelu->channels() == conv->out_channels()) {
        step.conv = conv;
        step.prelu = prelu->slope().value;
        ++num_fused_prelu_;
        ++i;  // the activation is absorbed; skip its step
        fused_prelu = true;
      }
    }

    // A 2×2/stride-2 max-pool right after the conv is computed by the
    // conv step (see Step::pool_fused); its own step stays, absorbed.
    const auto* pool =
        (conv != nullptr && i + 1 < net.size())
            ? dynamic_cast<const nn::MaxPool2d*>(&net.layer(i + 1))
            : nullptr;
    if (pool != nullptr && pool->kernel() == 2 && pool->stride() == 2) {
      step.conv = conv;
      step.pool_fused = true;
      ++num_fused_pool_;
    }
    step.absorbed = !steps_.empty() && steps_.back().pool_fused &&
                    dynamic_cast<const nn::MaxPool2d*>(&layer) != nullptr;

    cur = layer.infer_shape(cur);  // BN/PReLU preserve shape, so this holds
    step.sample_out = cur;
    step.trace_name = obs::intern(
        "infer." + std::to_string(steps_.size()) + "." +
        layer_type_name(layer) + (step.folded ? "+bn" : "") +
        (fused_prelu ? "+prelu" : ""));
    steps_.push_back(std::move(step));
  }

  output_shape_.assign(cur.begin() + 1, cur.end());

  if (options.precision == Precision::Int8) {
    if (options.calibration == nullptr || options.calibration->empty()) {
      throw std::invalid_argument(
          "InferencePlan: Int8 lowering requires a calibration table "
          "(run InferenceSession::calibrate on an fp32 plan first)");
    }
    lower_int8(*options.calibration);
    precision_ = Precision::Int8;
  }
}

void InferencePlan::lower_int8(const CalibrationTable& calibration) {
  if (static_cast<std::size_t>(calibration.step_max.size()) !=
          steps_.size() ||
      calibration.input_max.size() != 1) {
    throw std::invalid_argument(
        "InferencePlan: calibration table has " +
        std::to_string(calibration.step_max.size()) +
        " step ranges but the plan has " + std::to_string(steps_.size()) +
        " steps");
  }

  // Walk the steps threading the calibrated activation range through:
  // the range entering step i is the network input's range for the first
  // step and step_max[i-1] after. Only conv steps with a usable (finite,
  // positive) input range lower to int8; anything else keeps its fp32
  // kernel — the per-step fallback that makes precision a plan property
  // instead of an all-or-nothing switch.
  float cur_max = calibration.input_max[0];
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    Step& step = steps_[i];
    const float next_max = calibration.step_max[static_cast<std::int64_t>(i)];
    const auto* conv = dynamic_cast<const nn::Conv2d*>(step.layer);
    if (!step.reshape_only && conv != nullptr && cur_max > 0.0f &&
        std::isfinite(cur_max)) {
      const Tensor& w = step.folded ? step.weight : conv->weight().value;
      step.qweight = quantize_per_channel(w);
      const float in_scale = cur_max / 127.0f;
      const std::int64_t cout = step.qweight.channels();
      step.requant = Tensor({cout});
      for (std::int64_t c = 0; c < cout; ++c) {
        step.requant[c] = in_scale * step.qweight.scales[c];
      }
      step.input_inv_scale = 127.0f / cur_max;
      step.conv = conv;  // convs with no BN or PReLU after them need it too
      step.int8 = true;
      // The int8 conv runs unpooled; the pool step runs on its own again.
      if (step.pool_fused) {
        step.pool_fused = false;
        steps_[i + 1].absorbed = false;
        --num_fused_pool_;
      }
      ++num_int8_;
      step.trace_name = obs::intern(std::string(step.trace_name) + "+i8");
    }
    cur_max = next_max;
  }
}

void InferencePlan::append_quantized(QTensorMap& out,
                                     const std::string& prefix) const {
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    if (!steps_[i].int8) continue;
    out.emplace_back(prefix + std::to_string(i) + ".qweight",
                     steps_[i].qweight);
  }
}

}  // namespace sne::infer
