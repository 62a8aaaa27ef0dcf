#include "infer/session.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"

namespace sne::infer {

InferenceSession::InferenceSession(std::shared_ptr<const InferencePlan> plan)
    : plan_(std::move(plan)) {
  if (!plan_) {
    throw std::invalid_argument("InferenceSession: null plan");
  }
}

InferenceSession::InferenceSession(const nn::Sequential& net,
                                   Shape sample_input_shape,
                                   PlanOptions options)
    : InferenceSession(std::make_shared<const InferencePlan>(
          net, std::move(sample_input_shape), options)) {}

namespace {

// Folds one observed activation buffer into a running range slot.
void fold_max(Tensor& slot, std::int64_t index, const float* data,
              std::int64_t n) {
  const float m = max_abs(data, n);
  if (m > slot[index]) slot[index] = m;
}

}  // namespace

void InferenceSession::run(ConstTensorView batch, Tensor& out) {
  run_impl(batch, out, nullptr);
}

void InferenceSession::calibrate(ConstTensorView batch, Tensor& out,
                                 CalibrationTable& table) {
  if (plan_->precision() != Precision::Fp32) {
    throw std::logic_error(
        "InferenceSession::calibrate: calibration must run on an fp32 "
        "plan (the table describes the reference path)");
  }
  if (table.empty()) {
    table.input_max = Tensor({1});
    table.step_max = Tensor({static_cast<std::int64_t>(plan_->num_steps())});
  } else if (static_cast<std::size_t>(table.step_max.size()) !=
             plan_->num_steps()) {
    throw std::invalid_argument(
        "InferenceSession::calibrate: table was started on a plan with " +
        std::to_string(table.step_max.size()) + " steps, this plan has " +
        std::to_string(plan_->num_steps()));
  }
  run_impl(batch, out, &table);
  ++table.batches;
}

void InferenceSession::run_impl(ConstTensorView batch, Tensor& out,
                                CalibrationTable* calib) {
  const InferencePlan& plan = *plan_;
  const Shape& in = plan.input_shape_;
  const auto in_rank = static_cast<std::int64_t>(in.size()) + 1;
  bool shape_ok = batch.rank() == in_rank && batch.extent(0) > 0;
  for (std::size_t a = 0; shape_ok && a < in.size(); ++a) {
    shape_ok = batch.extent(static_cast<std::int64_t>(a) + 1) == in[a];
  }
  if (!shape_ok) {
    throw std::invalid_argument(
        "InferenceSession::run: batch shape " + batch.shape_string() +
        " does not match the planned sample shape");
  }
  const std::int64_t n = batch.extent(0);

  // Warmup (arena/scratch sizing happens inside) is traced under its own
  // name so steady-state latency reads clean in the summary.
  obs::Span run_span(warmed_ ? "infer.run" : "infer.run.warmup", n);
  warmed_ = true;

  // A strided view (e.g. a non-leading-axis slice) is gathered into the
  // arena once; contiguous views — whole tensors or row slices of a
  // larger batch — run with zero input copies.
  ConstTensorView cur = batch;
  Tensor* cur_buf = nullptr;  // arena buffer holding cur's data, if any
  if (!batch.is_contiguous()) {
    batch.copy_to(ping_);
    cur = ConstTensorView(ping_);
    cur_buf = &ping_;
  }
  if (calib != nullptr) {
    fold_max(calib->input_max, 0, cur.data(), cur.size());
  }

  // Walk the plan ping-ponging between the two arena buffers; the last
  // computing step writes straight into `out`. Flatten steps on an arena
  // buffer are in-place metadata changes (Tensor::resize with an equal
  // element count reuses the buffer); a Flatten over the caller's batch
  // is a pure view reinterpretation — the step costs nothing either way.
  // A pool-fused conv writes the pooled output and its absorbed pool step
  // does nothing (its span still opens, so per-step telemetry keeps one
  // line per step); calibration runs both, to record each step's range.
  const bool fuse_pools = calib == nullptr;
  for (std::size_t s = 0; s < plan.steps_.size(); ++s) {
    const auto& step = plan.steps_[s];
    obs::Span step_span(step.trace_name);
    if (step.absorbed && fuse_pools) continue;
    const bool pool = step.pool_fused && fuse_pools;
    const bool last = s + (pool ? 2 : 1) == plan.steps_.size();
    if (step.reshape_only) {
      shape_scratch_.assign(step.sample_out.begin(), step.sample_out.end());
      shape_scratch_[0] = n;
      if (cur_buf != nullptr && !last) {
        cur_buf->resize(shape_scratch_);
        cur = ConstTensorView(*cur_buf);
      } else if (!last) {
        // Data still lives in the caller's batch: reinterpret the view.
        cur = cur.reshaped(shape_scratch_);
      } else {
        // The result must end up in the caller's out, so this single
        // degenerate case (reshape as final step) stays a copy.
        out.resize(shape_scratch_);
        cur.copy_to(out.data());
        cur = ConstTensorView(out);
        cur_buf = nullptr;
      }
      if (calib != nullptr) {
        // A reshape changes no values; recording keeps the table's
        // one-slot-per-step indexing trivial.
        fold_max(calib->step_max, static_cast<std::int64_t>(s), cur.data(),
                 cur.size());
      }
      continue;
    }
    Tensor* dst = last ? &out : (cur_buf == &ping_ ? &pong_ : &ping_);
    if (step.int8) {
      // Quantized conv step: int8 weights + requant epilogue carrying
      // the (possibly folded) bias and fused PReLU. Output is f32, so
      // the next step is precision-oblivious.
      const Tensor& b = step.folded ? step.bias : step.conv->bias().value;
      const IgemmEpilogue ep{step.requant.data(), b.data(),
                             step.prelu.empty() ? nullptr
                                                : step.prelu.data()};
      step.conv->infer_quantized(step.qweight.data.data(), ep,
                                 step.input_inv_scale, cur, *dst,
                                 int8_scratch_);
    } else if (step.conv != nullptr) {
      // Conv step, possibly with substitute (BN-folded) parameters and a
      // fused PReLU applied in the GEMM epilogue.
      const Tensor& w = step.folded ? step.weight : step.conv->weight().value;
      const Tensor& b = step.folded ? step.bias : step.conv->bias().value;
      step.conv->infer_with(w, b, cur, *dst,
                            step.prelu.empty() ? nullptr : &step.prelu, pool);
    } else {
      step.layer->infer_into(cur, *dst);
    }
    cur = ConstTensorView(*dst);
    cur_buf = last ? nullptr : dst;
    if (calib != nullptr) {
      fold_max(calib->step_max, static_cast<std::int64_t>(s), cur.data(),
               cur.size());
    }
  }
}

Tensor InferenceSession::run(ConstTensorView batch) {
  Tensor out;
  run(batch, out);
  return out;
}

JointSession::JointSession(InferenceSession cnn, InferenceSession classifier,
                           const JointGlue& glue)
    : cnn_(std::move(cnn)), classifier_(std::move(classifier)), glue_(glue) {
  if (glue.stamp <= 0 || glue.num_bands <= 0 || glue.mag_scale == 0.0f) {
    throw std::invalid_argument("JointSession: bad glue configuration");
  }
}

void JointSession::run(const Tensor& batch, Tensor& out) {
  run_impl(batch, out, nullptr);
}

void JointSession::calibrate(const Tensor& batch, Tensor& out,
                             JointCalibration& table) {
  run_impl(batch, out, &table);
}

void JointSession::run_impl(const Tensor& batch, Tensor& out,
                            JointCalibration* table) {
  const std::int64_t nb = glue_.num_bands;
  const std::int64_t stamp = glue_.stamp;
  const std::int64_t per_band = 2 * stamp * stamp;
  const std::int64_t image_block = nb * per_band;
  const std::int64_t expected = image_block + nb;
  if (batch.rank() != 2 || batch.extent(1) != expected) {
    throw std::invalid_argument("JointSession::run: expected [N, " +
                                std::to_string(expected) + "], got " +
                                batch.shape_string());
  }
  const std::int64_t n = batch.extent(0);
  obs::Span span("infer.joint", n);

  // The image columns of every row, as one strided [N, image_block] view;
  // the gather into the CNN batch is a single per-row-memcpy copy_to.
  images_.resize({n * nb, 2, stamp, stamp});
  batch.view().slice(1, 0, image_block).copy_to(images_.data());

  if (table != nullptr) {
    cnn_.calibrate(images_, mags_, table->cnn);  // [N·bands, 1]
  } else {
    cnn_.run(images_, mags_);  // [N·bands, 1]
  }

  features_.resize({n, nb * 2});
  for (std::int64_t i = 0; i < n; ++i) {
    const float* dates = batch.data() + i * expected + image_block;
    for (std::int64_t b = 0; b < nb; ++b) {
      features_.at(i, 2 * b) =
          (mags_[i * nb + b] - glue_.mag_offset) / glue_.mag_scale;
      features_.at(i, 2 * b + 1) = dates[b];
    }
  }
  if (table != nullptr) {
    classifier_.calibrate(features_, out, table->classifier);
  } else {
    classifier_.run(features_, out);
  }
}

Tensor JointSession::run(const Tensor& batch) {
  Tensor out;
  run(batch, out);
  return out;
}

}  // namespace sne::infer
