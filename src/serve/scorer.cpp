#include "serve/scorer.h"

#include <numeric>
#include <stdexcept>
#include <utility>

#include "tensor/view.h"

namespace sne::serve {

namespace {

std::int64_t numel(const Shape& s) {
  return std::accumulate(s.begin(), s.end(), std::int64_t{1},
                         std::multiplies<>());
}

class PlanScorer final : public Scorer {
 public:
  explicit PlanScorer(std::shared_ptr<const infer::InferencePlan> plan)
      : session_(plan),
        sample_numel_(numel(plan->sample_input_shape())),
        output_numel_(numel(plan->sample_output_shape())) {
    // [N, ...sample shape] template; extent 0 is patched per batch.
    batch_shape_.push_back(0);
    for (const std::int64_t e : plan->sample_input_shape()) {
      batch_shape_.push_back(e);
    }
  }

  std::int64_t sample_numel() const override { return sample_numel_; }
  std::int64_t output_numel() const override { return output_numel_; }

  void run(const Tensor& batch, Tensor& out) override {
    const std::int64_t n = batch.extent(0);
    batch_shape_[0] = n;
    // Reinterpret the flat rows as the plan's input shape — a view, no
    // copy — then flatten the session's [N, ...out shape] in place.
    session_.run(ConstTensorView(batch.data(), batch_shape_), out);
    out.resize({n, output_numel_});
  }

 private:
  infer::InferenceSession session_;
  std::int64_t sample_numel_;
  std::int64_t output_numel_;
  Shape batch_shape_;
};

class JointScorer final : public Scorer {
 public:
  explicit JointScorer(infer::JointSession session)
      : session_(std::move(session)) {
    const infer::JointGlue& glue = session_.glue();
    sample_numel_ =
        glue.num_bands * (2 * glue.stamp * glue.stamp) + glue.num_bands;
    output_numel_ =
        numel(session_.classifier().plan().sample_output_shape());
  }

  std::int64_t sample_numel() const override { return sample_numel_; }
  std::int64_t output_numel() const override { return output_numel_; }

  void run(const Tensor& batch, Tensor& out) override {
    session_.run(batch, out);
    out.resize({batch.extent(0), output_numel_});
  }

 private:
  infer::JointSession session_;
  std::int64_t sample_numel_ = 0;
  std::int64_t output_numel_ = 0;
};

int sources_set(const ScorerSpec& spec) {
  return (spec.plan ? 1 : 0) + (spec.joint ? 1 : 0) + (spec.custom ? 1 : 0);
}

}  // namespace

std::unique_ptr<Scorer> make_scorer(const ScorerSpec& spec) {
  if (sources_set(spec) != 1) {
    throw std::invalid_argument(
        "ScorerSpec: exactly one of plan/joint/custom must be set");
  }
  if (spec.plan) return std::make_unique<PlanScorer>(spec.plan);
  if (spec.joint) return std::make_unique<JointScorer>(spec.joint());
  return spec.custom();
}

ScorerFactory scorer_factory(ScorerSpec spec) {
  if (sources_set(spec) != 1) {
    throw std::invalid_argument(
        "ScorerSpec: exactly one of plan/joint/custom must be set");
  }
  return [spec = std::move(spec)] { return make_scorer(spec); };
}

}  // namespace sne::serve
