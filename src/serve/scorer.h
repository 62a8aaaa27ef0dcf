// scorer.h — the per-worker scoring backend of the daemon. The server
// is generic over what model it serves: a Scorer turns a batch of
// flat samples ([N, sample_numel]) into a batch of flat scores
// ([N, output_numel]); the wire protocol speaks exactly those two
// numbers (advertised in the hello frame).
//
// Construction goes through one ScorerSpec, whatever the backend: a
// plain InferencePlan (the band CNN, the classifier, any Sequential),
// the two-stage JointSession, or a fully custom Scorer such as the
// alert-stream FilterCascade adapter in src/stream. The server mints
// one scorer per worker through scorer_factory(spec).
//
// A Scorer inherits InferenceSession's thread-safety contract: NOT safe
// for concurrent run() calls, cheap to build per worker over a shared
// plan. The server builds one per worker through a ScorerFactory, on the
// thread that calls ScoreServer::start() — factories never run
// concurrently with each other.
#pragma once

#include <functional>
#include <memory>

#include "infer/session.h"
#include "tensor/tensor.h"

namespace sne::serve {

class Scorer {
 public:
  virtual ~Scorer() = default;

  /// Flat floats per request cutout / per response, as on the wire.
  virtual std::int64_t sample_numel() const = 0;
  virtual std::int64_t output_numel() const = 0;

  /// Scores `batch` (shape [N, sample_numel], contiguous) into `out`,
  /// resized to [N, output_numel]. Reusing both tensors across calls
  /// keeps the steady state allocation-free.
  virtual void run(const Tensor& batch, Tensor& out) = 0;
};

using ScorerFactory = std::function<std::unique_ptr<Scorer>()>;

/// The one way to say what a server scores. Exactly one source must be
/// set; make_scorer/scorer_factory refuse anything else. The builders
/// (not built objects) make the spec reusable: the server invokes them
/// once per worker.
struct ScorerSpec {
  /// Plan-backed: each flat row is reinterpreted as the plan's sample
  /// input shape (zero-copy view), scored by a private
  /// InferenceSession, and the output flattened per row. The plan is
  /// shared across workers.
  std::shared_ptr<const infer::InferencePlan> plan;
  /// Joint-model-backed: builds one JointSession per worker (e.g.
  /// [] { return core::make_session(model, options); }). The session
  /// already consumes flat [N, bands·2·S·S + bands] rows.
  std::function<infer::JointSession()> joint;
  /// Escape hatch for scorers the serve library does not know about
  /// (stream::make_cascade_scorer_spec uses this). Invoked once per
  /// worker.
  std::function<std::unique_ptr<Scorer>()> custom;
};

/// Builds one scorer from the spec. Throws std::invalid_argument unless
/// exactly one of plan/joint/custom is set.
std::unique_ptr<Scorer> make_scorer(const ScorerSpec& spec);

/// The per-worker factory the ScoreServer consumes; validates the spec
/// eagerly so a bad spec fails at configuration time, not in start().
ScorerFactory scorer_factory(ScorerSpec spec);

}  // namespace sne::serve
