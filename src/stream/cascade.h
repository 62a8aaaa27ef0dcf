// cascade.h — FilterCascade: ordered tiered filtering over an alert
// stream, the survey-night counterpart of scoring every alert with the
// joint model. Alerts flow through cheap per-alert tiers first; only
// survivors reach the next tier, and only candidates whose alerts
// survived in *all five bands* reach the expensive joint image→type
// model:
//
//   AlertBatch ──▶ tier 0 ──▶ … ──▶ tier k ──▶ completion gate ──▶ joint
//                  (per-alert stages)          (candidate-level)   tier
//
// Mechanics:
//   * Per-alert stages score zero-copy where possible: survivors of the
//     previous tier are partitioned into contiguous runs and each run is
//     forwarded as a TensorView slice of the original batch — rows are
//     never gathered or copied between tiers.
//   * The completion gate assembles surviving alerts into joint-model
//     rows (band-major image pairs + dates). A candidate's row is
//     submitted once all five bands arrived; rows park in a bounded
//     pending set (≤ max_pending, FIFO eviction) whose buffers recycle
//     through a free list. Completed rows batch up to joint_batch
//     before each joint evaluation.
//   * Everything runs on the thread that calls push()/finish(), so
//     verdicts and per-tier counts are bitwise independent of the
//     night stream's prefetch depth and of the pool's thread count.
//
// Accounting lands in eval::CascadeCounts (per-tier + candidate-level
// end-to-end), and telemetry in obs: stream.<stage>.survivors counters
// and the stream.gate.pending gauge.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "eval/cascade.h"
#include "infer/session.h"
#include "obs/obs.h"
#include "stream/night.h"

namespace sne::stream {

/// Which slice of the alert a per-alert stage consumes.
enum class AlertInput : std::uint8_t {
  Tier1,  ///< [n, 1, crop, crop] signed-log difference crops
  Pair,   ///< [n, 2, S, S] matched reference/observation pairs
};

/// One per-alert tier: a single-output plan plus a threshold. The plan
/// is shared (the cascade builds its own private session); `pass_below`
/// inverts the gate for tiers whose score is a cost (e.g. an estimated
/// magnitude tier passing only bright alerts).
struct CascadeStage {
  std::string name;
  std::shared_ptr<const infer::InferencePlan> plan;
  AlertInput input = AlertInput::Tier1;
  float threshold = 0.0f;
  bool pass_below = false;
};

struct CascadeConfig {
  std::vector<CascadeStage> stages;  ///< per-alert tiers, in order
  /// Builder of the final joint tier's session (invoked once). Required.
  std::function<infer::JointSession()> joint;
  float joint_threshold = 0.0f;  ///< accept candidates with logit > this
  std::int64_t joint_batch = 32;  ///< completed rows per joint evaluation
  /// Completion-gate bound: most pending (incomplete) candidates held at
  /// once; the oldest is evicted beyond this. With the field-blocked
  /// night schedule a bound of at least one field never evicts a
  /// candidate that can still complete: its five alerts arrive within its
  /// field block, and everything pending from earlier fields (a band lost
  /// to a per-alert tier) is older, so FIFO drops those first. Evicted and
  /// incomplete counts are such dead candidates.
  std::int64_t max_pending = 1024;
};

/// Final candidate-level outcome of the joint tier, with the ground
/// truth carried along for evaluation.
struct Verdict {
  std::int64_t candidate = 0;
  float score = 0.0f;  ///< joint SNIa logit
  bool accepted = false;
  bool real = false;
  bool is_ia = false;
};

class FilterCascade {
 public:
  explicit FilterCascade(const CascadeConfig& config);

  /// Streams one chunk of the night through every tier. Survivor rows
  /// are forwarded as views of `batch`, which only needs to stay alive
  /// for the duration of the call.
  void push(const AlertBatch& batch);

  /// Ends the night: evaluates the partially filled joint batch and
  /// books still-incomplete candidates as `incomplete`. The cascade is
  /// one-shot — build a fresh one per night; push() after finish()
  /// throws.
  void finish();

  const eval::CascadeCounts& counts() const noexcept { return counts_; }
  const std::vector<Verdict>& verdicts() const noexcept { return verdicts_; }
  std::int64_t pending() const noexcept {
    return static_cast<std::int64_t>(pending_.size());
  }

 private:
  struct Tier {
    CascadeStage stage;
    infer::InferenceSession session;
    obs::Counter* survivors;
  };
  struct PendingRow {
    Tensor row;  ///< [bands·2·S·S + bands] joint-model sample layout
    std::uint8_t seen_mask = 0;
    bool real = false;
    bool is_ia = false;
  };

  void gate_add(const AlertBatch& batch, std::int64_t alert);
  void submit(std::int64_t candidate, PendingRow& row);
  void evict_to_bound();
  void flush_joint(bool force);

  std::vector<Tier> tiers_;
  infer::JointSession joint_;
  float joint_threshold_;
  std::int64_t joint_batch_;
  std::int64_t max_pending_;
  std::int64_t stamp_ = 0;      ///< from the joint session's glue
  std::int64_t joint_dim_ = 0;
  obs::Counter* joint_survivors_;
  obs::Gauge* pending_gauge_;

  std::unordered_map<std::int64_t, PendingRow> pending_;
  std::deque<std::int64_t> pending_order_;  ///< FIFO for eviction
  std::vector<Tensor> row_free_list_;
  /// Completed rows awaiting the joint tier, plus their ground truth.
  Tensor flush_rows_;  ///< [joint_batch, joint_dim]
  std::vector<Verdict> flush_truth_;
  std::int64_t flush_count_ = 0;
  Tensor joint_out_;  ///< reused joint-output buffer

  // Per-push scratch (member so steady state stays allocation-free).
  std::vector<std::int64_t> survivors_;
  std::vector<std::int64_t> next_survivors_;
  Tensor scores_;

  eval::CascadeCounts counts_;
  std::vector<Verdict> verdicts_;
  bool finished_ = false;
};

/// Convenience over NightStream + FilterCascade: pulls the whole night
/// through a fresh cascade and returns it (counts + verdicts inside).
FilterCascade run_night(NightStream& night, const CascadeConfig& config);

}  // namespace sne::stream
