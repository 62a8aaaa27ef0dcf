// workloads.h — the two perfbench workloads and the pieces they share.
//
//   night_survey     a bogus-dominated survey night through FilterCascade
//                    with the trained tier-1 CNN in front of the joint tier
//                    (what `sne stream` runs);
//   night_joint_all  the identical night with no per-alert tier: the gate
//                    completes every candidate and the joint model scores
//                    all of them (the archive-reprocessing baseline);
//
// The traced night_survey run also serves the night through the scoring
// daemon (serve_night) to measure the serve layers.
//
// Everything that defines a workload — model shapes, night size, runtime
// (pool threads, prefetch depth, GEMM tier), arrival rates — is pinned
// here and in the .cpp files; only the seed varies between runs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/inference.h"
#include "core/joint_model.h"
#include "harness.h"
#include "sim/dataset_builder.h"
#include "stream/cascade.h"
#include "stream/night.h"
#include "stream/tier1.h"

namespace perfbench {

namespace core = sne::core;
namespace infer = sne::infer;
namespace sim = sne::sim;
namespace stream = sne::stream;

inline constexpr std::int64_t kStamp = 44;  ///< `sne train`/`sne serve` default
inline constexpr std::int64_t kCrop = 21;
/// One pool thread and inline night production (prefetch depth 0), so a
/// night runs on one thread. On a shared virtual machine a second thread
/// measures the host's scheduler: a prefetching producer overlapped with
/// the cascade in a few runs only (their fastest nights 1.7x faster), and
/// a second pool thread sped up neither night.
inline constexpr int kPoolThreads = 1;
inline constexpr std::int64_t kPrefetch = 0;

/// Complete set-ups timed per run; setup_s is their median.
inline constexpr int kSetups = 5;

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 40.0;
  bool trace = false;
};

/// Pins the process runtime every workload runs under: pool threads,
/// prefetch depth, tracing off, and the best GEMM tier the CPU supports
/// (never SNE_* environment overrides).
void pin_runtime();

RunResult run_night_survey(const RunOptions& options);
RunResult run_night_joint_all(const RunOptions& options);

// ---- shared set-up ---------------------------------------------------

struct NightShape {
  std::int64_t candidates = 1000;
  std::int64_t pool = 50;
  std::int64_t field = 32;
  std::int64_t batch = 64;
  double real_fraction = 0.02;
};

/// The night seed for benchmark seed `seed`: the `nth` (from 0) of a
/// seeded sequence of candidates whose pool draws exactly round(pool ·
/// real_fraction) real slots, so every seed runs a night with the
/// intended real share and runs differ in which candidates are real,
/// their arrival order and their artifacts, not in how many there are.
std::uint64_t stratified_night_seed(std::uint64_t seed,
                                    const NightShape& shape,
                                    std::uint64_t nth = 0);

/// One complete set-up: dataset, models, plans, a warmed night and the
/// int8 calibration recorded on its rows. Pinned in memory: the night
/// borrows the dataset and the plans borrow the models.
struct Fixture {
  sim::SnDataset data;
  std::vector<std::int64_t> samples;
  std::unique_ptr<sne::stream::Tier1Cnn> tier1;  ///< null without a tier-1
  std::shared_ptr<const sne::infer::InferencePlan> tier1_plan;
  std::unique_ptr<sne::core::JointModel> joint;
  sne::infer::JointCalibration calibration;
  std::unique_ptr<sne::stream::NightStream> night;
  /// Complete candidates of the warm pass in the cascade wire layout
  /// (joint row, then the five tier-1 crops), first `rows` of the night.
  sne::Tensor rows;
  std::int64_t real_candidates = 0;  ///< transients in the night

  explicit Fixture(sim::SnDataset dataset) : data(std::move(dataset)) {}
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  std::int64_t joint_dim() const;

  /// Cascade over this fixture's plans; the joint tier at `precision`.
  sne::stream::CascadeConfig cascade(sne::Precision precision) const;
  /// Session builder for the joint tier at `precision`.
  std::function<sne::infer::JointSession()> joint_builder(
      sne::Precision precision) const;
};

/// Rows the int8 joint tier is calibrated on, and rows the served night
/// cycles through.
inline constexpr std::int64_t kCalibrationRows = 64;
inline constexpr std::int64_t kServedRows = 256;

/// Builds a fixture: trains tier-1 when `with_tier1`, warms the night of
/// `night_seed`, keeps its first `rows` (at least kCalibrationRows)
/// complete candidates and calibrates the int8 joint tier on the first
/// kCalibrationRows of them.
std::unique_ptr<Fixture> build_fixture(bool with_tier1,
                                       std::uint64_t night_seed,
                                       const NightShape& shape,
                                       std::int64_t rows);

// ---- night driving ---------------------------------------------------

/// Loop timings of one night (filled only when probing).
struct NightTimes {
  double wait_s = 0.0;    ///< blocked in NightStream::next
  double push_s = 0.0;    ///< inside FilterCascade::push
  double finish_s = 0.0;  ///< inside FilterCascade::finish
};

/// Pulls the whole night through a fresh cascade, driving next/push/
/// finish itself. `wall_s` gets the night's wall time; `times`, when
/// non-null, probes each call.
sne::stream::FilterCascade drive_night(sne::stream::NightStream& night,
                                       const sne::stream::CascadeConfig& cfg,
                                       double& wall_s, NightTimes* times);

/// Drives the night open-loop: alerts arrive as a seeded Poisson process
/// at `rate` per second, and a batch is pushed once its last alert is
/// due. Each alert's latency, from its due time to the return of the push
/// that carried it, is appended to `latency_ms`. Stops early (without
/// finish()) once `deadline` passes; `finished` says which.
sne::stream::FilterCascade drive_night_open(
    sne::stream::NightStream& night, const sne::stream::CascadeConfig& cfg,
    double rate, std::uint64_t arrival_seed, Clock::time_point deadline,
    std::vector<double>& latency_ms, bool& finished);

/// Compares timed nights against the reference night of the same inputs.
/// A finished night must match counts and digest; a night cut short must
/// have produced a prefix of the reference verdicts.
class NightGate {
 public:
  explicit NightGate(const sne::stream::FilterCascade& reference);

  /// Returns false (and counts a failure) on a mismatch.
  bool check(const sne::stream::FilterCascade& night, bool finished);

  const NightKey& key() const noexcept { return key_; }
  std::int64_t attempted() const noexcept { return attempted_; }
  std::int64_t failed() const noexcept { return failed_; }

 private:
  NightKey key_;
  std::vector<sne::stream::Verdict> verdicts_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// ---- the served night -------------------------------------------------

/// Serves `fx.rows` through an in-process ScoreServer hosting the cascade
/// scorer for about `seconds` (serve_cascade.cpp), checking every
/// response, and adds the serve.* per-layer metrics, the probe cost and
/// the operations to `r`.
void serve_night(const Fixture& fx, const RunOptions& o, double seconds,
                 RunResult& r);

// ---- pinned canary ----------------------------------------------------

/// Per-tier counts and digest of the fixed canary night (seed, size and
/// calibration all pinned), per workload variant and precision.
struct CanaryPins {
  NightKey fp32;
  NightKey int8;
};

/// The committed pins for `with_tier1` on the running GEMM tier; false
/// when the tier has no pins.
bool committed_pins(bool with_tier1, CanaryPins& pins);

/// Runs the canary night at fp32 and int8 on the fixture's models.
CanaryPins run_canary(const Fixture& fixture);

/// Checks the canary against `pins`, noting each mismatch; false on any.
bool check_canary(const CanaryPins& got, const CanaryPins& pins,
                  std::vector<std::string>& notes);

}  // namespace perfbench
