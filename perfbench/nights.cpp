// nights.cpp — the night_survey and night_joint_all workloads.
//
// Untraced run: whole nights closed-loop (each night pulled as fast as
// the cascade takes it), alternating the fp32 and int8 joint tier, then
// two open-loop phases at fixed alert rates. Closed-loop throughput is
// that of the fastest night of each precision: every night does the same
// work, so slower nights measure the host's other tenants, not the code.
// Traced run: untraced and probed nights alternate (their headline
// difference is the probe cost), then one replay of the night's inputs
// through the public sessions attributes the cascade's push time to
// tier-1, the joint tier and the gate, and the sessions' time to plan
// steps; night_survey then serves the night through the scoring daemon
// (serve_cascade.cpp).
#include <algorithm>
#include <cstring>
#include <map>
#include <unordered_map>

#include "obs/obs.h"
#include "workloads.h"

namespace perfbench {

using sne::Precision;
using sne::Tensor;

namespace {

// Fixed arrival rates (alerts/s) of the open-loop phases, about 20% and
// 40% of each workload's closed-loop throughput on the reference machine
// (see README.md). Absolute, so a faster cascade shows as lower latency.
struct Rates {
  double light;
  double heavy;
};
constexpr Rates kSurveyRates{6000.0, 12000.0};
constexpr Rates kJointAllRates{1000.0, 2000.0};

// ---- set-up ----------------------------------------------------------

// Whether tier-1 passes the night's real slot: the joint tier then sees
// at least as many candidates as the night has real ones. On a few night
// seeds it rejects that slot in some band, the joint tier scores a
// handful of bogus candidates and the night runs far faster than the
// workload intends.
bool real_slot_reaches_joint(Fixture& fx) {
  if (!fx.tier1_plan) return true;
  double wall_s = 0.0;
  const stream::FilterCascade c =
      drive_night(*fx.night, fx.cascade(Precision::Fp32), wall_s, nullptr);
  return c.counts().tiers.back().in >= fx.real_candidates;
}

// Builds the fixture kSetups times (setup_s is the median time), on the
// first stratified night seed whose real slot reaches the joint tier.
// Builds on a rejected seed do the same work and count as set-ups too.
std::unique_ptr<Fixture> timed_setups(bool with_tier1, std::uint64_t seed,
                                      std::int64_t rows, double& setup_s) {
  std::vector<double> times;
  std::unique_ptr<Fixture> fx;
  const auto build = [&](std::uint64_t night_seed) {
    fx.reset();
    const auto t0 = Clock::now();
    fx = build_fixture(with_tier1, night_seed, NightShape{}, rows);
    times.push_back(seconds_since(t0));
  };
  std::uint64_t night_seed = 0;
  for (std::uint64_t nth = 0;; ++nth) {
    night_seed = stratified_night_seed(seed, NightShape{}, nth);
    build(night_seed);
    if (real_slot_reaches_joint(*fx)) break;
  }
  while (times.size() < static_cast<std::size_t>(kSetups)) build(night_seed);
  setup_s = median(times);
  return fx;
}

double fastest(const std::vector<double>& rates) {
  return *std::max_element(rates.begin(), rates.end());
}

// ---- replay ----------------------------------------------------------

double flops_of(const sne::nn::Sequential& net, sne::Shape shape) {
  double flops = 0.0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const sne::nn::Module& layer = net.layer(i);
    const sne::Shape out = layer.infer_shape(shape);
    if (const auto* conv = dynamic_cast<const sne::nn::Conv2d*>(&layer)) {
      flops += 2.0 * static_cast<double>(conv->out_channels() * out[2] *
                                         out[3] * conv->in_channels() *
                                         conv->kernel() * conv->kernel());
    } else if (const auto* fc = dynamic_cast<const sne::nn::Linear*>(&layer)) {
      flops += 2.0 * static_cast<double>(fc->in_features() *
                                         fc->out_features());
    }
    shape = out;
  }
  return flops;
}

// Conv and dense multiply-adds of one candidate (five band stamps through
// the CNN, then the classifier); pooling, activations and highway gates
// are left out.
double joint_gflop_per_candidate(const core::JointModel& joint) {
  const double cnn = flops_of(joint.band_cnn().net(), {1, 2, kStamp, kStamp});
  const double cls = flops_of(joint.classifier().net(),
                              {1, 2 * sne::astro::kNumBands});
  return (sne::astro::kNumBands * cnn + cls) / 1e9;
}

struct Replay {
  double tier1_s = 0.0;
  double joint_s = 0.0;
  double joint_int8_s = 0.0;
  std::int64_t joint_rows = 0;
  bool scores_match = true;
  std::map<std::string, double> steps;  ///< metric name → seconds
};

// Times `call` and attributes the plan-step spans it records. A joint
// session runs two plans back to back; steps recorded before the first
// plan's closing infer.run span belong to `first`, later ones to `second`.
template <typename Call>
double capture(const char* first, const char* second,
               std::map<std::string, double>& steps, Call&& call) {
  sne::obs::reset();
  const auto t0 = Clock::now();
  call();
  const double dt = seconds_since(t0);
  const char* plan = first;
  for (const sne::obs::SpanRecord& s : sne::obs::snapshot_spans()) {
    const std::string_view name = s.name;
    if (name == "infer.run" || name == "infer.run.warmup") {
      plan = second != nullptr ? second : first;
      continue;
    }
    if (name.rfind("infer.", 0) != 0 || name == "infer.joint") continue;
    const std::string metric = sanitize_metric_name(
        "infer.step." + std::string(plan) + "." +
        std::string(name.substr(6)) + "_s");
    steps[metric] += static_cast<double>(s.dur_ns) / 1e9;
  }
  return dt;
}

// Replays the inputs of `reference` (an fp32 night) through the public
// sessions: tier-1 over every batch's crops, and the fp32 and int8 joint
// sessions over the rows the gate completed, batched as the gate batches
// them. The fp32 replay must reproduce the night's joint scores.
Replay replay_night(Fixture& fx, const stream::FilterCascade& reference,
                    std::int64_t joint_batch) {
  Replay rep;
  const auto& verdicts = reference.verdicts();
  std::unordered_map<std::int64_t, std::size_t> scored;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    scored[verdicts[i].candidate] = i;
  }
  std::unique_ptr<infer::InferenceSession> tier1;
  if (fx.tier1_plan) {
    tier1 = std::make_unique<infer::InferenceSession>(fx.tier1_plan);
  }
  infer::JointSession fp32 = fx.joint_builder(Precision::Fp32)();
  infer::JointSession int8 = fx.joint_builder(Precision::Int8)();

  const std::int64_t dim = fx.joint_dim();
  const std::int64_t per_band = 2 * kStamp * kStamp;
  struct Partial {
    Tensor row;
    int seen = 0;
  };
  std::unordered_map<std::int64_t, Partial> partial;
  Tensor rows({joint_batch, dim});
  std::vector<std::size_t> row_verdict;
  Tensor out;
  Tensor t1_out;
  bool warm = false;

  const auto flush = [&] {
    const auto n = static_cast<std::int64_t>(row_verdict.size());
    if (n == 0) return;
    if (n < joint_batch) rows.resize({n, dim});
    if (!warm) {  // size the sessions' arenas outside the timing
      fp32.run(rows, out);
      int8.run(rows, out);
      warm = true;
    }
    rep.joint_int8_s += capture("joint_int8_cnn", "joint_int8_classifier",
                                rep.steps, [&] { int8.run(rows, out); });
    rep.joint_s += capture("joint_cnn", "joint_classifier", rep.steps,
                           [&] { fp32.run(rows, out); });
    for (std::int64_t r = 0; r < n; ++r) {
      const float want = verdicts[row_verdict[static_cast<std::size_t>(r)]].score;
      if (std::memcmp(&want, out.data() + r, sizeof(float)) != 0) {
        rep.scores_match = false;
      }
    }
    rep.joint_rows += n;
    row_verdict.clear();
    rows.resize({joint_batch, dim});
  };

  sne::obs::enable();
  fx.night->reset();
  stream::AlertBatch batch;
  bool tier1_warm = false;
  while (fx.night->next(batch)) {
    if (tier1) {
      if (!tier1_warm) {
        tier1->run(batch.tier1, t1_out);
        tier1_warm = true;
      }
      rep.tier1_s += capture("tier1", nullptr, rep.steps,
                             [&] { tier1->run(batch.tier1, t1_out); });
    }
    for (std::int64_t a = 0; a < batch.size(); ++a) {
      const float* m = batch.meta.data() + a * stream::meta::kColumns;
      const auto candidate =
          static_cast<std::int64_t>(m[stream::meta::kCandidate]);
      const auto it = scored.find(candidate);
      if (it == scored.end()) continue;
      const auto band = static_cast<std::int64_t>(m[stream::meta::kBand]);
      Partial& p = partial[candidate];
      if (p.row.size() == 0) p.row = Tensor({dim});
      std::memcpy(p.row.data() + band * per_band,
                  batch.pair.data() + a * per_band, per_band * sizeof(float));
      p.row[sne::astro::kNumBands * per_band + band] = m[stream::meta::kDate];
      if (++p.seen == sne::astro::kNumBands) {
        std::memcpy(rows.data() + static_cast<std::int64_t>(
                                      row_verdict.size()) * dim,
                    p.row.data(), static_cast<std::size_t>(dim) * sizeof(float));
        row_verdict.push_back(it->second);
        partial.erase(candidate);
        if (static_cast<std::int64_t>(row_verdict.size()) == joint_batch) {
          flush();
        }
      }
    }
  }
  flush();
  sne::obs::disable();
  sne::obs::reset();
  return rep;
}

// ---- the workload ----------------------------------------------------

RunResult run_night_workload(bool with_tier1, const Rates& rates,
                             const RunOptions& o) {
  RunResult r;
  double setup_s = 0.0;
  std::unique_ptr<Fixture> fx =
      timed_setups(with_tier1, o.seed,
                   with_tier1 ? kServedRows : kCalibrationRows, setup_s);
  stream::NightStream& night = *fx->night;
  const double alerts = static_cast<double>(night.total_alerts());

  CanaryPins pins;
  if (committed_pins(with_tier1, pins)) {
    r.checks_passed = check_canary(run_canary(*fx), pins, r.notes);
  } else {
    r.notes.push_back("no canary pins for this GEMM tier; pins unchecked");
  }

  const stream::CascadeConfig fp32_cfg = fx->cascade(Precision::Fp32);
  const stream::CascadeConfig int8_cfg = fx->cascade(Precision::Int8);
  double wall_s = 0.0;
  const stream::FilterCascade reference =
      drive_night(night, fp32_cfg, wall_s, nullptr);
  NightGate fp32_gate(reference);
  NightGate int8_gate(drive_night(night, int8_cfg, wall_s, nullptr));
  r.notes.push_back("night: " + std::to_string(night.total_alerts()) +
                    " alerts, " + std::to_string(fx->real_candidates) +
                    " real candidates, joint tier scores " +
                    std::to_string(reference.counts().tiers.back().in) + " of " +
                    std::to_string(night.config().candidates) +
                    " candidates");
  const auto book = [&r](const NightGate& g, const char* what) {
    r.notes.push_back(std::string(what) + " nights: " +
                      std::to_string(g.attempted()) + " run, " +
                      std::to_string(g.attempted() - g.failed()) +
                      " matched the reference, " +
                      std::to_string(g.failed()) + " failed");
  };

  const auto start = Clock::now();
  if (!o.trace) {
    // Closed loop: whole nights, fp32 and int8 alternating.
    std::vector<double> fp32_rate;
    std::vector<double> int8_rate;
    while (fp32_rate.empty() || int8_rate.empty() ||
           seconds_since(start) < 0.7 * o.seconds) {
      const bool int8 = fp32_rate.size() > int8_rate.size();
      const stream::FilterCascade c =
          drive_night(night, int8 ? int8_cfg : fp32_cfg, wall_s, nullptr);
      (int8 ? int8_gate : fp32_gate).check(c, true);
      (int8 ? int8_rate : fp32_rate).push_back(alerts / wall_s);
    }
    // Open loop at the two fixed rates; nights cut short by the phase
    // deadline are checked as prefixes of the reference.
    std::vector<double> light_ms;
    std::vector<double> heavy_ms;
    std::uint64_t arrival = splitmix(o.seed ^ 0x0A11);
    for (const bool heavy : {false, true}) {
      const auto deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(0.15 * o.seconds));
      do {
        bool finished = false;
        const stream::FilterCascade c = drive_night_open(
            night, fp32_cfg, heavy ? rates.heavy : rates.light,
            arrival = splitmix(arrival), deadline,
            heavy ? heavy_ms : light_ms, finished);
        fp32_gate.check(c, finished);
      } while (Clock::now() < deadline);
    }
    r.metrics.set("setup_s", setup_s, "s");
    r.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    r.metrics.set("stamps_per_s", fastest(fp32_rate), "1/s");
    r.metrics.set("int8_stamps_per_s", fastest(int8_rate), "1/s");
    r.notes.push_back("closed loop: " + std::to_string(fp32_rate.size()) +
                      " fp32 nights (median " +
                      std::to_string(median(fp32_rate)) + " stamps/s), " +
                      std::to_string(int8_rate.size()) + " int8 nights (median " +
                      std::to_string(median(int8_rate)) + " stamps/s)");
    add_latency(r, "light", light_ms);
    add_latency(r, "heavy", heavy_ms);
  } else {
    // Untraced and probed fp32 nights alternate; obs capture is on for
    // the probed ones.
    std::vector<double> plain_rate;
    std::vector<double> traced_rate;
    std::vector<double> wait_s, push_s, finish_s;
    while (traced_rate.size() < 2 ||
           seconds_since(start) < 0.6 * o.seconds) {
      const bool traced = plain_rate.size() > traced_rate.size();
      NightTimes t;
      if (traced) sne::obs::enable();
      const stream::FilterCascade c =
          drive_night(night, fp32_cfg, wall_s, traced ? &t : nullptr);
      sne::obs::disable();
      sne::obs::reset();
      fp32_gate.check(c, true);
      (traced ? traced_rate : plain_rate).push_back(alerts / wall_s);
      if (traced) {
        wait_s.push_back(t.wait_s);
        push_s.push_back(t.push_s);
        finish_s.push_back(t.finish_s);
      }
    }
    const Replay rep = replay_night(*fx, reference, fp32_cfg.joint_batch);
    if (!rep.scores_match) {
      r.checks_passed = false;
      r.notes.push_back("replay: fp32 joint scores differ from the night's");
    }
    Metrics& m = r.metrics;
    m.set("stream.night.wait_s", median(wait_s), "s");
    m.set("stream.cascade.push_s", median(push_s), "s");
    m.set("stream.cascade.finish_s", median(finish_s), "s");
    const sne::eval::CascadeCounts& counts = reference.counts();
    if (with_tier1) {
      m.set("stream.tier1.in", counts.tiers.front().in, "count");
      m.set("stream.tier1.passed", counts.tiers.front().passed, "count");
    }
    m.set("stream.joint.in", counts.tiers.back().in, "count");
    m.set("stream.joint.passed", counts.tiers.back().passed, "count");
    m.set("stream.gate.evicted", counts.evicted, "count");
    m.set("stream.gate.incomplete", counts.incomplete, "count");
    m.set("stream.joint.useful_ratio",
          static_cast<double>(counts.tiers.back().in) /
              static_cast<double>(night.config().candidates),
          "ratio");
    m.set("infer.tier1.run_s", rep.tier1_s, "s");
    m.set("core.joint.run_s", rep.joint_s, "s");
    m.set("core.joint_int8.run_s", rep.joint_int8_s, "s");
    m.set("core.joint.gflop_per_candidate",
          joint_gflop_per_candidate(*fx->joint), "GFLOP");
    // The joint tier flushes inside push() and finish(): the gate's own
    // time is what both calls spend beyond the two replays (a difference
    // of measurements, so it reads near zero where the gate does little).
    m.set("stream.gate.self_s",
          median(push_s) + median(finish_s) - rep.tier1_s - rep.joint_s, "s");
    for (const auto& [name, seconds] : rep.steps) m.set(name, seconds, "s");
    const double plain = fastest(plain_rate);
    const double traced = fastest(traced_rate);
    m.set("trace.stamps_per_s.untraced", plain, "1/s");
    m.set("trace.stamps_per_s.traced", traced, "1/s");
    m.set("trace.stamps_per_s.delta", traced - plain, "1/s");
    if (with_tier1) serve_night(*fx, o, 0.5 * o.seconds, r);
  }
  book(fp32_gate, "fp32");
  book(int8_gate, "int8");
  r.attempted += fp32_gate.attempted() + int8_gate.attempted();
  r.failed += fp32_gate.failed() + int8_gate.failed();
  return r;
}

}  // namespace

RunResult run_night_survey(const RunOptions& o) {
  return run_night_workload(true, kSurveyRates, o);
}

RunResult run_night_joint_all(const RunOptions& o) {
  return run_night_workload(false, kJointAllRates, o);
}

}  // namespace perfbench
