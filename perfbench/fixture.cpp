// fixture.cpp — set-up, night driving and the correctness gate shared by
// the night and serve workloads.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "tensor/gemm.h"
#include "tensor/rng.h"
#include "tensor/runtime.h"
#include "workloads.h"

namespace perfbench {

using sne::Precision;
using sne::Tensor;

void pin_runtime() {
  sne::RuntimeConfig rc = sne::RuntimeConfig::current();
  rc.threads = kPoolThreads;
  rc.prefetch = kPrefetch;
  rc.trace = false;
  rc.trace_path.clear();
  rc.precision = Precision::Fp32;
  sne::RuntimeConfig::set_current(rc);
  sne::set_gemm_tier(sne::gemm_tier_supported(sne::GemmTier::Avx2Fma)
                         ? sne::GemmTier::Avx2Fma
                         : sne::GemmTier::Scalar);
}

std::int64_t Fixture::joint_dim() const {
  return core::JointModel::input_dim(kStamp);
}

std::function<infer::JointSession()> Fixture::joint_builder(
    Precision precision) const {
  const core::JointModel* model = joint.get();
  const infer::JointCalibration* table = &calibration;
  return [model, table, precision] {
    core::SessionOptions options;
    if (precision == Precision::Int8) {
      options.precision = Precision::Int8;
      options.joint_calibration = table;
    }
    return core::make_session(*model, options);
  };
}

stream::CascadeConfig Fixture::cascade(Precision precision) const {
  stream::CascadeConfig cfg;
  if (tier1_plan) {
    cfg.stages.push_back(stream::CascadeStage{
        "tier1", tier1_plan, stream::AlertInput::Tier1, 0.0f, false});
  }
  cfg.joint = joint_builder(precision);
  cfg.max_pending = 4 * night->config().field;
  return cfg;
}

namespace {

// The dataset the tier-1 CNN trains on and the night tiles its pool over.
sim::SnDataset build_dataset() {
  sim::SnDataset::Config cfg;
  cfg.num_samples = 24;
  cfg.seed = 9;
  cfg.catalog.count = 150;
  return sim::SnDataset::build(cfg);
}

stream::NightConfig night_config(const NightShape& shape,
                                 std::uint64_t seed) {
  stream::NightConfig cfg;
  cfg.candidates = shape.candidates;
  cfg.pool = shape.pool;
  cfg.field = shape.field;
  cfg.batch = shape.batch;
  cfg.stamp = kStamp;
  cfg.crop = kCrop;
  cfg.real_fraction = shape.real_fraction;
  cfg.seed = seed;
  return cfg;
}

// NightStream's per-slot real/bogus draw (src/stream/night.cpp).
std::uint64_t slot_mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  return x;
}

// Pulls the whole night once (rendering its pool) and returns its first
// `max_rows` complete candidates in the cascade wire layout: the joint
// row [bands·2·S·S pairs, bands dates] followed by the bands tier-1 crops.
Tensor collect_rows(stream::NightStream& night, std::int64_t joint_dim,
                    std::int64_t max_rows, std::int64_t* real_candidates) {
  constexpr std::int64_t kBands = sne::astro::kNumBands;
  const std::int64_t c2 = kCrop * kCrop;
  const std::int64_t per_band = 2 * kStamp * kStamp;
  const std::int64_t width = joint_dim + kBands * c2;
  Tensor rows({max_rows, width});
  std::int64_t filled = 0;
  struct Partial {
    std::vector<float> row;
    int seen = 0;
  };
  std::unordered_map<std::int64_t, Partial> partial;

  std::int64_t real_alerts = 0;
  stream::AlertBatch batch;
  while (night.next(batch)) {
    for (std::int64_t a = 0; a < batch.size(); ++a) {
      const float* m = batch.meta.data() + a * stream::meta::kColumns;
      if (m[stream::meta::kReal] != 0.0f) ++real_alerts;
      if (filled == max_rows) continue;
      const auto candidate =
          static_cast<std::int64_t>(m[stream::meta::kCandidate]);
      const auto band = static_cast<std::int64_t>(m[stream::meta::kBand]);
      Partial& p = partial[candidate];
      if (p.row.empty()) p.row.resize(static_cast<std::size_t>(width));
      std::memcpy(p.row.data() + band * per_band,
                  batch.pair.data() + a * per_band, per_band * sizeof(float));
      p.row[static_cast<std::size_t>(kBands * per_band + band)] =
          m[stream::meta::kDate];
      std::memcpy(p.row.data() + joint_dim + band * c2,
                  batch.tier1.data() + a * c2, c2 * sizeof(float));
      if (++p.seen == kBands) {
        std::memcpy(rows.data() + filled * width, p.row.data(),
                    static_cast<std::size_t>(width) * sizeof(float));
        ++filled;
        partial.erase(candidate);
      }
    }
  }
  night.reset();
  if (real_candidates != nullptr) *real_candidates = real_alerts / kBands;
  if (filled < max_rows) rows.resize({filled, width});
  return rows;
}

// Calibration batches: the joint columns of the first kCalibrationRows
// of `rows`, 32 rows at a time.
infer::JointCalibration calibrate_on(const core::JointModel& joint,
                                     const Tensor& rows,
                                     std::int64_t joint_dim) {
  const std::int64_t n = std::min(rows.extent(0), kCalibrationRows);
  const std::int64_t width = rows.extent(1);
  std::vector<Tensor> batches;
  for (std::int64_t lo = 0; lo < n; lo += 32) {
    const std::int64_t hi = std::min(n, lo + 32);
    Tensor b({hi - lo, joint_dim});
    for (std::int64_t r = lo; r < hi; ++r) {
      std::memcpy(b.data() + (r - lo) * joint_dim, rows.data() + r * width,
                  static_cast<std::size_t>(joint_dim) * sizeof(float));
    }
    batches.push_back(std::move(b));
  }
  return core::calibrate(joint, batches);
}

}  // namespace

std::uint64_t stratified_night_seed(std::uint64_t seed,
                                    const NightShape& shape,
                                    std::uint64_t nth) {
  const auto target = static_cast<std::int64_t>(
      std::llround(static_cast<double>(shape.pool) * shape.real_fraction));
  for (std::uint64_t k = 0;; ++k) {
    const std::uint64_t candidate =
        slot_mix(seed * 0x9E3779B97F4A7C15ULL + k + 1);
    std::int64_t real = 0;
    for (std::int64_t s = 0; s < shape.pool; ++s) {
      sne::Rng rng(candidate ^ slot_mix(static_cast<std::uint64_t>(s) + 1));
      if (rng.bernoulli(shape.real_fraction)) ++real;
    }
    if (real == target && nth-- == 0) return candidate;
  }
}

std::unique_ptr<Fixture> build_fixture(bool with_tier1,
                                       std::uint64_t night_seed,
                                       const NightShape& shape,
                                       std::int64_t rows) {
  auto fx = std::make_unique<Fixture>(build_dataset());
  fx->samples.resize(static_cast<std::size_t>(fx->data.size()));
  for (std::int64_t i = 0; i < fx->data.size(); ++i) {
    fx->samples[static_cast<std::size_t>(i)] = i;
  }
  if (with_tier1) {
    stream::Tier1Config t1cfg;
    t1cfg.crop = kCrop;
    fx->tier1 = stream::train_tier1(fx->data, fx->samples, t1cfg);
    fx->tier1_plan = stream::compile_tier1_plan(*fx->tier1);
  }
  // The joint tier is seeded and untrained: its cost per candidate, which
  // is what the benchmark measures, does not depend on its weights.
  sne::Rng rng(7);
  core::JointModelConfig jcfg;
  jcfg.cnn.input_size = kStamp;
  fx->joint = std::make_unique<core::JointModel>(jcfg, rng);

  fx->night = std::make_unique<stream::NightStream>(
      fx->data, fx->samples, night_config(shape, night_seed));
  fx->rows = collect_rows(*fx->night, fx->joint_dim(), rows,
                          &fx->real_candidates);
  fx->calibration = calibrate_on(*fx->joint, fx->rows, fx->joint_dim());
  return fx;
}

// ---- night driving ---------------------------------------------------

stream::FilterCascade drive_night(stream::NightStream& night,
                                  const stream::CascadeConfig& cfg,
                                  double& wall_s, NightTimes* times) {
  night.reset();
  stream::FilterCascade cascade(cfg);
  stream::AlertBatch batch;
  const auto t0 = Clock::now();
  if (times == nullptr) {
    while (night.next(batch)) cascade.push(batch);
    cascade.finish();
  } else {
    for (;;) {
      const auto a = Clock::now();
      const bool more = night.next(batch);
      const auto b = Clock::now();
      times->wait_s += std::chrono::duration<double>(b - a).count();
      if (!more) break;
      cascade.push(batch);
      times->push_s += seconds_since(b);
    }
    const auto f = Clock::now();
    cascade.finish();
    times->finish_s += seconds_since(f);
  }
  wall_s = seconds_since(t0);
  return cascade;
}

stream::FilterCascade drive_night_open(stream::NightStream& night,
                                       const stream::CascadeConfig& cfg,
                                       double rate, std::uint64_t arrival_seed,
                                       Clock::time_point deadline,
                                       std::vector<double>& latency_ms,
                                       bool& finished) {
  night.reset();
  stream::FilterCascade cascade(cfg);
  sne::Rng arrivals(arrival_seed);
  std::vector<double> due_s;  // per alert of the current batch
  double clock_s = 0.0;       // due time of the latest alert
  stream::AlertBatch batch;
  finished = false;
  const auto t0 = Clock::now();
  while (Clock::now() < deadline) {
    if (!night.next(batch)) {
      cascade.finish();
      finished = true;
      break;
    }
    due_s.resize(static_cast<std::size_t>(batch.size()));
    for (double& d : due_s) {
      clock_s += -std::log(1.0 - arrivals.uniform()) / rate;
      d = clock_s;
    }
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(due_s.back())));
    cascade.push(batch);
    const double done_s = seconds_since(t0);
    for (const double d : due_s) latency_ms.push_back(1e3 * (done_s - d));
  }
  return cascade;
}

// ---- correctness gate ------------------------------------------------

NightGate::NightGate(const stream::FilterCascade& reference)
    : key_(night_key(reference)), verdicts_(reference.verdicts()) {}

bool NightGate::check(const stream::FilterCascade& night, bool finished) {
  ++attempted_;
  bool ok = false;
  if (finished) {
    ok = night_key(night) == key_;
  } else {
    const auto& got = night.verdicts();
    ok = got.size() <= verdicts_.size() &&
         verdict_digest(got, got.size()) ==
             verdict_digest(verdicts_, got.size());
  }
  if (!ok) ++failed_;
  return ok;
}

// ---- pinned canary ---------------------------------------------------

namespace {

// A small real-rich night (so the joint tier scores candidates at every
// precision) whose inputs, calibration and seed never change.
constexpr std::uint64_t kCanarySeed = 2026;

NightShape canary_shape() {
  NightShape s;
  s.candidates = 64;
  s.pool = 8;
  s.field = 16;
  s.batch = 32;
  s.real_fraction = 0.5;
  return s;
}

}  // namespace

CanaryPins run_canary(const Fixture& fixture) {
  stream::NightStream night(fixture.data, fixture.samples,
                            night_config(canary_shape(), kCanarySeed));
  const Tensor rows = collect_rows(night, fixture.joint_dim(), 32, nullptr);
  const infer::JointCalibration table =
      calibrate_on(*fixture.joint, rows, fixture.joint_dim());

  CanaryPins pins;
  for (const Precision p : {Precision::Fp32, Precision::Int8}) {
    stream::CascadeConfig cfg;
    if (fixture.tier1_plan) {
      cfg.stages.push_back(stream::CascadeStage{"tier1", fixture.tier1_plan,
                                                stream::AlertInput::Tier1,
                                                0.0f, false});
    }
    const core::JointModel* model = fixture.joint.get();
    cfg.joint = [model, &table, p] {
      core::SessionOptions options;
      if (p == Precision::Int8) {
        options.precision = Precision::Int8;
        options.joint_calibration = &table;
      }
      return core::make_session(*model, options);
    };
    cfg.max_pending = 4 * canary_shape().field;
    double wall_s = 0.0;
    const stream::FilterCascade cascade =
        drive_night(night, cfg, wall_s, nullptr);
    (p == Precision::Fp32 ? pins.fp32 : pins.int8) = night_key(cascade);
  }
  return pins;
}

bool check_canary(const CanaryPins& got, const CanaryPins& pins,
                  std::vector<std::string>& notes) {
  bool ok = true;
  if (!(got.fp32 == pins.fp32)) {
    notes.push_back("canary fp32 mismatch: got " + got.fp32.to_string() +
                    ", pinned " + pins.fp32.to_string());
    ok = false;
  }
  if (!(got.int8 == pins.int8)) {
    notes.push_back("canary int8 mismatch: got " + got.int8.to_string() +
                    ", pinned " + pins.int8.to_string());
    ok = false;
  }
  return ok;
}

bool committed_pins(bool with_tier1, CanaryPins& pins) {
  // Regenerate with `sne_perfbench --print-pins [--gemm-tier scalar]`
  // after a change that is meant to alter scores.
  struct Pinned {
    sne::GemmTier tier;
    bool with_tier1;
    std::uint64_t fp32;
    std::uint64_t int8;
  };
  static constexpr Pinned kPins[] = {
      {sne::GemmTier::Avx2Fma, true, 0x644c86954dbcebefULL,
       0xd0e2be6c84747fadULL},
      {sne::GemmTier::Avx2Fma, false, 0xc2f19078bcd9108bULL,
       0x68777f7eedab333bULL},
      {sne::GemmTier::Scalar, true, 0x2f4903e74008f987ULL,
       0x433757f948f1e21bULL},
      {sne::GemmTier::Scalar, false, 0x2f5f9424e7ba057bULL,
       0xe16a9f4e6471bc91ULL},
  };
  // Per-tier (in, passed), then evicted and incomplete. Copied from
  // arrays: GCC 12 at -O2 and above with AVX-512 miscompiles the
  // initializer list {64, 64, 0, 0} into four 64s.
  static constexpr std::int64_t kCascade[] = {320, 203, 24, 24, 0, 36};
  static constexpr std::int64_t kJointAll[] = {64, 64, 0, 0};
  const std::vector<std::int64_t> counts =
      with_tier1 ? std::vector<std::int64_t>(std::begin(kCascade),
                                             std::end(kCascade))
                 : std::vector<std::int64_t>(std::begin(kJointAll),
                                             std::end(kJointAll));
  for (const Pinned& p : kPins) {
    if (p.tier == sne::gemm_tier() && p.with_tier1 == with_tier1) {
      pins.fp32 = NightKey{counts, p.fp32};
      pins.int8 = NightKey{counts, p.int8};
      return true;
    }
  }
  return false;
}

}  // namespace perfbench
