// Tests of the benchmark harness itself: due-time latency accounting in
// the load generator, the correctness gate, and metric naming.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "load.h"
#include "serve/server.h"
#include "workloads.h"

using namespace perfbench;
namespace serve = sne::serve;

namespace {

constexpr std::int64_t kWidth = 4;

// Scores a row as the sum of its values; sleeps `stall` inside the
// `stall_at`-th batch.
class StallingScorer final : public serve::Scorer {
 public:
  StallingScorer(std::int64_t stall_at, std::chrono::milliseconds stall)
      : stall_at_(stall_at), stall_(stall) {}
  std::int64_t sample_numel() const override { return kWidth; }
  std::int64_t output_numel() const override { return 1; }
  void run(const sne::Tensor& batch, sne::Tensor& out) override {
    if (++batches_ == stall_at_) std::this_thread::sleep_for(stall_);
    const std::int64_t n = batch.extent(0);
    out.resize({n, 1});
    for (std::int64_t r = 0; r < n; ++r) {
      float sum = 0.0f;
      for (std::int64_t c = 0; c < kWidth; ++c) sum += batch.at(r, c);
      out[r] = sum;
    }
  }

 private:
  std::int64_t stall_at_;
  std::chrono::milliseconds stall_;
  std::int64_t batches_ = 0;
};

struct Served {
  std::string path;
  sne::Tensor rows;
  std::vector<float> expected;
  std::unique_ptr<serve::ScoreServer> server;
};

Served serve_sums(std::int64_t stall_at, std::chrono::milliseconds stall) {
  Served s;
  s.path = "perfbench-test-" + std::to_string(::getpid()) + ".sock";
  s.rows = sne::Tensor({8, kWidth});
  for (std::int64_t r = 0; r < 8; ++r) {
    float sum = 0.0f;
    for (std::int64_t c = 0; c < kWidth; ++c) {
      s.rows.at(r, c) = static_cast<float>(r * kWidth + c);
      sum += s.rows.at(r, c);
    }
    s.expected.push_back(sum);
  }
  serve::ScoreServerConfig cfg;
  cfg.unix_path = s.path;
  cfg.batcher.max_batch = 4;
  cfg.batcher.max_delay_us = 500;
  serve::ScorerSpec spec;
  spec.custom = [stall_at, stall] {
    return std::make_unique<StallingScorer>(stall_at, stall);
  };
  s.server = std::make_unique<serve::ScoreServer>(cfg, std::move(spec));
  s.server->start();
  return s;
}

LoadReport open_loop(const Served& s, double rate, double seconds) {
  LoadPlan plan;
  plan.rate = rate;
  plan.seconds = seconds;
  plan.seed = 5;
  return run_load(s.path, s.rows, s.expected, plan);
}

}  // namespace

TEST(LoadGenerator, ScorerStallInflatesLatencyOfRequestsQueuedBehindIt) {
  constexpr double kRate = 400.0;
  const Served calm = serve_sums(-1, std::chrono::milliseconds(0));
  const LoadReport base = open_loop(calm, kRate, 1.0);
  ASSERT_EQ(base.failed(), 0);
  ASSERT_GT(base.sent, 200);

  // One 200 ms stall: every request due while it lasts waits for its
  // end, so about rate × stall requests read at least part of it.
  const Served stalled = serve_sums(40, std::chrono::milliseconds(200));
  const LoadReport hit = open_loop(stalled, kRate, 1.0);
  ASSERT_EQ(hit.failed(), 0);
  const double worst =
      *std::max_element(hit.latency_ms.begin(), hit.latency_ms.end());
  EXPECT_GE(worst, 190.0);
  const auto delayed = std::count_if(hit.latency_ms.begin(),
                                     hit.latency_ms.end(),
                                     [](double ms) { return ms >= 50.0; });
  // ≈ 400/s × 150 ms of the stall are due at least 50 ms before its end.
  EXPECT_GE(delayed, 30);
  EXPECT_GT(percentile(hit.latency_ms, 0.99),
            10.0 * percentile(base.latency_ms, 0.99));
}

TEST(LoadGenerator, ClosedLoopKeepsEveryAnswerBitwiseChecked) {
  const Served s = serve_sums(-1, std::chrono::milliseconds(0));
  LoadPlan plan;
  plan.window = 8;
  plan.seconds = 0.3;
  sne::Tensor rows = s.rows;
  std::vector<float> wrong = s.expected;
  wrong[3] += 1.0f;  // every request carrying row 3 must be flagged
  const LoadReport report = run_load(s.path, rows, wrong, plan);
  ASSERT_GT(report.sent, 16);
  EXPECT_EQ(report.mismatched, (report.sent + 4) / 8);
  EXPECT_EQ(report.succeeded + report.mismatched, report.sent);
}

TEST(NightGate, PerturbedDigestIsReportedAsAFailure) {
  pin_runtime();
  NightShape tiny;
  tiny.candidates = 24;
  tiny.pool = 4;
  tiny.field = 8;
  tiny.batch = 16;
  tiny.real_fraction = 0.5;
  auto fx = build_fixture(false, 11, tiny, 8);
  const stream::CascadeConfig fp32 = fx->cascade(sne::Precision::Fp32);
  const stream::CascadeConfig int8 = fx->cascade(sne::Precision::Int8);
  double wall_s = 0.0;
  const stream::FilterCascade reference =
      drive_night(*fx->night, fp32, wall_s, nullptr);
  ASSERT_FALSE(reference.verdicts().empty());

  // The same inputs score to the same digest; int8 scores perturb it
  // while every count stays the same.
  NightGate gate(reference);
  EXPECT_TRUE(gate.check(drive_night(*fx->night, fp32, wall_s, nullptr), true));
  const stream::FilterCascade perturbed =
      drive_night(*fx->night, int8, wall_s, nullptr);
  ASSERT_EQ(night_key(perturbed).counts, gate.key().counts);
  EXPECT_FALSE(gate.check(perturbed, true));
  EXPECT_FALSE(gate.check(perturbed, false));  // not a prefix either
  EXPECT_EQ(gate.attempted(), 3);
  EXPECT_EQ(gate.failed(), 2);

  RunResult result;
  result.attempted = gate.attempted();
  result.failed = gate.failed();
  EXPECT_FALSE(result.correct());
  EXPECT_NE(result_json(result).find("\"correct\": false"), std::string::npos);

  const CanaryPins got{gate.key(), gate.key()};
  CanaryPins pins = got;
  pins.int8.digest ^= 1;
  std::vector<std::string> notes;
  EXPECT_FALSE(check_canary(got, pins, notes));
  EXPECT_EQ(notes.size(), 1u);
}

TEST(Metrics, NamesMatchTheAllowedAlphabet) {
  EXPECT_TRUE(valid_metric_name("stream.gate.self_s"));
  EXPECT_TRUE(valid_metric_name("serve.light.server.p99_ms"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("infer.0.Conv2d+bn"));
  EXPECT_FALSE(valid_metric_name("a b"));
  EXPECT_EQ(sanitize_metric_name("infer.step.tier1.0.Conv2d+bn+prelu_s"),
            "infer.step.tier1.0.Conv2d_bn_prelu_s");
  Metrics m;
  EXPECT_THROW(m.set("p99 ms", 1.0, "ms"), std::invalid_argument);
  m.set("p99_ms", 1.0, "ms");
  m.set("p99_ms", 2.0, "ms");
  ASSERT_EQ(m.all().size(), 1u);
  EXPECT_EQ(m.all().front().value, 2.0);
}
