// serve_cascade.cpp — the night served through the scoring daemon: an
// in-process ScoreServer hosting stream::make_cascade_scorer_spec with
// the `sne serve` defaults, loaded over one unix connection in three
// phases:
//
//   light      open loop at a fixed rate (batches flush on the deadline);
//   heavy      open loop at twice that (fuller batches);
//   saturated  closed loop with a fixed window, in alternating rounds with
//              and without the timing probes (their difference is the
//              probe cost).
//
// Request rows are complete candidates of the night in the cascade wire
// layout, cycled; every response must equal a direct CascadeScorer::run
// of its row. Only the traced night_survey run serves: on a virtual
// machine the daemon's throughput and tail latency moved too much between
// runs to carry an end-to-end bound (README.md), so its layers are
// measured here without one.
#include <unistd.h>

#include <algorithm>

#include "load.h"
#include "obs/obs.h"
#include "serve/server.h"
#include "stream/cascade_scorer.h"
#include "workloads.h"

namespace perfbench {

using sne::Precision;
using sne::Tensor;

namespace {

namespace serve = sne::serve;

// Fixed request rates of the open-loop phases (requests/s), about 20% and
// 40% of the closed-loop saturation on the reference machine (README.md).
constexpr double kLightRps = 3000.0;
constexpr double kHeavyRps = 6000.0;
constexpr int kWindow = 64;
constexpr int kSaturatedRounds = 4;
constexpr double kStampsPerRequest = sne::astro::kNumBands;

stream::CascadeScorerConfig scorer_config(const Fixture& fx) {
  stream::CascadeScorerConfig cfg;
  cfg.crop = kCrop;
  cfg.stages.push_back(stream::CascadeStage{
      "tier1", fx.tier1_plan, stream::AlertInput::Tier1, 0.0f, false});
  cfg.joint = fx.joint_builder(Precision::Fp32);
  return cfg;
}

// A direct CascadeScorer::run of every row on its own.
std::vector<float> expected_scores(const Fixture& fx) {
  stream::CascadeScorer scorer(scorer_config(fx));
  const std::int64_t n = fx.rows.extent(0);
  const std::int64_t width = fx.rows.extent(1);
  std::vector<float> scores(static_cast<std::size_t>(n));
  Tensor row({1, width});
  Tensor out;
  for (std::int64_t r = 0; r < n; ++r) {
    std::copy(fx.rows.data() + r * width, fx.rows.data() + (r + 1) * width,
              row.data());
    scorer.run(row, out);
    scores[static_cast<std::size_t>(r)] = out[0];
  }
  return scores;
}

// One started server and the scorer time its timing decorator reports
// (untimed servers report none). Stopped by its destructor.
struct Hosted {
  std::string path;
  std::unique_ptr<ScorerTimes> times = std::make_unique<ScorerTimes>();
  std::unique_ptr<serve::ScoreServer> server;
};

Hosted host(const Fixture& fx, std::string path, bool timed) {
  Hosted h;
  h.path = std::move(path);
  serve::ScorerSpec spec = stream::make_cascade_scorer_spec(scorer_config(fx));
  if (timed) spec = timed_spec(std::move(spec), *h.times);
  serve::ScoreServerConfig cfg;
  cfg.unix_path = h.path;
  cfg.workers = 1;
  cfg.batcher.max_batch = 16;
  cfg.batcher.max_delay_us = 2000;
  cfg.batcher.max_queue = 1024;
  h.server = std::make_unique<serve::ScoreServer>(cfg, std::move(spec));
  h.server->start();
  return h;
}

void book(RunResult& r, const std::string& name,
          const std::vector<LoadReport>& loads) {
  std::int64_t sent = 0, ok = 0, mismatched = 0, rejected = 0, timed_out = 0;
  for (const LoadReport& l : loads) {
    sent += l.sent;
    ok += l.succeeded;
    mismatched += l.mismatched;
    rejected += l.rejected;
    timed_out += l.timed_out;
    r.attempted += l.sent;
    r.failed += l.failed();
  }
  r.notes.push_back("served " + name + ": sent " + std::to_string(sent) +
                    ", succeeded " + std::to_string(ok) + ", failed " +
                    std::to_string(mismatched + rejected + timed_out) +
                    " (mismatched " + std::to_string(mismatched) +
                    ", rejected " + std::to_string(rejected) +
                    ", timed out " + std::to_string(timed_out) + ")");
}

double median_stamps(const std::vector<LoadReport>& rounds) {
  std::vector<double> rps;
  for (const LoadReport& l : rounds) rps.push_back(l.throughput());
  return kStampsPerRequest * median(rps);
}

void layer_metrics(Metrics& m, const std::string& phase, const Hosted& h,
                   const std::vector<LoadReport>& loads) {
  const serve::ServerStats st = h.server->stats();
  const double busy_s = 1e-9 * static_cast<double>(h.times->busy_ns.load());
  const auto batches = static_cast<double>(h.times->batches.load());
  const auto rows = static_cast<double>(h.times->rows.load());
  std::vector<double> lag;
  std::vector<double> latency;
  double send_s = 0.0;
  for (const LoadReport& l : loads) {
    lag.insert(lag.end(), l.lag_ms.begin(), l.lag_ms.end());
    latency.insert(latency.end(), l.latency_ms.begin(), l.latency_ms.end());
    send_s += l.send_s;
  }
  const std::string p = "serve." + phase + ".";
  m.set(p + "scorer.busy_s", busy_s, "s");
  m.set(p + "scorer.batches", batches, "count");
  m.set(p + "scorer.mean_fill", batches > 0 ? rows / batches : 0.0, "rows");
  m.set(p + "server.p50_ms", st.p50_ms, "ms");
  m.set(p + "server.p99_ms", st.p99_ms, "ms");
  m.set(p + "server.queue_wait_ms",
        st.p50_ms - (batches > 0 ? 1e3 * busy_s / batches : 0.0), "ms");
  m.set(p + "server.max_queue_depth",
        static_cast<double>(st.max_queue_depth), "count");
  m.set(p + "server.rejected", static_cast<double>(st.rejected), "count");
  m.set(p + "server.wire_errors", static_cast<double>(st.wire_errors),
        "count");
  m.set(p + "server.internal_errors",
        static_cast<double>(st.internal_errors), "count");
  m.set(p + "gen.send_s", send_s, "s");
  m.set(p + "gen.lag_p99_ms", percentile(lag, 0.99), "ms");
  m.set(p + "client.p50_ms", sliced_percentile(latency, 0.50), "ms");
  m.set(p + "client.p99_ms", sliced_percentile(latency, 0.99), "ms");
}

}  // namespace

void serve_night(const Fixture& fx, const RunOptions& o, double seconds,
                 RunResult& r) {
  const std::vector<float> expected = expected_scores(fx);
  const auto joint_scored =
      std::count_if(expected.begin(), expected.end(),
                    [](float v) { return v != stream::kRejectLogit; });
  r.notes.push_back("served rows: " + std::to_string(expected.size()) +
                    " distinct, " + std::to_string(joint_scored) +
                    " reach the joint tier");

  const std::string path = "perfbench-" + std::to_string(::getpid());
  std::uint64_t arrival = splitmix(o.seed ^ 0x5E7E);
  const auto open = [&](double rate) {
    LoadPlan p;
    p.rate = rate;
    p.seconds = 0.25 * seconds;
    p.seed = arrival = splitmix(arrival);
    return p;
  };
  LoadPlan closed;
  closed.window = kWindow;
  closed.seconds = 0.25 * seconds / kSaturatedRounds;

  Hosted light = host(fx, path + "-light.sock", true);
  const std::vector<LoadReport> light_load = {
      run_load(light.path, fx.rows, expected, open(kLightRps))};
  light.server->stop();
  Hosted heavy = host(fx, path + "-heavy.sock", true);
  const std::vector<LoadReport> heavy_load = {
      run_load(heavy.path, fx.rows, expected, open(kHeavyRps))};
  heavy.server->stop();

  // Probed (timing decorator, obs capture) and plain rounds alternate,
  // each arm on a long-lived server of its own, so drift on the machine
  // hits both alike.
  Hosted probed = host(fx, path + "-probed.sock", true);
  Hosted plain = host(fx, path + "-plain.sock", false);
  std::vector<LoadReport> probed_load;
  std::vector<LoadReport> plain_load;
  for (int k = 0; k < kSaturatedRounds; ++k) {
    sne::obs::enable();
    probed_load.push_back(run_load(probed.path, fx.rows, expected, closed));
    sne::obs::disable();
    plain_load.push_back(run_load(plain.path, fx.rows, expected, closed));
  }
  probed.server->stop();
  plain.server->stop();
  sne::obs::reset();

  book(r, "light", light_load);
  book(r, "heavy", heavy_load);
  book(r, "saturated", probed_load);
  book(r, "saturated untraced", plain_load);

  Metrics& m = r.metrics;
  layer_metrics(m, "light", light, light_load);
  layer_metrics(m, "heavy", heavy, heavy_load);
  layer_metrics(m, "saturated", probed, probed_load);
  const double traced = median_stamps(probed_load);
  const double untraced = median_stamps(plain_load);
  m.set("serve.saturated.stamps_per_s", untraced, "1/s");
  m.set("trace.serve_stamps_per_s.untraced", untraced, "1/s");
  m.set("trace.serve_stamps_per_s.traced", traced, "1/s");
  m.set("trace.serve_stamps_per_s.delta", traced - untraced, "1/s");
}

}  // namespace perfbench
