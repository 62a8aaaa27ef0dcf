// harness.h — the measurement plumbing shared by every perfbench
// workload: an ordered metric map that prints the one-line JSON result,
// order statistics, the verdict digest the correctness gate compares,
// and the machine record printed beside every result.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stream/cascade.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
double seconds_since(Clock::time_point t0);

/// True when `name` is non-empty and made of [A-Za-z0-9_.-] only.
bool valid_metric_name(std::string_view name);

/// Replaces every character outside [A-Za-z0-9_.-] with '_'.
std::string sanitize_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Insertion-ordered metrics; set() on an existing name overwrites it.
class Metrics {
 public:
  /// Throws std::invalid_argument on a name outside [A-Za-z0-9_.-]+.
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const noexcept { return items_; }

 private:
  std::vector<Metric> items_;
};

/// What one run did: operations attempted and failed, plus its metrics.
/// `notes` are human-readable lines printed before the JSON result.
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool checks_passed = true;  ///< set-up checks (pins) all matched
  Metrics metrics;
  std::vector<std::string> notes;

  bool correct() const noexcept { return checks_passed && failed == 0; }
};

/// The result line: {"correct":…,"attempted":…,"failed":…,"metrics":{…}}.
/// Values print with round-trip precision.
std::string result_json(const RunResult& result);

/// Median of `v` (0 when empty). Takes a copy: callers keep their order.
double median(std::vector<double> v);

/// Nearest-rank percentile, p in [0, 1] (0 when empty).
double percentile(std::vector<double> v, double p);

/// The `p` percentile of each of `slices` consecutive equal slices of
/// `ordered` (samples in arrival order), and the median of those: one
/// stall then moves one slice's value, not the phase's. Falls back to the
/// plain percentile when there are too few samples to slice.
double sliced_percentile(const std::vector<double>& ordered, double p,
                         int slices = 5);

/// Sets `<phase>_p50_ms`, `_p90_ms` and `_p99_ms` from latencies in
/// arrival order (sliced_percentile) and notes the sample count.
void add_latency(RunResult& r, const std::string& phase,
                 const std::vector<double>& ordered_ms);

/// SplitMix64: derives independent seeds (arrival schedules) from one.
std::uint64_t splitmix(std::uint64_t x);

/// Process peak resident set, MiB.
double peak_rss_mb();

/// FNV-1a over the ordered (candidate, score bits, accepted) verdicts.
std::uint64_t verdict_digest(const std::vector<sne::stream::Verdict>& v,
                             std::size_t count);

/// The correctness key of one night: per-tier counts plus the digest.
struct NightKey {
  std::vector<std::int64_t> counts;  ///< in/passed per tier, gate losses
  std::uint64_t digest = 0;

  bool operator==(const NightKey&) const = default;
  std::string to_string() const;
};

NightKey night_key(const sne::stream::FilterCascade& cascade);

/// Hardware and runtime facts a result depends on.
struct MachineRecord {
  int nproc = 0;
  std::string cpu_model;
  bool avx2 = false;
  bool avx512f = false;
  bool avx512_vnni = false;
  bool avx_vnni = false;
  std::string gemm_tier;
  int pool_threads = 0;
  std::int64_t prefetch = 0;

  std::string to_json() const;
};

MachineRecord machine_record();

}  // namespace perfbench
