// runtime.h — sne::RuntimeConfig: the one surface for process-wide
// runtime knobs (pool width, DataLoader prefetch depth, tracing) and the
// one place their SNE_* environment overrides are resolved.
#pragma once

#include <cstdint>
#include <string>

namespace sne {

/// Serving-path numeric precision. Fp32 is the reference; Int8 runs
/// calibrated per-channel-quantized kernels where a plan step has one
/// (conv steps), falling back to fp32 per step everywhere else. Training
/// is always fp32 — this knob only affects InferencePlan lowering.
enum class Precision {
  Fp32 = 0,
  Int8 = 1,
};

/// "fp32" / "int8" — stable names, matching the SNE_PRECISION values.
const char* precision_name(Precision p) noexcept;

struct RuntimeConfig {
  /// Thread-pool width. <= 0 means auto (hardware_concurrency). Env:
  /// SNE_NUM_THREADS.
  int threads = 0;

  /// Default DataLoader prefetch depth (batches rendered ahead on the
  /// background thread; 0 = synchronous). Env: SNE_PREFETCH.
  std::int64_t prefetch = 1;

  /// Telemetry capture (obs::enable()) on/off. Env: SNE_TRACE — unset,
  /// "" or "0" leaves tracing off; "1" enables capture; any other value
  /// enables capture AND names the chrome-trace output path.
  bool trace = false;

  /// Where sne_cli (and anything else that calls
  /// obs::write_chrome_trace(current().trace_path)) writes the trace.
  /// Empty = no file.
  std::string trace_path;

  /// Default serving precision for call sites that defer to the runtime
  /// (SnePipeline scoring, sne_cli without --precision). Env:
  /// SNE_PRECISION = "fp32" | "int8"; an unrecognized value warns once on
  /// stderr and keeps fp32. Int8 only takes effect where a calibrated
  /// model is available — it never silently changes uncalibrated scoring.
  Precision precision = Precision::Fp32;

  /// Reads every SNE_* override on top of the defaults above.
  static RuntimeConfig from_env();

  /// The process-wide active config. First access initializes it from
  /// the environment and, when trace is requested there, enables
  /// telemetry capture. Mutate through set_current() (main thread,
  /// outside parallel regions).
  static const RuntimeConfig& current();

  /// Replaces the active config and applies it: resizes the thread pool
  /// and enables/disables telemetry capture.
  static void set_current(RuntimeConfig config);
};

}  // namespace sne
