#include "tensor/runtime.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/obs.h"
#include "tensor/env.h"
#include "tensor/thread_pool.h"

namespace sne {

namespace {

RuntimeConfig& storage();

// atexit hook behind SNE_TRACE=<path>: the whole process run exports on
// exit, so any binary — benches, tests, examples — traces without code
// changes. The obs registry is a leaked singleton, so it is still alive
// here.
void write_trace_at_exit() {
  const std::string& path = storage().trace_path;
  if (!path.empty()) obs::write_chrome_trace(path);
}

RuntimeConfig& storage() {
  // First touch reads the environment and switches capture on when the
  // environment asked for it — so SNE_TRACE=trace.json works in any
  // binary without per-tool plumbing. Pool width is NOT applied here:
  // the pool itself consults current().threads on first use, and eager
  // application would recurse into it.
  static RuntimeConfig config = [] {
    RuntimeConfig c = RuntimeConfig::from_env();
    if (c.trace) {
      obs::enable();
      if (!c.trace_path.empty()) std::atexit(write_trace_at_exit);
    }
    return c;
  }();
  return config;
}

}  // namespace

const char* precision_name(Precision p) noexcept {
  return p == Precision::Int8 ? "int8" : "fp32";
}

RuntimeConfig RuntimeConfig::from_env() {
  RuntimeConfig c;
  c.threads = static_cast<int>(env::int64("NUM_THREADS", c.threads));
  c.prefetch = env::int64("PREFETCH", c.prefetch);
  const std::string trace = env::string("TRACE", "");
  if (!trace.empty() && trace != "0") {
    c.trace = true;
    if (trace != "1") c.trace_path = trace;
  }
  const std::string precision = env::string("PRECISION", "fp32");
  if (precision == "int8") {
    c.precision = Precision::Int8;
  } else if (precision != "fp32") {
    // A typo'd precision silently serving fp32 would defeat the point of
    // asking for int8; one stderr line makes the fallback visible.
    std::fprintf(stderr,
                 "sne: ignoring invalid SNE_PRECISION=\"%s\" "
                 "(expected fp32|int8); using fp32\n",
                 precision.c_str());
  }
  return c;
}

const RuntimeConfig& RuntimeConfig::current() { return storage(); }

void RuntimeConfig::set_current(RuntimeConfig config) {
  storage() = std::move(config);
  const RuntimeConfig& c = storage();
  set_num_threads(c.threads);  // <= 0 restores the auto default
  if (c.trace) {
    obs::enable();
  } else {
    obs::disable();
  }
}

}  // namespace sne
