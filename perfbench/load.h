// load.h — load generation against a scoring daemon, built on the public
// serve/wire.h frame functions (ScoreClient is not thread-safe, and an
// open loop needs sending and receiving on separate threads). One unix
// connection carries the load: a sender thread writes requests on a
// schedule, a receiver thread reads responses and checks each one.
//
//   open loop   requests are due at seeded Poisson arrival times and are
//               sent then, whether or not earlier ones were answered;
//               latency runs from the due time, so a stall in the daemon
//               (or in the sender) is charged to every request it delays.
//   closed loop a fixed window of requests is kept in flight; latency
//               runs from the send.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/scorer.h"
#include "tensor/tensor.h"

namespace perfbench {

struct LoadPlan {
  double rate = 0.0;   ///< open loop: mean arrivals per second; 0 = closed
  int window = 64;     ///< closed loop: requests in flight
  double seconds = 1;  ///< how long requests are sent
  std::uint64_t seed = 1;
};

struct LoadReport {
  std::int64_t sent = 0;
  std::int64_t succeeded = 0;
  std::int64_t mismatched = 0;  ///< answered, but not bitwise as expected
  std::int64_t rejected = 0;    ///< typed error frames
  std::int64_t timed_out = 0;   ///< unanswered 5 s after the last answer
  std::vector<double> latency_ms;  ///< per succeeded request, in id order
  std::vector<double> lag_ms;      ///< open loop: send time − due time
  double elapsed_s = 0.0;          ///< first due time → last response
  double send_s = 0.0;             ///< sender time spent writing frames

  std::int64_t failed() const { return mismatched + rejected + timed_out; }
  double throughput() const {
    return elapsed_s > 0.0 ? static_cast<double>(succeeded) / elapsed_s : 0.0;
  }
};

/// Drives the daemon listening on `unix_path`. Request `id` carries row
/// `id % rows.extent(0)` of `rows` ([R, sample_numel]); its one-float
/// response must equal `expected[id % R]` bit for bit. Throws when the
/// connection or its hello frame fails.
LoadReport run_load(const std::string& unix_path, const sne::Tensor& rows,
                    const std::vector<float>& expected, const LoadPlan& plan);

/// Time a scorer spends in run(), written by the server's worker.
struct ScorerTimes {
  std::atomic<std::int64_t> busy_ns{0};
  std::atomic<std::int64_t> batches{0};
  std::atomic<std::int64_t> rows{0};
};

/// Wraps every scorer `spec` builds in a decorator that adds its run()
/// time to `times`; `times` must outlive the server.
sne::serve::ScorerSpec timed_spec(sne::serve::ScorerSpec spec,
                                  ScorerTimes& times);

}  // namespace perfbench
