#include "load.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "serve/wire.h"
#include "tensor/rng.h"

namespace perfbench {

namespace serve = sne::serve;
using Clock = std::chrono::steady_clock;

namespace {

class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const noexcept { return fd_; }

 private:
  int fd_;
};

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to " + path);
  }
  return fd;
}

bool write_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

// Requests still unanswered this long after the last answer time out.
constexpr auto kDrainTimeout = std::chrono::seconds(5);

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

}  // namespace

LoadReport run_load(const std::string& unix_path, const sne::Tensor& rows,
                    const std::vector<float>& expected, const LoadPlan& plan) {
  const std::int64_t num_rows = rows.extent(0);
  const std::int64_t width = rows.extent(1);
  if (num_rows <= 0 || static_cast<std::int64_t>(expected.size()) != num_rows) {
    throw std::invalid_argument("run_load: rows and expected disagree");
  }
  const Fd fd(connect_unix(unix_path));
  serve::Frame frame;
  if (serve::read_frame(fd.get(), frame) != serve::ReadStatus::kOk ||
      frame.type != serve::FrameType::kHello || frame.payload.size() < 16) {
    throw std::runtime_error("run_load: no hello frame from the daemon");
  }
  if (static_cast<std::int64_t>(serve::get_u64(frame.payload.data())) !=
          width ||
      serve::get_u64(frame.payload.data() + 8) != 1) {
    throw std::runtime_error("run_load: daemon shapes do not match the rows");
  }

  // Per-request start times (due time, or send time in a closed loop),
  // written by the sender before the request leaves and read by the
  // receiver once its answer is in.
  const double peak_rate = plan.rate > 0.0 ? 2.0 * plan.rate : 100000.0;
  const auto capacity =
      static_cast<std::int64_t>(peak_rate * plan.seconds) + plan.window + 1024;
  const auto start_ns =
      std::make_unique<std::atomic<std::int64_t>[]>(
          static_cast<std::size_t>(capacity));

  std::mutex mutex;  // guards sent/answered/sender_done
  std::condition_variable progress;
  std::int64_t sent = 0;
  std::int64_t answered = 0;
  bool sender_done = false;

  LoadReport report;
  // Every distinct request frame is encoded once; a send patches in the
  // request id and writes the whole frame with one call, so the sender
  // stays cheaper than the daemon's reader.
  const std::size_t row_bytes = static_cast<std::size_t>(width) * sizeof(float);
  const std::size_t frame_bytes = serve::kFrameHeaderBytes + 8 + row_bytes;
  std::vector<char> frames(static_cast<std::size_t>(num_rows) * frame_bytes);
  for (std::int64_t r = 0; r < num_rows; ++r) {
    char* f = frames.data() + static_cast<std::size_t>(r) * frame_bytes;
    serve::encode_frame_header(serve::FrameType::kScoreRequest,
                               static_cast<std::uint32_t>(8 + row_bytes),
                               reinterpret_cast<unsigned char*>(f));
    std::memcpy(f + serve::kFrameHeaderBytes + 8, rows.data() + r * width,
                row_bytes);
  }

  const auto t0 = Clock::now();
  std::thread sender([&] {
    sne::Rng arrivals(plan.seed);
    double due_s = 0.0;
    for (std::int64_t id = 0; id < capacity; ++id) {
      Clock::time_point start;
      if (plan.rate > 0.0) {
        due_s += -std::log(1.0 - arrivals.uniform()) / plan.rate;
        if (due_s > plan.seconds) break;
        start = t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(due_s));
        std::this_thread::sleep_until(start);
        report.lag_ms.push_back(
            1e-6 * static_cast<double>(ns_between(start, Clock::now())));
      } else {
        std::unique_lock<std::mutex> lock(mutex);
        progress.wait(lock, [&] { return sent - answered < plan.window; });
        lock.unlock();
        start = Clock::now();
        if (start - t0 > std::chrono::duration<double>(plan.seconds)) break;
      }
      start_ns[static_cast<std::size_t>(id)].store(ns_between(t0, start),
                                                   std::memory_order_release);
      char* f = frames.data() +
                static_cast<std::size_t>(id % num_rows) * frame_bytes;
      for (int i = 0; i < 8; ++i) {
        f[serve::kFrameHeaderBytes + i] = static_cast<char>(
            (static_cast<std::uint64_t>(id) >> (8 * i)) & 0xFF);
      }
      const auto w0 = Clock::now();
      const bool ok = write_all(fd.get(), f, frame_bytes);
      report.send_s += std::chrono::duration<double>(Clock::now() - w0).count();
      if (!ok) break;
      std::lock_guard<std::mutex> lock(mutex);
      ++sent;
    }
    std::lock_guard<std::mutex> lock(mutex);
    sender_done = true;
    progress.notify_all();
  });

  std::vector<std::pair<std::uint64_t, double>> latency;  // (id, ms)
  std::thread receiver([&] {
    serve::Frame in;
    auto last_progress = Clock::now();
    Clock::time_point last_answer = t0;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (sender_done && answered == sent) break;
      }
      pollfd p{fd.get(), POLLIN, 0};
      if (::poll(&p, 1, 50) <= 0) {
        std::lock_guard<std::mutex> lock(mutex);
        if (sender_done &&
            Clock::now() - last_progress >
                kDrainTimeout) {
          break;
        }
        continue;
      }
      try {
        if (serve::read_frame(fd.get(), in) == serve::ReadStatus::kEof) break;
      } catch (const std::exception&) {
        break;  // unanswered requests count as timed out
      }
      const auto now = Clock::now();
      last_progress = now;
      last_answer = now;
      if (in.payload.size() < 8) break;
      const std::uint64_t id = serve::get_u64(in.payload.data());
      if (id >= static_cast<std::uint64_t>(capacity)) break;
      if (in.type == serve::FrameType::kScoreOk && in.payload.size() == 12) {
        const float want = expected[id % static_cast<std::uint64_t>(num_rows)];
        if (std::memcmp(&want, in.payload.data() + 8, sizeof(float)) == 0) {
          ++report.succeeded;
          const std::int64_t begin =
              start_ns[static_cast<std::size_t>(id)].load(
                  std::memory_order_acquire);
          latency.emplace_back(
              id, 1e-6 * static_cast<double>(ns_between(t0, now) - begin));
        } else {
          ++report.mismatched;
        }
      } else if (in.type == serve::FrameType::kScoreError) {
        ++report.rejected;
      } else {
        ++report.mismatched;
      }
      std::lock_guard<std::mutex> lock(mutex);
      ++answered;
      progress.notify_all();
    }
    report.elapsed_s = std::chrono::duration<double>(last_answer - t0).count();
  });

  receiver.join();
  {
    // A receiver that gave up must not leave the sender waiting on the
    // window forever.
    std::lock_guard<std::mutex> lock(mutex);
    answered = sent;
    progress.notify_all();
  }
  ::shutdown(fd.get(), SHUT_RDWR);
  sender.join();
  std::sort(latency.begin(), latency.end());
  for (const auto& [id, ms] : latency) report.latency_ms.push_back(ms);
  report.sent = sent;
  report.timed_out =
      sent - report.succeeded - report.mismatched - report.rejected;
  return report;
}

namespace {

class TimingScorer final : public serve::Scorer {
 public:
  TimingScorer(std::unique_ptr<serve::Scorer> inner, ScorerTimes& times)
      : inner_(std::move(inner)), times_(times) {}

  std::int64_t sample_numel() const override { return inner_->sample_numel(); }
  std::int64_t output_numel() const override { return inner_->output_numel(); }
  void run(const sne::Tensor& batch, sne::Tensor& out) override {
    const auto t0 = Clock::now();
    inner_->run(batch, out);
    times_.busy_ns.fetch_add(ns_between(t0, Clock::now()),
                             std::memory_order_relaxed);
    times_.batches.fetch_add(1, std::memory_order_relaxed);
    times_.rows.fetch_add(batch.extent(0), std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<serve::Scorer> inner_;
  ScorerTimes& times_;
};

}  // namespace

serve::ScorerSpec timed_spec(serve::ScorerSpec spec, ScorerTimes& times) {
  serve::ScorerSpec timed;
  timed.custom = [factory = serve::scorer_factory(std::move(spec)), &times] {
    return std::make_unique<TimingScorer>(factory(), times);
  };
  return timed;
}

}  // namespace perfbench
