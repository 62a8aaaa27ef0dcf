#include "harness.h"

#include <cpuid.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "tensor/gemm.h"
#include "tensor/runtime.h"
#include "tensor/thread_pool.h"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

namespace {

bool name_char(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  return !name.empty() && std::all_of(name.begin(), name.end(), name_char);
}

std::string sanitize_metric_name(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    if (!name_char(c)) c = '_';
  }
  return out;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("metric name '" + name +
                                "' is outside [A-Za-z0-9_.-]+");
  }
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back(Metric{name, value, unit});
}

std::string result_json(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : result.metrics.all()) {
    if (!first) out += ", ";
    first = false;
    out += quoted(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  return out + "}}";
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(p * n)));
  rank = std::min(rank, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

double sliced_percentile(const std::vector<double>& ordered, double p,
                         int slices) {
  const std::size_t per = ordered.size() / static_cast<std::size_t>(slices);
  if (slices < 2 || per < 100) return percentile(ordered, p);
  std::vector<double> values;
  for (int i = 0; i < slices; ++i) {
    const auto lo = ordered.begin() + static_cast<std::ptrdiff_t>(i * per);
    values.push_back(percentile(std::vector<double>(
        lo, lo + static_cast<std::ptrdiff_t>(per)), p));
  }
  return median(values);
}

void add_latency(RunResult& r, const std::string& phase,
                 const std::vector<double>& ordered_ms) {
  for (const auto& [p, name] : {std::pair{0.50, "_p50_ms"},
                                std::pair{0.90, "_p90_ms"},
                                std::pair{0.99, "_p99_ms"}}) {
    r.metrics.set(phase + name, sliced_percentile(ordered_ms, p), "ms");
  }
  r.notes.push_back(phase + ": " + std::to_string(ordered_ms.size()) +
                    " latency samples");
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint64_t verdict_digest(const std::vector<sne::stream::Verdict>& v,
                             std::size_t count) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 0x100000001B3ULL;
    }
  };
  for (std::size_t i = 0; i < std::min(count, v.size()); ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v[i].score, sizeof(bits));
    const std::int64_t candidate = v[i].candidate;
    const std::uint8_t accepted = v[i].accepted ? 1 : 0;
    mix(&candidate, sizeof(candidate));
    mix(&bits, sizeof(bits));
    mix(&accepted, sizeof(accepted));
  }
  return h;
}

std::string NightKey::to_string() const {
  std::string out = "counts [";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(counts[i]);
  }
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(digest));
  return out + "] digest " + digest_hex;
}

NightKey night_key(const sne::stream::FilterCascade& cascade) {
  NightKey key;
  const sne::eval::CascadeCounts& c = cascade.counts();
  for (const auto& tier : c.tiers) {
    key.counts.push_back(tier.in);
    key.counts.push_back(tier.passed);
  }
  key.counts.push_back(c.evicted);
  key.counts.push_back(c.incomplete);
  key.digest = verdict_digest(cascade.verdicts(), cascade.verdicts().size());
  return key;
}

namespace {

std::string cpu_brand() {
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000, nullptr);
  if (max_leaf < 0x80000004) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto lo = s.find_first_not_of(' ');
  return lo == std::string::npos ? "unknown" : s.substr(lo);
}

}  // namespace

std::string MachineRecord::to_json() const {
  const auto flag = [](bool b) { return b ? "true" : "false"; };
  return std::string("{\"nproc\": ") + std::to_string(nproc) +
         ", \"cpu_model\": " + quoted(cpu_model) + ", \"avx2\": " +
         flag(avx2) + ", \"avx512f\": " + flag(avx512f) +
         ", \"avx512_vnni\": " + flag(avx512_vnni) + ", \"avx_vnni\": " +
         flag(avx_vnni) + ", \"gemm_tier\": " + quoted(gemm_tier) +
         ", \"pool_threads\": " + std::to_string(pool_threads) +
         ", \"prefetch\": " + std::to_string(prefetch) + "}";
}

MachineRecord machine_record() {
  MachineRecord m;
  m.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  m.cpu_model = cpu_brand();
  __builtin_cpu_init();
  m.avx2 = __builtin_cpu_supports("avx2");
  m.avx512f = __builtin_cpu_supports("avx512f");
  m.avx512_vnni = __builtin_cpu_supports("avx512vnni");
  m.avx_vnni = __builtin_cpu_supports("avxvnni");
  m.gemm_tier = sne::gemm_tier_name(sne::gemm_tier());
  m.pool_threads = sne::num_threads();
  m.prefetch = sne::RuntimeConfig::current().prefetch;
  return m;
}

}  // namespace perfbench
