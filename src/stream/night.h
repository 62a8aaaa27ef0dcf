// night.h — NightStream: a pull-based generator that synthesizes one
// survey night of alerts over the simulator without ever materializing
// the night. A "candidate" is one detection followed up in all five
// bands; each (candidate, band) visit becomes one alert carrying the
// two inputs the cascade tiers consume:
//
//   tier1  [n, 1, crop, crop]   signed-log difference crop (real/bogus)
//   pair   [n, 2, S, S]         matched reference + observation (typing)
//   meta   [n, 5]               candidate, band, real, date, is_ia
//
// Memory model — the night is streamed, never stored:
//   * imagery comes from a bounded pool of `pool` rendered candidates
//     (the simulator's renderers are ~10³× slower than replay, so the
//     night tiles candidates over the pool); entries render lazily on
//     the producer thread and stay cached for the stream's lifetime →
//     peak RSS is O(pool + batch·depth), independent of night length;
//   * a pool entry also holds the signed-log of its difference crop
//     (pool × 5 bands × crop² × 4 B, 441 KB at pool 50 and crop 21), so
//     a real alert's tier-1 row is a copy;
//   * bogus candidates are minted per-alert by injecting a seeded
//     artifact into a copy of the pooled difference crop, so two
//     candidates sharing a pool slot still differ. The artifact is
//     local: only the pixels whose bits it changed are signed-logged
//     again, the rest reuse the entry's cached values.
//
// Arrival schedule — field-blocked band sweep, the way a survey scans:
// candidates are partitioned into fields of `field`, and each field is
// visited band after band (band order rotated per field, candidate
// order independently shuffled per (field, band)). All five alerts of a
// candidate therefore land within one field block, which bounds the
// cascade's multi-band completion gate to O(field) pending candidates.
//
// Delivery rides nn::BatchPipeline (obs prefix "stream"): depth 0 pulls
// synchronously, depth > 0 renders ahead on one worker thread. The
// depth is latched from sne::RuntimeConfig::current().prefetch at
// construction, and batches are bitwise identical for any depth or
// thread count (single-producer order + deterministic renderers).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/lc_features.h"
#include "nn/batch_pipeline.h"
#include "sim/dataset_builder.h"
#include "tensor/tensor.h"

namespace sne::stream {

struct NightConfig {
  std::int64_t candidates = 256;  ///< alerts = candidates × 5 bands
  std::int64_t pool = 64;         ///< rendered candidate pool (RSS bound)
  std::int64_t field = 32;        ///< candidates per field block
  std::int64_t batch = 64;        ///< alerts per AlertBatch
  std::int64_t stamp = 44;        ///< pair crop extent S (≥ the joint CNN's)
  std::int64_t crop = 21;         ///< tier-1 difference-crop extent
  std::int64_t epoch = 1;         ///< observation epoch used for imagery
  double real_fraction = 0.5;     ///< fraction of pool slots holding a SN
  double max_real_mag = 25.0;     ///< detectability cut for "real" epochs
  std::uint64_t seed = 2026;
  core::FeatureConfig features;   ///< date normalization for the joint tier
};

/// One chunk of the night. Meta columns: 0 candidate id, 1 band index,
/// 2 real flag (1 = transient, 0 = artifact), 3 normalized observation
/// date, 4 is_ia flag (SNIa ground truth; always 0 for bogus).
struct AlertBatch {
  Tensor tier1;  ///< [n, 1, crop, crop]
  Tensor pair;   ///< [n, 2, S, S]
  Tensor meta;   ///< [n, 5]

  std::int64_t size() const { return meta.rank() > 0 ? meta.extent(0) : 0; }
};

namespace meta {
inline constexpr std::int64_t kCandidate = 0;
inline constexpr std::int64_t kBand = 1;
inline constexpr std::int64_t kReal = 2;
inline constexpr std::int64_t kDate = 3;
inline constexpr std::int64_t kIsIa = 4;
inline constexpr std::int64_t kColumns = 5;
}  // namespace meta

class NightStream {
 public:
  /// Streams a night synthesized from the given samples of `data`
  /// (pool slot s draws imagery from samples[s mod samples.size()]).
  /// Borrows `data`; it must outlive the stream.
  NightStream(const sim::SnDataset& data, std::vector<std::int64_t> samples,
              const NightConfig& config);

  /// Fills `out` with the next chunk of alerts; false once the night is
  /// over. Chunks are config.batch alerts except possibly the last.
  bool next(AlertBatch& out);

  /// Restarts the night from the first alert (the rendered pool is
  /// kept). Any in-flight prefetch of the previous pass is discarded.
  void reset();

  std::int64_t total_alerts() const noexcept {
    return config_.candidates * astro::kNumBands;
  }
  std::int64_t prefetch_depth() const noexcept { return prefetch_; }
  const NightConfig& config() const noexcept { return config_; }

 private:
  struct PoolEntry {
    Tensor pair;       ///< [2, S, S]
    Tensor diff_crop;  ///< [crop, crop] raw difference pixels
    Tensor log_crop;   ///< [crop, crop] signed-log of diff_crop (tier-1)
    float date = 0.0f;
  };

  /// Cursor over the field-blocked band-sweep order; owned by the
  /// producer (single-threaded whatever the prefetch depth).
  struct Cursor {
    std::int64_t field = 0;
    std::int64_t sweep = 0;  ///< band-sweep index j within the field
    std::int64_t k = 0;      ///< position within the sweep's permutation
    std::vector<std::int64_t> perm;  ///< candidate order of this sweep
  };

  bool produce(AlertBatch& out);
  bool next_alert(std::int64_t& candidate, astro::Band& band);
  void load_sweep();
  const PoolEntry& pooled(std::int64_t slot, astro::Band band);
  std::int64_t pick_epoch(std::int64_t sample, astro::Band band,
                          bool real) const;

  const sim::SnDataset* data_;
  std::vector<std::int64_t> samples_;
  NightConfig config_;
  std::int64_t prefetch_;
  std::vector<bool> slot_real_;                 ///< per pool slot
  std::vector<std::optional<PoolEntry>> pool_;  ///< slot-major × band
  Cursor cursor_;
  std::unique_ptr<nn::BatchPipeline<AlertBatch>> pipeline_;
};

}  // namespace sne::stream
