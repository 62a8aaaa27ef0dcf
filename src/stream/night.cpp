#include "stream/night.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "astro/photometry.h"
#include "sim/artifacts.h"
#include "sim/image_ops.h"
#include "tensor/runtime.h"

namespace sne::stream {

namespace {

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  return x;
}

float tier1_pixel(float d) { return static_cast<float>(astro::signed_log(d)); }

}  // namespace

NightStream::NightStream(const sim::SnDataset& data,
                         std::vector<std::int64_t> samples,
                         const NightConfig& config)
    : data_(&data), samples_(std::move(samples)), config_(config) {
  if (samples_.empty()) {
    throw std::invalid_argument("NightStream: no samples");
  }
  if (config_.candidates <= 0 || config_.pool <= 0 || config_.field <= 0 ||
      config_.batch <= 0) {
    throw std::invalid_argument(
        "NightStream: candidates/pool/field/batch must be positive");
  }
  if (config_.stamp <= 0 || config_.crop <= 0) {
    throw std::invalid_argument("NightStream: stamp/crop must be positive");
  }
  prefetch_ = RuntimeConfig::current().prefetch;
  if (prefetch_ < 0) prefetch_ = 1;

  // Real/bogus is a per-slot property: the slot's epoch choice (bright
  // vs SN-free) must match the label, and every candidate tiling onto
  // the slot inherits it.
  slot_real_.resize(static_cast<std::size_t>(config_.pool));
  for (std::int64_t s = 0; s < config_.pool; ++s) {
    Rng rng(config_.seed ^ mix(static_cast<std::uint64_t>(s) + 1));
    slot_real_[static_cast<std::size_t>(s)] =
        rng.bernoulli(config_.real_fraction);
  }
  pool_.resize(static_cast<std::size_t>(config_.pool * astro::kNumBands));
  reset();
}

void NightStream::reset() {
  // Tear down the previous pipeline first: its worker thread reads the
  // cursor through produce(), so it must be joined before the rewind.
  pipeline_.reset();
  cursor_ = Cursor{};
  load_sweep();
  pipeline_ = std::make_unique<nn::BatchPipeline<AlertBatch>>(
      [this](AlertBatch& out) { return produce(out); }, prefetch_, "stream");
}

bool NightStream::next(AlertBatch& out) { return pipeline_->next(out); }

// Regenerates the permutation of the cursor's current (field, sweep).
void NightStream::load_sweep() {
  const std::int64_t lo = cursor_.field * config_.field;
  const std::int64_t hi =
      std::min(config_.candidates, lo + config_.field);
  cursor_.perm.resize(static_cast<std::size_t>(hi - lo));
  for (std::int64_t c = lo; c < hi; ++c) {
    cursor_.perm[static_cast<std::size_t>(c - lo)] = c;
  }
  // Fisher–Yates under a per-(field, sweep) stream: arrival order within
  // a visit is independent of every other visit.
  Rng rng(config_.seed ^
          mix(0xF1E1DULL + static_cast<std::uint64_t>(
                               cursor_.field * astro::kNumBands +
                               cursor_.sweep)));
  for (std::size_t i = cursor_.perm.size(); i > 1; --i) {
    const std::size_t j =
        static_cast<std::size_t>(rng.uniform_index(static_cast<std::uint64_t>(i)));
    std::swap(cursor_.perm[i - 1], cursor_.perm[j]);
  }
}

bool NightStream::next_alert(std::int64_t& candidate, astro::Band& band) {
  const std::int64_t fields =
      (config_.candidates + config_.field - 1) / config_.field;
  if (cursor_.field >= fields) return false;
  candidate = cursor_.perm[static_cast<std::size_t>(cursor_.k)];
  // Band order rotates with the field so no band is systematically
  // first across the night.
  band = astro::kAllBands[static_cast<std::size_t>(
      (cursor_.sweep + cursor_.field) % astro::kNumBands)];
  if (++cursor_.k >= static_cast<std::int64_t>(cursor_.perm.size())) {
    cursor_.k = 0;
    if (++cursor_.sweep >= astro::kNumBands) {
      cursor_.sweep = 0;
      ++cursor_.field;
    }
    if (cursor_.field < fields) load_sweep();
  }
  return true;
}

std::int64_t NightStream::pick_epoch(std::int64_t sample, astro::Band band,
                                     bool real) const {
  const std::int64_t epochs = data_->config().schedule.epochs_per_band;
  // Real slots want a detectable epoch (brightest wins); bogus slots
  // want a supernova-free one (faintest wins) so the only transient in
  // the stamp is the injected artifact. Magnitude scans are spec-only —
  // nothing renders here.
  std::int64_t best = std::clamp(config_.epoch, std::int64_t{0}, epochs - 1);
  double best_mag = real ? 1e9 : -1e9;
  for (std::int64_t e = 0; e < epochs; ++e) {
    const double mag = data_->true_magnitude(sample, band, e, 31.0);
    if (real ? mag < best_mag : mag > best_mag) {
      best_mag = mag;
      best = e;
    }
  }
  return best;
}

const NightStream::PoolEntry& NightStream::pooled(std::int64_t slot,
                                                  astro::Band band) {
  auto& entry = pool_[static_cast<std::size_t>(
      slot * astro::kNumBands + astro::band_index(band))];
  if (!entry.has_value()) {
    const std::int64_t i = samples_[static_cast<std::size_t>(slot) %
                                    samples_.size()];
    const bool real = slot_real_[static_cast<std::size_t>(slot)];
    const std::int64_t e = pick_epoch(i, band, real);

    PoolEntry fresh;
    const Tensor ref = sim::center_crop(
        data_->matched_reference_image(i, band, e), config_.stamp);
    const Tensor obs = sim::center_crop(
        data_->observation_image(i, band, e), config_.stamp);
    fresh.pair = Tensor({2, config_.stamp, config_.stamp});
    std::copy(ref.data(), ref.data() + ref.size(), fresh.pair.data());
    std::copy(obs.data(), obs.data() + obs.size(),
              fresh.pair.data() + ref.size());
    fresh.diff_crop = sim::center_crop(
        data_->difference_image(i, band, e), config_.crop);
    fresh.log_crop = Tensor(fresh.diff_crop.shape());
    std::transform(fresh.diff_crop.data(),
                   fresh.diff_crop.data() + fresh.diff_crop.size(),
                   fresh.log_crop.data(), tier1_pixel);
    fresh.date = static_cast<float>(core::normalize_date(
        data_->band_epoch(i, band, e).mjd,
        data_->config().schedule.start_mjd, config_.features));
    entry = std::move(fresh);
  }
  return *entry;
}

bool NightStream::produce(AlertBatch& out) {
  const std::int64_t c2 = config_.crop * config_.crop;
  const std::int64_t s2 = config_.stamp * config_.stamp;

  std::int64_t n = 0;
  out.tier1.resize({config_.batch, 1, config_.crop, config_.crop});
  out.pair.resize({config_.batch, 2, config_.stamp, config_.stamp});
  out.meta.resize({config_.batch, meta::kColumns});

  std::int64_t candidate = 0;
  astro::Band band = astro::Band::g;
  Tensor bogus_diff;  // reused injection scratch
  while (n < config_.batch && next_alert(candidate, band)) {
    const std::int64_t slot = candidate % config_.pool;
    const bool real = slot_real_[static_cast<std::size_t>(slot)];
    const PoolEntry& entry = pooled(slot, band);

    const float* cached = entry.log_crop.data();
    float* tier1_row = out.tier1.data() + n * c2;
    if (real) {
      std::copy(cached, cached + c2, tier1_row);
    } else {
      // Mint this alert's artifact on a copy of the pooled difference:
      // candidates sharing a slot still produce distinct bogus stamps.
      bogus_diff = entry.diff_crop;
      Rng rng(config_.seed ^
              mix(0xB06B5ULL +
                  static_cast<std::uint64_t>(candidate * astro::kNumBands +
                                             astro::band_index(band))));
      const double amplitude = astro::flux_from_mag(
          config_.max_real_mag - rng.uniform(0.0, 2.0));
      const auto kind = sim::kAllArtifactKinds[static_cast<std::size_t>(
          rng.uniform_index(sim::kAllArtifactKinds.size()))];
      sim::inject_artifact(bogus_diff, kind, amplitude, rng);
      // signed_log is a pure function of its input bits, so a pixel the
      // artifact left bit-identical (±0 and NaN payloads compare as
      // different) reuses the entry's cached value.
      const float* pooled_diff = entry.diff_crop.data();
      const float* diff = bogus_diff.data();
      for (std::int64_t p = 0; p < c2; ++p) {
        tier1_row[p] = std::bit_cast<std::uint32_t>(diff[p]) ==
                               std::bit_cast<std::uint32_t>(pooled_diff[p])
                           ? cached[p]
                           : tier1_pixel(diff[p]);
      }
    }

    std::copy(entry.pair.data(), entry.pair.data() + 2 * s2,
              out.pair.data() + n * 2 * s2);

    const std::int64_t i =
        samples_[static_cast<std::size_t>(slot) % samples_.size()];
    float* m = out.meta.data() + n * meta::kColumns;
    m[meta::kCandidate] = static_cast<float>(candidate);
    m[meta::kBand] = static_cast<float>(astro::band_index(band));
    m[meta::kReal] = real ? 1.0f : 0.0f;
    m[meta::kDate] = entry.date;
    m[meta::kIsIa] = (real && data_->is_ia(i)) ? 1.0f : 0.0f;
    ++n;
  }
  if (n == 0) return false;
  if (n < config_.batch) {
    out.tier1.resize({n, 1, config_.crop, config_.crop});
    out.pair.resize({n, 2, config_.stamp, config_.stamp});
    out.meta.resize({n, meta::kColumns});
  }
  return true;
}

}  // namespace sne::stream
