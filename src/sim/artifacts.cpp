#include "sim/artifacts.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "astro/photometry.h"
#include "sim/image_ops.h"
#include "sim/psf.h"

namespace sne::sim {

void inject_artifact(Tensor& stamp, ArtifactKind kind, double amplitude,
                     Rng& rng) {
  if (stamp.rank() != 2) {
    throw std::invalid_argument("inject_artifact: expected rank-2 stamp");
  }
  if (amplitude <= 0.0) {
    throw std::invalid_argument("inject_artifact: amplitude must be > 0");
  }
  const std::int64_t h = stamp.extent(0);
  const std::int64_t w = stamp.extent(1);
  // Artifacts land near the stamp center, where the detection that cut
  // this stamp out would have been.
  const double cy = 0.5 * h + rng.uniform(-4.0, 4.0);
  const double cx = 0.5 * w + rng.uniform(-4.0, 4.0);

  switch (kind) {
    case ArtifactKind::CosmicRay: {
      // A sharp streak: no PSF, which is exactly what separates it from a
      // real transient for a sufficiently sharp-eyed model.
      const double angle = rng.uniform(0.0, std::numbers::pi);
      const double length = rng.uniform(5.0, 18.0);
      const double per_px = amplitude / length * rng.uniform(1.0, 2.0);
      const double dy = std::sin(angle);
      const double dx = std::cos(angle);
      for (double t = -length / 2; t <= length / 2; t += 0.5) {
        const auto y = static_cast<std::int64_t>(std::lround(cy + t * dy));
        const auto x = static_cast<std::int64_t>(std::lround(cx + t * dx));
        if (y >= 0 && y < h && x >= 0 && x < w) {
          stamp[y * w + x] += static_cast<float>(per_px);
        }
      }
      break;
    }
    case ArtifactKind::Dipole: {
      // Misregistration residual: a PSF-shaped positive lobe next to an
      // equally strong negative lobe ~1 pixel away.
      const GaussianPsf psf(rng.uniform(2.5, 4.5));
      const double shift = rng.uniform(0.8, 1.8);
      const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
      // Each pixel becomes (s + pos) − neg, computed only in each lobe's
      // box (see GaussianPsf::add_point_source).
      psf.add_point_source(stamp, cy, cx, amplitude * rng.uniform(1.0, 2.0));
      psf.add_point_source(stamp, cy + shift * std::sin(angle),
                           cx + shift * std::cos(angle),
                           amplitude * rng.uniform(1.0, 2.0), true);
      break;
    }
    case ArtifactKind::HotPixel: {
      const auto y = static_cast<std::int64_t>(std::lround(cy));
      const auto x = static_cast<std::int64_t>(std::lround(cx));
      if (y >= 0 && y < h && x >= 0 && x < w) {
        stamp[y * w + x] += static_cast<float>(amplitude *
                                               rng.uniform(2.0, 5.0));
      }
      break;
    }
    case ArtifactKind::BadColumn: {
      const auto x = static_cast<std::int64_t>(std::lround(cx));
      if (x >= 0 && x < w) {
        const double per_px =
            amplitude / static_cast<double>(h) * rng.uniform(2.0, 6.0);
        const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
        for (std::int64_t y = 0; y < h; ++y) {
          stamp[y * w + x] += static_cast<float>(sign * per_px * h / 8.0);
        }
      }
      break;
    }
  }
}

nn::LazyDataset make_real_bogus_dataset(const SnDataset& data,
                                        std::vector<std::int64_t> samples,
                                        std::int64_t crop,
                                        double max_real_mag,
                                        std::uint64_t seed) {
  if (crop <= 0) {
    throw std::invalid_argument("make_real_bogus_dataset: bad crop");
  }
  struct Item {
    std::int64_t sample;
    astro::Band band;
    std::int64_t epoch;
  };
  // Partition the (sample, band, epoch) space into detectable-SN stamps
  // ("real") and SN-free stamps (bogus hosts).
  std::vector<Item> real_items;
  std::vector<Item> empty_items;
  const std::int64_t epochs = data.config().schedule.epochs_per_band;
  for (const std::int64_t i : samples) {
    for (const astro::Band b : astro::kAllBands) {
      for (std::int64_t e = 0; e < epochs; ++e) {
        const double mag = data.true_magnitude(i, b, e, 31.0);
        if (mag <= max_real_mag) {
          real_items.push_back({i, b, e});
        } else if (mag >= 30.5) {
          empty_items.push_back({i, b, e});
        }
      }
    }
  }
  const auto pairs = static_cast<std::int64_t>(
      std::min(real_items.size(), empty_items.size()));
  if (pairs == 0) {
    throw std::invalid_argument(
        "make_real_bogus_dataset: no usable stamps (dataset too small?)");
  }

  auto generator = [&data, real_items = std::move(real_items),
                    empty_items = std::move(empty_items), crop, seed,
                    max_real_mag](std::int64_t k) -> nn::Sample {
    const bool real = (k % 2 == 0);
    const auto j = static_cast<std::size_t>(k / 2);
    const auto& item = real ? real_items[j] : empty_items[j];

    Tensor diff = center_crop(
        data.difference_image(item.sample, item.band, item.epoch), crop);
    if (!real) {
      // Amplitude comparable to a borderline-real transient, so total
      // flux alone cannot separate the classes.
      Rng rng(seed ^ (static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ULL));
      const double amplitude =
          astro::flux_from_mag(max_real_mag - rng.uniform(0.0, 2.0));
      const auto kind = kAllArtifactKinds[static_cast<std::size_t>(
          rng.uniform_index(kAllArtifactKinds.size()))];
      inject_artifact(diff, kind, amplitude, rng);
    }

    nn::Sample s;
    s.x = Tensor({1, crop, crop});
    for (std::int64_t p = 0; p < diff.size(); ++p) {
      s.x[p] = static_cast<float>(astro::signed_log(diff[p]));
    }
    s.y = Tensor({1}, real ? 1.0f : 0.0f);
    return s;
  };
  // Batch-parallel: difference rendering is stateless and the artifact
  // RNG is derived per index, so batches fan across the shared pool.
  return nn::LazyDataset(2 * pairs, std::move(generator),
                         nn::BatchMode::Parallel);
}

}  // namespace sne::sim
