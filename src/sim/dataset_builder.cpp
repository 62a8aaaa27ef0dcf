#include "sim/dataset_builder.h"

#include <algorithm>
#include <stdexcept>

#include "astro/photometry.h"
#include "obs/obs.h"
#include "tensor/thread_pool.h"

namespace sne::sim {

namespace {

// Total stamps produced by the batched renderers below, across all bands
// and epochs — the raw throughput figure for the simulation side.
obs::Counter& stamps_counter() {
  static obs::Counter& c = obs::counter("sim.stamps");
  return c;
}

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) noexcept {
  // SplitMix-style combiner: decorrelates derived streams.
  std::uint64_t x = a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Purpose tags for derived RNG streams.
constexpr std::int64_t kPurposeReference = 1;
constexpr std::int64_t kPurposeObservation = 2;
constexpr std::int64_t kPurposeMeasurement = 3;

}  // namespace

SnDataset SnDataset::build(const Config& config) {
  if (config.num_samples <= 0) {
    throw std::invalid_argument("SnDataset: num_samples must be positive");
  }
  GalaxyCatalog catalog = GalaxyCatalog::generate(config.catalog);
  astro::Cosmology cosmology;

  Rng rng(config.seed);
  std::vector<SampleSpec> specs;
  specs.reserve(static_cast<std::size_t>(config.num_samples));

  for (std::int64_t i = 0; i < config.num_samples; ++i) {
    SampleSpec s;
    s.galaxy_index =
        static_cast<std::int64_t>(rng.uniform_index(
            static_cast<std::uint64_t>(catalog.size())));
    const Galaxy& host = catalog.galaxy(s.galaxy_index);

    // With the default p_ia = 0.5 the classes are exactly balanced, as in
    // the paper's 6000/6000 dataset; otherwise a Bernoulli draw.
    const bool make_ia =
        config.p_ia == 0.5 ? (i % 2 == 0) : rng.bernoulli(config.p_ia);
    const astro::SnType type =
        make_ia ? astro::SnType::Ia
                : astro::kNonIaTypes[static_cast<std::size_t>(
                      rng.uniform_index(astro::kNonIaTypes.size()))];

    Rng schedule_rng = rng.fork();
    s.schedule = make_schedule(config.schedule, schedule_rng);

    const double peak_lo = config.schedule.start_mjd + config.peak_margin_lo;
    const double peak_hi = config.schedule.start_mjd +
                           config.schedule.season_days -
                           config.peak_margin_hi;
    s.sn = astro::sample_sn_params(type, host.photo_z, peak_lo, peak_hi, rng,
                                   config.population);
    s.offset = sample_sn_offset(host.morphology, rng);
    s.noise_seed = rng.next_u64();
    specs.push_back(std::move(s));
  }
  return SnDataset(config, std::move(catalog), std::move(specs));
}

SnDataset SnDataset::from_parts(const Config& config,
                                std::vector<SampleSpec> specs) {
  if (specs.empty()) {
    throw std::invalid_argument("SnDataset::from_parts: no specs");
  }
  GalaxyCatalog catalog = GalaxyCatalog::generate(config.catalog);
  for (const SampleSpec& s : specs) {
    if (s.galaxy_index < 0 || s.galaxy_index >= catalog.size()) {
      throw std::invalid_argument(
          "SnDataset::from_parts: galaxy index out of catalog range");
    }
  }
  return SnDataset(config, std::move(catalog), std::move(specs));
}

Rng SnDataset::stream(std::int64_t i, std::int64_t purpose, std::int64_t band,
                      std::int64_t epoch) const {
  const std::uint64_t key =
      mix64(spec(i).noise_seed,
            mix64(static_cast<std::uint64_t>(purpose),
                  mix64(static_cast<std::uint64_t>(band),
                        static_cast<std::uint64_t>(epoch))));
  return Rng(key);
}

Observation SnDataset::band_epoch(std::int64_t i, astro::Band b,
                                  std::int64_t e) const {
  const auto epochs = spec(i).schedule.band_observations(b);
  if (e < 0 || e >= static_cast<std::int64_t>(epochs.size())) {
    throw std::out_of_range("SnDataset: epoch index out of range");
  }
  return epochs[static_cast<std::size_t>(e)];
}

Tensor SnDataset::reference_image(std::int64_t i, astro::Band b) const {
  Rng rng = stream(i, kPurposeReference, astro::band_index(b), 0);
  const Observation& ref =
      spec(i).schedule.references[static_cast<std::size_t>(
          astro::band_index(b))];
  return renderer_.render_reference(host(i), ref, rng);
}

Tensor SnDataset::observation_image(std::int64_t i, astro::Band b,
                                    std::int64_t e) const {
  Rng rng = stream(i, kPurposeObservation, astro::band_index(b), e);
  const Observation obs = band_epoch(i, b, e);
  const double flux = light_curve(i).flux(b, obs.mjd);
  return renderer_.render_observation(host(i), obs, flux, spec(i).offset, rng);
}

Tensor SnDataset::matched_reference_image(std::int64_t i, astro::Band b,
                                          std::int64_t e) const {
  const Observation obs = band_epoch(i, b, e);
  const Observation& ref =
      spec(i).schedule.references[static_cast<std::size_t>(
          astro::band_index(b))];
  return match_reference(reference_image(i, b), obs, ref);
}

Tensor SnDataset::difference_image(std::int64_t i, astro::Band b,
                                   std::int64_t e) const {
  const Observation obs = band_epoch(i, b, e);
  const Observation& ref =
      spec(i).schedule.references[static_cast<std::size_t>(
          astro::band_index(b))];
  return psf_matched_difference(observation_image(i, b, e),
                                reference_image(i, b), obs, ref);
}

double SnDataset::true_flux(std::int64_t i, astro::Band b,
                            std::int64_t e) const {
  const Observation obs = band_epoch(i, b, e);
  return light_curve(i).flux(b, obs.mjd);
}

double SnDataset::true_magnitude(std::int64_t i, astro::Band b,
                                 std::int64_t e, double faint_limit) const {
  const double f = true_flux(i, b, e);
  const double floor_flux = astro::flux_from_mag(faint_limit);
  return astro::mag_from_flux(std::max(f, floor_flux));
}

FluxMeasurement SnDataset::measured_point(std::int64_t i, astro::Band b,
                                          std::int64_t e) const {
  Rng rng = stream(i, kPurposeMeasurement, astro::band_index(b), e);
  return sample_measurement(light_curve(i), band_epoch(i, b, e),
                            config_.renderer.noise, rng);
}

std::vector<Tensor> SnDataset::matched_reference_images(
    const std::vector<std::int64_t>& samples, astro::Band b,
    std::int64_t e) const {
  obs::Span span("sim.matched_reference_images",
                 static_cast<std::int64_t>(samples.size()));
  stamps_counter().add(static_cast<std::int64_t>(samples.size()));
  std::vector<Tensor> out(samples.size());
  parallel_for(0, static_cast<std::int64_t>(samples.size()),
               [&](std::int64_t k) {
                 out[static_cast<std::size_t>(k)] = matched_reference_image(
                     samples[static_cast<std::size_t>(k)], b, e);
               });
  return out;
}

std::vector<Tensor> SnDataset::difference_images(
    const std::vector<std::int64_t>& samples, astro::Band b,
    std::int64_t e) const {
  obs::Span span("sim.difference_images",
                 static_cast<std::int64_t>(samples.size()));
  stamps_counter().add(static_cast<std::int64_t>(samples.size()));
  std::vector<Tensor> out(samples.size());
  parallel_for(0, static_cast<std::int64_t>(samples.size()),
               [&](std::int64_t k) {
                 out[static_cast<std::size_t>(k)] = difference_image(
                     samples[static_cast<std::size_t>(k)], b, e);
               });
  return out;
}

std::vector<FluxMeasurement> SnDataset::measured_light_curve(
    std::int64_t i) const {
  std::vector<FluxMeasurement> points;
  points.reserve(spec(i).schedule.observations.size());
  for (const astro::Band b : astro::kAllBands) {
    const auto epochs = spec(i).schedule.band_observations(b);
    for (std::int64_t e = 0; e < static_cast<std::int64_t>(epochs.size());
         ++e) {
      points.push_back(measured_point(i, b, e));
    }
  }
  std::sort(points.begin(), points.end(),
            [](const FluxMeasurement& a, const FluxMeasurement& b) {
              return a.mjd < b.mjd;
            });
  return points;
}

}  // namespace sne::sim
