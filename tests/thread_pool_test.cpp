// thread_pool_test.cpp — the parallel_for contract (coverage, exception
// propagation, nesting) and the determinism guarantee: every threaded hot
// path, up to full band-CNN training, is bitwise identical for any thread
// count. Carries the `threaded` ctest label so the suite can run under
// -DSNE_SANITIZE=thread (tier 2).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/band_cnn.h"
#include "nn/nn.h"
#include "sim/dataset_builder.h"
#include "tensor/gemm.h"
#include "tensor/thread_pool.h"

namespace sne {
namespace {

// Restores a 1-wide pool when a test exits, however it exits.
struct PoolWidthGuard {
  ~PoolWidthGuard() { set_num_threads(1); }
};

TEST(ParallelFor, EmptyRangeNeverInvokes) {
  PoolWidthGuard guard;
  set_num_threads(4);
  std::atomic<int> calls{0};
  parallel_for(0, 0, [&](std::int64_t) { ++calls; });
  parallel_for(5, 5, [&](std::int64_t) { ++calls; });
  parallel_for(7, 3, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, RangeSmallerThanThreadCount) {
  PoolWidthGuard guard;
  set_num_threads(4);
  std::vector<std::atomic<int>> hits(2);
  parallel_for(0, 2, [&](std::int64_t i) {
    ++hits[static_cast<std::size_t>(i)];
  });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  PoolWidthGuard guard;
  set_num_threads(4);
  constexpr std::int64_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(3, 3 + kCount, [&](std::int64_t i) {
    ++hits[static_cast<std::size_t>(i - 3)];
  });
  for (std::int64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, PropagatesExceptionsAndStaysUsable) {
  PoolWidthGuard guard;
  set_num_threads(4);
  EXPECT_THROW(parallel_for(0, 100,
                            [&](std::int64_t i) {
                              if (i == 37) {
                                throw std::runtime_error("boom");
                              }
                            }),
               std::runtime_error);
  // Serial fast path propagates too.
  set_num_threads(1);
  EXPECT_THROW(parallel_for(0, 3,
                            [&](std::int64_t) {
                              throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // The pool survives a throwing job.
  set_num_threads(4);
  std::atomic<int> calls{0};
  parallel_for(0, 64, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 64);
}

TEST(ParallelFor, NestedRegionsRunInline) {
  PoolWidthGuard guard;
  set_num_threads(4);
  std::atomic<int> calls{0};
  parallel_for(0, 4, [&](std::int64_t) {
    parallel_for(0, 8, [&](std::int64_t) { ++calls; });
  });
  EXPECT_EQ(calls.load(), 32);
}

TEST(ThreadPool, SetNumThreadsAndDefaultRestore) {
  PoolWidthGuard guard;
  set_num_threads(4);
  EXPECT_EQ(num_threads(), 4);
  set_num_threads(0);  // back to SNE_NUM_THREADS / hardware default
  EXPECT_GE(num_threads(), 1);
}

TEST(ThreadDeterminism, SgemmBitwiseIdenticalAcrossThreadCounts) {
  PoolWidthGuard guard;
  Rng rng(11);
  const std::int64_t m = 200, n = 190, k = 170;
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor at = Tensor::randn({k, m}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);

  set_num_threads(1);
  Tensor c1({m, n});
  Tensor c1t({m, n});
  sgemm(m, n, k, a.data(), b.data(), 0.0f, c1.data());
  sgemm_at(m, n, k, at.data(), b.data(), 0.0f, c1t.data());

  set_num_threads(4);
  Tensor c4({m, n});
  Tensor c4t({m, n});
  sgemm(m, n, k, a.data(), b.data(), 0.0f, c4.data());
  sgemm_at(m, n, k, at.data(), b.data(), 0.0f, c4t.data());

  EXPECT_EQ(std::memcmp(c1.data(), c4.data(),
                        static_cast<std::size_t>(c1.size()) * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(c1t.data(), c4t.data(),
                        static_cast<std::size_t>(c1t.size()) * sizeof(float)),
            0);
}

TEST(ThreadDeterminism, BatchedRenderMatchesPerSampleCalls) {
  PoolWidthGuard guard;
  sim::SnDataset::Config cfg;
  cfg.num_samples = 8;
  cfg.catalog.count = 50;
  const sim::SnDataset data = sim::SnDataset::build(cfg);

  std::vector<std::int64_t> samples = {6, 0, 3, 7, 1};
  set_num_threads(4);
  const auto refs = data.matched_reference_images(samples, astro::Band::i, 1);
  const auto diffs = data.difference_images(samples, astro::Band::i, 1);

  set_num_threads(1);
  ASSERT_EQ(refs.size(), samples.size());
  ASSERT_EQ(diffs.size(), samples.size());
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const Tensor ref =
        data.matched_reference_image(samples[k], astro::Band::i, 1);
    const Tensor diff = data.difference_image(samples[k], astro::Band::i, 1);
    ASSERT_EQ(refs[k].shape(), ref.shape());
    EXPECT_EQ(std::memcmp(refs[k].data(), ref.data(),
                          static_cast<std::size_t>(ref.size()) *
                              sizeof(float)),
              0)
        << "matched reference of sample " << samples[k];
    EXPECT_EQ(std::memcmp(diffs[k].data(), diff.data(),
                          static_cast<std::size_t>(diff.size()) *
                              sizeof(float)),
              0)
        << "difference of sample " << samples[k];
  }
}

// Trains the paper's band CNN for 2 epochs and returns per-epoch losses
// plus the final parameters. Everything is seeded, so two runs may differ
// only through the thread count.
struct TrainResult {
  std::vector<float> losses;
  std::vector<float> params;
};

TrainResult train_band_cnn(int threads) {
  set_num_threads(threads);

  core::BandCnnConfig cfg;
  cfg.input_size = 36;
  Rng model_rng(7);
  core::BandCnn cnn(cfg, model_rng);

  Rng data_rng(13);
  std::vector<nn::Sample> samples;
  for (int i = 0; i < 16; ++i) {
    nn::Sample s;
    s.x = Tensor::randn({2, 36, 36}, data_rng);
    s.y = Tensor({1}, 25.0f + static_cast<float>(data_rng.normal(0.0, 1.0)));
    samples.push_back(std::move(s));
  }
  nn::VectorDataset data(std::move(samples));

  nn::Adam opt(cnn.params(), 1e-3f);
  nn::Trainer trainer(cnn, opt, nn::mse_loss);
  nn::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 8;
  tc.grad_clip = 5.0f;
  const auto history = trainer.fit(data, nullptr, tc);

  TrainResult result;
  for (const nn::EpochStats& e : history) result.losses.push_back(e.train_loss);
  for (nn::Param* p : cnn.params()) {
    for (std::int64_t i = 0; i < p->value.size(); ++i) {
      result.params.push_back(p->value[i]);
    }
  }
  for (nn::Param* p : cnn.buffers()) {
    for (std::int64_t i = 0; i < p->value.size(); ++i) {
      result.params.push_back(p->value[i]);
    }
  }
  return result;
}

TEST(ThreadDeterminism, BandCnnTrainingIdenticalAcrossThreadCounts) {
  PoolWidthGuard guard;
  const TrainResult serial = train_band_cnn(1);
  const TrainResult threaded = train_band_cnn(4);

  ASSERT_EQ(serial.losses.size(), threaded.losses.size());
  for (std::size_t e = 0; e < serial.losses.size(); ++e) {
    EXPECT_EQ(serial.losses[e], threaded.losses[e]) << "epoch " << e;
  }
  ASSERT_EQ(serial.params.size(), threaded.params.size());
  for (std::size_t i = 0; i < serial.params.size(); ++i) {
    ASSERT_EQ(serial.params[i], threaded.params[i]) << "param element " << i;
  }
}

}  // namespace
}  // namespace sne
