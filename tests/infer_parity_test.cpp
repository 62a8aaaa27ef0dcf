// infer_parity_test.cpp — the serving path (InferencePlan/Session) must
// agree with the training path's eval-mode forward: folded and unfolded
// plans within allclose, repeated runs bitwise identical, save/load round
// trips exact, and the steady state allocation-free. Also pins down
// set_training propagation through the composite modules the split relies
// on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "eval/parity.h"

#include "core/band_cnn.h"
#include "core/pixel_transform.h"
#include "core/inference.h"
#include "data/snapshot.h"
#include "core/joint_model.h"
#include "core/lc_classifier.h"
#include "infer/session.h"
#include "nn/model_io.h"
#include "nn/nn.h"
#include "tensor/gemm.h"
#include "tensor/thread_pool.h"

// Global allocation counter for the zero-alloc-after-warmup test. Only
// counts while armed, so gtest bookkeeping outside the measured window
// stays invisible.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::int64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sne::core {
namespace {

constexpr std::int64_t kStamp = 36;  // smallest extent the trunk survives

BandCnnConfig small_cnn_config() {
  BandCnnConfig cfg;
  cfg.input_size = kStamp;
  return cfg;
}

// A few training-mode forward passes move the batch-norm running
// statistics off their init so folding is exercised on non-trivial
// values.
void warm_running_stats(BandCnn& cnn, Rng& rng) {
  cnn.set_training(true);
  for (int i = 0; i < 3; ++i) {
    const Tensor x =
        Tensor::rand_uniform({4, 2, kStamp, kStamp}, rng, -50.0f, 400.0f);
    (void)cnn.forward(x);
  }
  cnn.set_training(false);
}

TEST(InferParity, UnfoldedInferIntoMatchesEvalForward) {
  // The layer-by-layer serving forward (BatchNorm2d and PReLU as their
  // own passes) against the training path's eval-mode forward.
  Rng rng(11);
  BandCnn cnn(small_cnn_config(), rng);
  warm_running_stats(cnn, rng);

  const Tensor x =
      Tensor::rand_uniform({5, 2, kStamp, kStamp}, rng, -50.0f, 400.0f);
  const Tensor ref = cnn.forward(x);

  Tensor got;
  cnn.infer_into(x, got);
  ASSERT_EQ(got.shape(), ref.shape());
  EXPECT_TRUE(got.allclose(ref, 1e-5f));
}

TEST(InferParity, SessionMatchesEvalForwardFolded) {
  Rng rng(12);
  BandCnn cnn(small_cnn_config(), rng);
  warm_running_stats(cnn, rng);

  const Tensor x =
      Tensor::rand_uniform({8, 2, kStamp, kStamp}, rng, -50.0f, 400.0f);
  const Tensor ref = cnn.forward(x);

  infer::InferenceSession session = make_session(cnn);  // folding on
  EXPECT_EQ(session.plan().num_folded(), 3u);           // three conv stages
  const Tensor got = session.run(x);
  ASSERT_EQ(got.shape(), ref.shape());
  EXPECT_TRUE(got.allclose(ref, 1e-3f));  // folding reassociates rounding
}

TEST(InferParity, ClassifierSessionMatchesEvalForward) {
  Rng rng(13);
  LcClassifierConfig cfg;
  LcClassifier clf(cfg, rng);
  clf.set_training(false);

  const Tensor x = Tensor::rand_uniform({7, cfg.input_dim}, rng, -2.f, 2.f);
  const Tensor ref = clf.forward(x);
  infer::InferenceSession session = make_session(clf);
  const Tensor got = session.run(x);
  ASSERT_EQ(got.shape(), ref.shape());
  EXPECT_TRUE(got.allclose(ref, 1e-5f));
}

TEST(InferParity, JointSessionMatchesEvalForward) {
  Rng rng(14);
  JointModelConfig jc;
  jc.cnn.input_size = kStamp;
  JointModel joint(jc, rng);
  {
    // Warm the CNN's running stats through the joint training path.
    const Tensor warm = Tensor::rand_uniform(
        {2, JointModel::input_dim(kStamp)}, rng, -50.0f, 400.0f);
    (void)joint.forward(warm);
  }
  joint.set_training(false);

  Tensor x = Tensor::rand_uniform({3, JointModel::input_dim(kStamp)}, rng,
                                  -50.0f, 400.0f);
  // Dates live in the trailing 5 slots of each sample; keep them in a
  // plausible normalized range.
  for (std::int64_t i = 0; i < x.extent(0); ++i) {
    float* row = x.data() + (i + 1) * (x.extent(1)) - 5;
    for (int b = 0; b < 5; ++b) row[b] = static_cast<float>(0.1 * (b + 1));
  }
  const Tensor ref = joint.forward(x);

  infer::JointSession session = make_session(joint);
  const Tensor got = session.run(x);
  ASSERT_EQ(got.shape(), ref.shape());
  EXPECT_TRUE(got.allclose(ref, 1e-3f));
}

TEST(InferParity, RepeatedRunsAreBitwiseIdentical) {
  Rng rng(15);
  BandCnn cnn(small_cnn_config(), rng);
  warm_running_stats(cnn, rng);

  const Tensor x =
      Tensor::rand_uniform({4, 2, kStamp, kStamp}, rng, -50.0f, 400.0f);
  infer::InferenceSession session = make_session(cnn);
  Tensor a;
  Tensor b;
  session.run(x, a);
  session.run(x, b);
  EXPECT_TRUE(a.equals(b));

  // A second session over a shared plan reproduces the same bits too.
  auto plan = compile_plan(cnn);
  infer::InferenceSession s1(plan);
  infer::InferenceSession s2(plan);
  EXPECT_TRUE(s1.run(x).equals(s2.run(x)));
}

TEST(InferParity, ModelIoRoundTripGivesIdenticalScores) {
  Rng rng(16);
  BandCnn cnn(small_cnn_config(), rng);
  warm_running_stats(cnn, rng);

  const std::string path = testing::TempDir() + "infer_parity_cnn.snet";
  nn::save_model(path, cnn);

  Rng other(99);  // different init: everything must come from the file
  BandCnn reloaded(small_cnn_config(), other);
  nn::load_model(path, reloaded);
  reloaded.set_training(false);

  const Tensor x =
      Tensor::rand_uniform({6, 2, kStamp, kStamp}, rng, -50.0f, 400.0f);
  infer::InferenceSession before = make_session(cnn);
  infer::InferenceSession after = make_session(reloaded);
  EXPECT_TRUE(before.run(x).equals(after.run(x)));
  std::remove(path.c_str());
}

TEST(InferParity, SetTrainingPropagatesThroughComposites) {
  Rng rng(17);
  JointModelConfig jc;
  jc.cnn.input_size = kStamp;
  JointModel joint(jc, rng);

  joint.set_training(false);
  EXPECT_FALSE(joint.is_training());
  EXPECT_FALSE(joint.band_cnn().is_training());
  EXPECT_FALSE(joint.classifier().is_training());
  const nn::Sequential& net = joint.band_cnn().net();
  for (std::size_t i = 0; i < net.size(); ++i) {
    EXPECT_FALSE(net.layer(i).is_training()) << "layer " << i;
  }

  joint.set_training(true);
  EXPECT_TRUE(joint.band_cnn().is_training());
  EXPECT_TRUE(joint.classifier().is_training());
  for (std::size_t i = 0; i < net.size(); ++i) {
    EXPECT_TRUE(net.layer(i).is_training()) << "layer " << i;
  }

  // Highway is a composite of two Linears; the flag must reach both.
  nn::Highway hw(8, rng);
  hw.set_training(false);
  EXPECT_FALSE(hw.transform().is_training());
  EXPECT_FALSE(hw.gate().is_training());
}

// The paper's three conv stages without batch norm (conv → PReLU → 2×2
// max-pool each) and its FC head, over [2, kStamp, kStamp] stamps.
void add_conv_prelu_pool_stages(nn::Sequential& net, Rng& rng) {
  std::int64_t in_ch = 2;
  for (const std::int64_t out_ch : {10, 20, 30}) {
    net.emplace<nn::Conv2d>(in_ch, out_ch, 5, rng);
    net.emplace<nn::PReLU>(out_ch, 0.25f);
    net.emplace<nn::MaxPool2d>(2);
    in_ch = out_ch;
  }
  net.emplace<nn::Flatten>();  // 36 → 32 → 16 → 12 → 6 → 2 → 1
  net.emplace<nn::Linear>(30, 8, rng);
  net.emplace<nn::PReLU>(8, 0.25f);
  net.emplace<nn::Linear>(8, 1, rng);
  net.set_training(false);
}

TEST(InferParity, FusedPreluSessionMatchesUnfusedBitwise) {
  Rng rng(19);
  BandCnn cnn(small_cnn_config(), rng);
  // One PReLU per conv stage rides the GEMM epilogue; the FC-stage PReLUs
  // follow Linears and stay standalone steps.
  EXPECT_EQ(make_session(cnn).plan().num_fused_prelu(), 3u);

  nn::Sequential net;
  add_conv_prelu_pool_stages(net, rng);
  infer::InferenceSession fused(net, {2, kStamp, kStamp});
  EXPECT_EQ(fused.plan().num_fused_prelu(), 3u);
  EXPECT_EQ(fused.plan().num_steps(), 10u);

  // The epilogue applies the same elementwise operations in the same order
  // as the standalone activation pass, so fusion changes no bits.
  const Tensor x =
      Tensor::rand_uniform({6, 2, kStamp, kStamp}, rng, -50.0f, 400.0f);
  Tensor unfused;
  net.infer_into(x, unfused);
  EXPECT_TRUE(fused.run(x).equals(unfused));
}

TEST(InferParity, PreluFusesIntoUnfoldedAndPointwiseConvs) {
  // Fusion does not require a folded BN: any Conv2d directly followed by a
  // channel-matched PReLU absorbs it — including the 1×1 fast path, whose
  // GEMM runs straight off the input with no column buffer.
  Rng rng(20);
  nn::Sequential net;
  net.emplace<nn::Conv2d>(2, 8, 3, rng);
  net.emplace<nn::PReLU>(8, 0.25f);
  net.emplace<nn::Conv2d>(8, 4, 1, rng);  // pointwise
  net.emplace<nn::PReLU>(4, 0.25f);
  net.set_training(false);

  const Shape sample{2, 10, 10};
  const Tensor x = Tensor::rand_uniform({5, 2, 10, 10}, rng, -2.0f, 2.0f);

  infer::InferenceSession fused(net, sample);
  EXPECT_EQ(fused.plan().num_folded(), 0u);
  EXPECT_EQ(fused.plan().num_fused_prelu(), 2u);
  EXPECT_EQ(fused.plan().num_steps(), 2u);

  Tensor unfused;
  net.infer_into(x, unfused);
  EXPECT_TRUE(fused.run(x).equals(unfused));
}

// Every conv step followed by MaxPool2d(2) computes the pool itself in
// run(); the pool step stays in the plan, absorbed. calibrate() runs each
// step unfused, so its output is the reference: the same bits for the
// band CNN's plan, for a net whose pools cannot fuse (a ReLU sits between
// conv and pool), and when the absorbed pool is the plan's last step (the
// conv then writes straight into `out`).
TEST(InferParity, PoolFusedRunMatchesUnfusedCalibrateBitwise) {
  Rng rng(25);
  BandCnn cnn(small_cnn_config(), rng);
  warm_running_stats(cnn, rng);
  const Tensor x =
      Tensor::rand_uniform({5, 2, kStamp, kStamp}, rng, -50.0f, 400.0f);
  nn::Sequential relu_net;
  relu_net.emplace<nn::Conv2d>(2, 6, 5, rng);
  relu_net.emplace<nn::ReLU>();
  relu_net.emplace<nn::MaxPool2d>(2);
  relu_net.set_training(false);
  const Tensor relu_x = Tensor::randn({3, 2, 15, 14}, rng);
  const auto expect_run_matches_calibrate =
      [](infer::InferenceSession& session, const Tensor& in) {
        const Tensor got = session.run(in);
        infer::CalibrationTable table;
        Tensor want;
        session.calibrate(in, want, table);
        ASSERT_EQ(got.shape(), want.shape());
        EXPECT_EQ(
            std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<std::size_t>(got.size())),
            0);
      };
  {
    infer::InferenceSession session = make_session(cnn);
    EXPECT_EQ(session.plan().num_fused_pool(), 3u);
    EXPECT_EQ(session.plan().num_steps(), 13u);
    expect_run_matches_calibrate(session, x);
  }
  {
    infer::InferenceSession session(relu_net, {2, 15, 14});
    EXPECT_EQ(session.plan().num_fused_pool(), 0u);
    EXPECT_EQ(session.plan().num_steps(), 3u);
    expect_run_matches_calibrate(session, relu_x);
  }

  nn::Sequential tail;
  tail.emplace<nn::Conv2d>(2, 6, 3, rng);
  tail.emplace<nn::PReLU>(6, -0.5f);
  tail.emplace<nn::MaxPool2d>(2);
  infer::InferenceSession session(tail, {2, 11, 12});
  EXPECT_EQ(session.plan().num_steps(), 2u);
  EXPECT_EQ(session.plan().num_fused_pool(), 1u);
  const Tensor small = Tensor::randn({3, 2, 11, 12}, rng);
  Tensor got;
  session.run(small, got);
  infer::CalibrationTable table;
  Tensor want;
  session.calibrate(small, want, table);
  EXPECT_EQ(got.shape(), (Shape{3, 6, 4, 5}));
  EXPECT_TRUE(got.equals(want));
}

TEST(InferParity, PlanValidatesShapesAtPlanTime) {
  Rng rng(21);
  // Layer-level: infer_shape mirrors the execution-path validation instead
  // of returning impossible non-positive extents.
  nn::Conv2d conv(2, 4, 5, rng);
  EXPECT_THROW(conv.infer_shape({1, 2, 3, 3}), std::invalid_argument);
  nn::MaxPool2d max_pool(2);
  EXPECT_THROW(max_pool.infer_shape({1, 2, 1, 1}), std::invalid_argument);
  nn::AvgPool2d avg_pool(2);
  EXPECT_THROW(avg_pool.infer_shape({1, 2, 1, 1}), std::invalid_argument);

  // Plan-level: a network that cannot run on the sample shape is rejected
  // when the plan is built, not when the first batch arrives.
  nn::Sequential net;
  net.emplace<nn::Conv2d>(2, 4, 5, rng);
  EXPECT_THROW(infer::InferencePlan(net, {2, 4, 4}), std::invalid_argument);
}

// ---- int8 lowering ----

// A calibrated int8 session for the small BandCnn, plus the fp32 bits to
// compare against. Calibration streams a few batches through a fresh fp32
// session, exactly as the CLI does.
struct QuantFixture {
  explicit QuantFixture(unsigned seed) : rng(seed), cnn(small_cnn_config(), rng) {
    warm_running_stats(cnn, rng);
    for (int i = 0; i < 3; ++i) {
      calib_batches.push_back(
          Tensor::rand_uniform({4, 2, kStamp, kStamp}, rng, -50.0f, 400.0f));
    }
    infer::InferenceSession fp32 = make_session(cnn);
    Tensor out;
    for (const Tensor& b : calib_batches) fp32.calibrate(b, out, table);
  }

  infer::InferenceSession int8_session() {
    SessionOptions opts;
    opts.precision = Precision::Int8;
    opts.calibration = &table;
    return make_session(cnn, opts);
  }

  Rng rng;
  BandCnn cnn;
  std::vector<Tensor> calib_batches;
  infer::CalibrationTable table;
};

TEST(Int8Parity, QuantizedSessionTracksFp32WithinTolerance) {
  QuantFixture fx(21);
  const Tensor x =
      Tensor::rand_uniform({6, 2, kStamp, kStamp}, fx.rng, -50.0f, 400.0f);
  infer::InferenceSession fp32 = make_session(fx.cnn);
  infer::InferenceSession int8 = fx.int8_session();
  const Tensor ref = fp32.run(x);
  const Tensor got = int8.run(x);
  ASSERT_EQ(got.shape(), ref.shape());

  // Quantization noise, not drift: the embeddings should agree to a few
  // percent of the activation scale, far looser than float parity but
  // bounded.
  float max_abs = 0.0f, ref_max = 0.0f;
  for (std::int64_t i = 0; i < ref.size(); ++i) {
    max_abs = std::max(max_abs, std::abs(got.data()[i] - ref.data()[i]));
    ref_max = std::max(ref_max, std::abs(ref.data()[i]));
  }
  EXPECT_GT(ref_max, 0.0f);
  EXPECT_LT(max_abs, 0.05f * ref_max)
      << "max|Δ|=" << max_abs << " vs max|ref|=" << ref_max;
}

TEST(Int8Parity, QuantizedConvStepsRunUnpooled) {
  QuantFixture fx(26);
  infer::InferenceSession int8 = fx.int8_session();
  EXPECT_EQ(int8.plan().num_int8_steps(), 3u);
  EXPECT_EQ(int8.plan().num_fused_pool(), 0u);
  EXPECT_EQ(int8.plan().num_steps(), 13u);
}

TEST(Int8Parity, QuantizedSessionIsBitwiseInvariant) {
  QuantFixture fx(22);
  const Tensor x =
      Tensor::rand_uniform({5, 2, kStamp, kStamp}, fx.rng, -50.0f, 400.0f);
  infer::InferenceSession s1 = fx.int8_session();
  const Tensor first = s1.run(x);

  // Rerun in the same session, a fresh session, under a different thread
  // count, and on the scalar kernel tier: the int8 path's integer
  // accumulation plus the shared requant sequence make all of them
  // bitwise identical — a strictly stronger contract than fp32's
  // within-tier determinism.
  EXPECT_TRUE(s1.run(x).equals(first));
  infer::InferenceSession s2 = fx.int8_session();
  EXPECT_TRUE(s2.run(x).equals(first));

  set_num_threads(4);
  EXPECT_TRUE(s2.run(x).equals(first));
  set_num_threads(1);

  const GemmTier prev = gemm_tier();
  set_gemm_tier(GemmTier::Scalar);
  EXPECT_TRUE(s2.run(x).equals(first));
  set_gemm_tier(prev);
}

TEST(Int8Parity, CalibrationIsBatchOrderAndThreadCountInvariant) {
  QuantFixture fx(23);

  // Replay the same samples in reverse order and under a different thread
  // count: the table folds an order-independent max over a deterministic
  // fp32 path, so the recorded ranges must be byte-identical.
  infer::CalibrationTable reversed;
  {
    infer::InferenceSession fp32 = make_session(fx.cnn);
    Tensor out;
    set_num_threads(4);
    for (auto it = fx.calib_batches.rbegin(); it != fx.calib_batches.rend();
         ++it) {
      fp32.calibrate(*it, out, reversed);
    }
    set_num_threads(1);
  }
  ASSERT_EQ(reversed.step_max.size(), fx.table.step_max.size());
  EXPECT_EQ(reversed.batches, fx.table.batches);
  EXPECT_TRUE(reversed.input_max.equals(fx.table.input_max));
  EXPECT_TRUE(reversed.step_max.equals(fx.table.step_max));
}

TEST(Int8Parity, CalibrationFromSnapshotReplayMatchesLiveRender) {
  // The satellite contract of the calibration table: scales recorded from
  // a SnapshotDataset replay of the calibration set are byte-identical to
  // scales recorded from the live-rendered batches, at any thread count —
  // snapshot replay is bitwise-faithful and max-abs is order-independent,
  // so the int8 lowering cannot depend on which ingest path fed it.
  Rng rng(29);
  BandCnn cnn(small_cnn_config(), rng);
  warm_running_stats(cnn, rng);

  const nn::LazyDataset source(12, [](std::int64_t i) {
    Tensor x({2, kStamp, kStamp});
    for (std::int64_t k = 0; k < x.size(); ++k) {
      x[k] = static_cast<float>((i * 131 + k) % 449) - 50.0f;
    }
    return nn::Sample{std::move(x), Tensor({1}, static_cast<float>(i % 2))};
  });
  const std::string path = testing::TempDir() + "calib_replay.snap";
  data::write_snapshot(path, source, 4);
  const data::SnapshotDataset snap(path);

  std::vector<std::int64_t> order(12);
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::int64_t>(i);
  }

  const auto record = [&](const nn::Dataset& ds) {
    infer::InferenceSession session = make_session(cnn);
    infer::CalibrationTable table;
    Tensor out;
    for (std::int64_t first = 0; first < 12; first += 4) {
      session.calibrate(ds.get_batch(order, first, 4).x, out, table);
    }
    return table;
  };

  const infer::CalibrationTable live = record(source);
  set_num_threads(4);
  const infer::CalibrationTable replay = record(snap);
  set_num_threads(1);
  std::remove(path.c_str());

  EXPECT_EQ(live.batches, replay.batches);
  EXPECT_TRUE(live.input_max.equals(replay.input_max));
  EXPECT_TRUE(live.step_max.equals(replay.step_max));
}

TEST(Int8Parity, CalibrateRejectsNonFp32Session) {
  QuantFixture fx(24);
  infer::InferenceSession int8 = fx.int8_session();
  infer::CalibrationTable t;
  Tensor out;
  EXPECT_THROW(int8.calibrate(fx.calib_batches[0], out, t), std::logic_error);
}

TEST(Int8Parity, Int8PlanRequiresCalibration) {
  Rng rng(25);
  BandCnn cnn(small_cnn_config(), rng);
  warm_running_stats(cnn, rng);
  SessionOptions opts;
  opts.precision = Precision::Int8;
  EXPECT_THROW(make_session(cnn, opts), std::invalid_argument);
}

TEST(Int8Parity, QuantizedSteadyStateRunIsAllocationFree) {
  QuantFixture fx(26);
  const Tensor x =
      Tensor::rand_uniform({8, 2, kStamp, kStamp}, fx.rng, -50.0f, 400.0f);
  infer::InferenceSession session = fx.int8_session();
  Tensor out;
  session.run(x, out);  // warmup: arena + int8 scratch sized here
  session.run(x, out);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  session.run(x, out);
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0);
}

TEST(Int8Parity, JointCalibrationFactoryIsDeterministic) {
  Rng rng(27);
  JointModelConfig jc;
  jc.cnn.input_size = kStamp;
  JointModel joint(jc, rng);
  {
    const Tensor warm = Tensor::rand_uniform(
        {2, JointModel::input_dim(kStamp)}, rng, -50.0f, 400.0f);
    (void)joint.forward(warm);
  }
  joint.set_training(false);

  std::vector<Tensor> batches;
  for (int i = 0; i < 2; ++i) {
    Tensor x = Tensor::rand_uniform({3, JointModel::input_dim(kStamp)}, rng,
                                    -50.0f, 400.0f);
    for (std::int64_t s = 0; s < x.extent(0); ++s) {
      float* row = x.data() + (s + 1) * x.extent(1) - 5;
      for (int b = 0; b < 5; ++b) row[b] = static_cast<float>(0.1 * (b + 1));
    }
    batches.push_back(std::move(x));
  }

  const infer::JointCalibration t1 = calibrate(joint, batches);
  set_num_threads(4);
  const infer::JointCalibration t2 = calibrate(joint, batches);
  set_num_threads(1);
  EXPECT_TRUE(t1.cnn.input_max.equals(t2.cnn.input_max));
  EXPECT_TRUE(t1.cnn.step_max.equals(t2.cnn.step_max));
  EXPECT_TRUE(t1.classifier.input_max.equals(t2.classifier.input_max));
  EXPECT_TRUE(t1.classifier.step_max.equals(t2.classifier.step_max));

  // And the int8 joint session built from it is itself rerun-invariant.
  SessionOptions int8_opts;
  int8_opts.precision = Precision::Int8;
  int8_opts.joint_calibration = &t1;
  infer::JointSession session = make_session(joint, int8_opts);
  const Tensor first = session.run(batches[0]);
  EXPECT_TRUE(session.run(batches[0]).equals(first));
}

TEST(Int8Parity, JointAucStaysWithinQuantizationBudget) {
  // The acceptance gate of the whole int8 path, at joint-model scale:
  // score a few hundred samples at fp32 and int8 and require the ROC AUC
  // to move by no more than the repo's pinned budget of 1e-3. Labels are
  // synthesized from the fp32 scores' median, which makes the reference
  // AUC 1.0 and the delta a pure measure of quantization-induced rank
  // inversions near the decision boundary — the hardest case for the
  // budget, not the easiest.
  Rng rng(28);
  JointModelConfig jc;
  jc.cnn.input_size = kStamp;
  JointModel joint(jc, rng);
  {
    const Tensor warm = Tensor::rand_uniform(
        {2, JointModel::input_dim(kStamp)}, rng, -50.0f, 400.0f);
    (void)joint.forward(warm);
  }
  joint.set_training(false);

  const auto make_batch = [&](std::int64_t n) {
    Tensor x = Tensor::rand_uniform({n, JointModel::input_dim(kStamp)}, rng,
                                    -50.0f, 400.0f);
    for (std::int64_t s = 0; s < x.extent(0); ++s) {
      float* row = x.data() + (s + 1) * x.extent(1) - 5;
      for (int b = 0; b < 5; ++b) row[b] = static_cast<float>(0.1 * (b + 1));
    }
    return x;
  };

  std::vector<Tensor> calib;
  for (int i = 0; i < 3; ++i) calib.push_back(make_batch(8));
  const infer::JointCalibration table = calibrate(joint, calib);

  SessionOptions int8_opts;
  int8_opts.precision = Precision::Int8;
  int8_opts.joint_calibration = &table;
  infer::JointSession fp32 = make_session(joint);
  infer::JointSession int8 = make_session(joint, int8_opts);

  constexpr std::int64_t kSamples = 192;
  const Tensor batch = make_batch(kSamples);
  const Tensor ref = fp32.run(batch);
  const Tensor got = int8.run(batch);
  ASSERT_EQ(ref.size(), kSamples);
  ASSERT_EQ(got.size(), kSamples);

  std::vector<float> sorted(ref.data(), ref.data() + kSamples);
  std::nth_element(sorted.begin(), sorted.begin() + kSamples / 2,
                   sorted.end());
  const float median = sorted[kSamples / 2];
  std::vector<float> labels(kSamples);
  for (std::int64_t i = 0; i < kSamples; ++i) {
    labels[i] = ref.data()[i] > median ? 1.0f : 0.0f;
  }

  const eval::PrecisionParity parity = eval::precision_parity(
      std::span<const float>(ref.data(), kSamples),
      std::span<const float>(got.data(), kSamples), labels);
  EXPECT_DOUBLE_EQ(parity.auc_reference, 1.0);
  EXPECT_LE(std::abs(parity.auc_delta), 1e-3)
      << "auc fp32=" << parity.auc_reference
      << " int8=" << parity.auc_quantized
      << " max|Δscore|=" << parity.max_abs_diff;
}

// ---- golden digests of the band-CNN serving path ----

// splitmix64: inputs and parameters from integer bits only, so no build
// flag can change them.
struct PinBits {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  // A float with a random sign (when `signed_`), a random mantissa and
  // an exponent in [2^lo, 2^(lo+span)).
  float value(int lo, int span, bool signed_) {
    const std::uint64_t z = next();
    const auto exp = static_cast<std::uint32_t>(
        127 + lo + static_cast<int>((z >> 32) % static_cast<unsigned>(span)));
    const std::uint32_t sign = signed_ ? static_cast<std::uint32_t>(z) &
                                             0x80000000U
                                       : 0U;
    return std::bit_cast<float>(sign | (exp << 23) |
                                (static_cast<std::uint32_t>(z) & 0x7fffffU));
  }
};

// Overwrites every parameter and running statistic of `net` from `bits`,
// in params() then buffers() order. Conv and Linear weights are scaled to
// their fan-in; some PReLU slopes are negative, so a +0 pre-activation
// leaves the epilogue as −0; every third channel's batch norm cancels its
// conv bias (running mean = bias, β = +0), so zero input regions give
// exact 0 outputs and whole windows of ties.
void fill_pinned(nn::Module& net, PinBits& bits) {
  const auto ends_with = [](const std::string& name, const std::string& s) {
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  const std::vector<nn::Param*> params = net.params();
  const std::vector<nn::Param*> buffers = net.buffers();
  for (nn::Param* p : params) {
    Tensor& v = p->value;
    // Weights [out, fan-in]: 25 → 2^-3, 250 or 500 → 2^-5, 64 → 2^-4.
    int lo = -2;
    if (v.rank() == 2) {
      for (std::int64_t f = v.extent(1); f >= 16; f /= 4) --lo;
    }
    for (std::int64_t i = 0; i < v.size(); ++i) {
      if (ends_with(p->name, ".slope")) {
        v[i] = bits.value(-3, 2, true);
      } else if (ends_with(p->name, ".gamma")) {
        v[i] = bits.value(-1, 2, false);
      } else {
        v[i] = bits.value(lo, 2, true);
      }
    }
  }
  for (nn::Param* b : buffers) {
    const bool var = ends_with(b->name, ".running_var");
    for (std::int64_t i = 0; i < b->value.size(); ++i) {
      b->value[i] = var ? bits.value(-1, 3, false) : bits.value(-4, 3, true);
    }
  }
  // "<conv>.bn.*" normalizes the conv whose bias is "<conv>.bias".
  for (nn::Param* bn : params) {
    if (!ends_with(bn->name, ".bn.beta")) continue;
    const std::string conv = bn->name.substr(0, bn->name.size() - 8);
    const nn::Param* bias = nullptr;
    nn::Param* mean = nullptr;
    for (nn::Param* p : params) {
      if (p->name == conv + ".bias") bias = p;
    }
    for (nn::Param* b : buffers) {
      if (b->name == conv + ".bn.running_mean") mean = b;
    }
    ASSERT_TRUE(bias != nullptr && mean != nullptr) << conv;
    for (std::int64_t c = 0; c < bn->value.size(); c += 3) {
      bn->value[c] = 0.0f;
      mean->value[c] = bias->value[c];
    }
  }
}

// A [37, 2, S, S] pair batch. Ref pixels lie in [16, 256), obs pixels in
// ±[8, 512). On top: image i % 4 == 1 holds NaNs with distinct payloads
// (quiet and signalling, both signs) at scattered pixels; i % 4 == 2
// holds ±Inf, ± subnormals and ±0 diffs; i % 4 == 3 has a 13×13 block
// where obs == ref (diff +0, so the conv sees exact zeros); and i % 4 == 0
// is plain. The specials sit inside the central crop.
Tensor band_pin_batch(std::int64_t stamp) {
  constexpr std::int64_t kN = 37;
  Tensor x({kN, 2, stamp, stamp});
  PinBits bits{0xBA5EBA11ULL + static_cast<std::uint64_t>(stamp)};
  const std::int64_t plane = stamp * stamp;
  for (std::int64_t i = 0; i < kN; ++i) {
    float* ref = x.data() + (2 * i) * plane;
    float* obs = ref + plane;
    for (std::int64_t p = 0; p < plane; ++p) {
      ref[p] = bits.value(4, 4, false);
      obs[p] = bits.value(3, 6, true);
    }
    const auto at = [&](std::int64_t y, std::int64_t xx) -> float& {
      return obs[(2 + y) * stamp + 2 + xx];
    };
    const std::int64_t span = stamp - 4;
    if (i % 4 == 1) {
      for (std::uint32_t j = 0; j < 12; ++j) {
        const std::uint64_t z = bits.next();
        const std::uint32_t payload =
            (j % 3 == 2 ? 0x7f800000U : 0x7fc00000U) |
            ((static_cast<std::uint32_t>(i) << 8) | (j + 1));
        at(static_cast<std::int64_t>(z % static_cast<std::uint64_t>(span)),
           static_cast<std::int64_t>((z >> 32) %
                                     static_cast<std::uint64_t>(span))) =
            std::bit_cast<float>(payload | (j % 2 == 1 ? 0x80000000U : 0U));
      }
    } else if (i % 4 == 2) {
      static constexpr std::uint32_t kSpecial[] = {
          0x7f800000, 0xff800000, 0x00000001, 0x80000001,
          0x007fffff, 0x807fffff, 0x00000000, 0x80000000};
      for (std::size_t j = 0; j < 3 * std::size(kSpecial); ++j) {
        const std::uint64_t z = bits.next();
        const std::int64_t y =
            static_cast<std::int64_t>(z % static_cast<std::uint64_t>(span));
        const std::int64_t xx = static_cast<std::int64_t>(
            (z >> 32) % static_cast<std::uint64_t>(span));
        const float v = std::bit_cast<float>(kSpecial[j % std::size(kSpecial)]);
        // ±0 and subnormal diffs: obs = ref + v rounds back to ref, so
        // put the value in both planes instead.
        at(y, xx) = v;
        if (j % std::size(kSpecial) >= 2) ref[(2 + y) * stamp + 2 + xx] = 0.0f;
      }
    } else if (i % 4 == 3) {
      const std::int64_t y0 = 3 + i % 7;
      const std::int64_t x0 = 5 + i % 5;
      for (std::int64_t y = y0; y < y0 + 13; ++y) {
        for (std::int64_t xx = x0; xx < x0 + 13; ++xx) {
          at(y, xx) = ref[(2 + y) * stamp + 2 + xx];
        }
      }
    }
  }
  return x;
}

std::uint64_t fnv1a_mix(std::uint64_t h, const Tensor& t) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
  for (std::size_t i = 0; i < static_cast<std::size_t>(t.size()) * 4; ++i) {
    h = (h ^ bytes[i]) * 0x100000001B3ULL;
  }
  return h;
}

// The band CNN's three conv stages without the fully connected head, as
// BandCnn builds them (same layer order, so fill_pinned gives both nets
// the same trunk parameters).
void build_band_trunk(nn::Sequential& net, std::int64_t input_size,
                      Rng& rng) {
  net.emplace<DiffSignedLogCrop>(input_size);
  std::int64_t in_ch = 1;
  for (const std::int64_t out_ch : {10, 20, 30}) {
    const std::string tag = "bandcnn.conv" + std::to_string(out_ch / 10);
    net.emplace<nn::Conv2d>(in_ch, out_ch, 5, rng, 1, 0, tag);
    net.emplace<nn::BatchNorm2d>(out_ch, 0.1f, 1e-5f, tag + ".bn");
    net.emplace<nn::PReLU>(out_ch, 0.25f, tag + ".prelu");
    net.emplace<nn::MaxPool2d>(2);
    in_ch = out_ch;
  }
  net.emplace<nn::Flatten>();
}

// FNV-1a over the fp32 plan outputs of two seeded band CNNs on the
// crafted batch: input_size 44 (the joint model's: conv1 40×40, conv3
// 16×16, conv5 4×4) and 45 (conv1 41×41, whose last row and column the
// pool floors away; its one n % 8 tail pixel is one of them). Each digest
// takes the whole model's [37, 1] output and the trunk's flattened
// [37, 120] features.
std::uint64_t band_plan_digest() {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::int64_t size : {44, 45}) {
    const Tensor x = band_pin_batch(size);
    Rng rng(24);
    BandCnnConfig cfg;
    cfg.input_size = size;
    BandCnn cnn(cfg, rng);
    PinBits bits{0x5EED0024ULL};
    fill_pinned(cnn, bits);
    cnn.set_training(false);
    infer::InferenceSession session = make_session(cnn);
    EXPECT_EQ(session.plan().num_steps(), 13u);
    h = fnv1a_mix(h, session.run(x));

    nn::Sequential trunk;
    build_band_trunk(trunk, size, rng);
    PinBits same{0x5EED0024ULL};
    fill_pinned(trunk, same);
    trunk.set_training(false);
    infer::InferenceSession trunk_session(trunk, {2, size, size});
    EXPECT_EQ(trunk_session.plan().num_steps(), 8u);
    const Tensor features = trunk_session.run(x);
    EXPECT_EQ(features.shape(), (Shape{37, 120}));
    h = fnv1a_mix(h, features);
  }
  return h;
}

// Keys per tier and build. Release builds (-march=native) let GCC
// contract a·b + c into an FMA in the batch-norm fold and the scalar GEMM
// loops; the sanitizer builds (-O2, no -march) keep them apart.
struct TierKeys {
  std::uint64_t avx2;
  std::uint64_t scalar;
};

void expect_tier_keys(const TierKeys& want,
                      const std::function<std::uint64_t()>& digest) {
  const GemmTier previous = gemm_tier();
  for (const GemmTier tier : {GemmTier::Avx2Fma, GemmTier::Scalar}) {
    if (!gemm_tier_supported(tier)) continue;
    set_gemm_tier(tier);
    const std::uint64_t got = digest();
    EXPECT_EQ(got, tier == GemmTier::Avx2Fma ? want.avx2 : want.scalar)
        << gemm_tier_name(tier) << std::hex << " got 0x" << got;
  }
  set_gemm_tier(previous);
}

TEST(InferParity, BandCnnPlanMatchesGoldenDigest) {
#if defined(__FMA__)
  constexpr TierKeys kKeys{0x4a5a3efead164749ULL, 0xa6954a2323833a31ULL};
#else
  constexpr TierKeys kKeys{0xd817b9e1cca12ca9ULL, 0xbf69ba1b46633674ULL};
#endif
  expect_tier_keys(kKeys, band_plan_digest);
}

// The calibration table an int8 plan is lowered against: input_max and
// every step_max entry of the joint-size band CNN's fp32 plan, recorded
// over two finite batches, then the plan's step count. Saved .snet v2
// files carry these tables, so their layout and bytes must not move.
std::uint64_t calibration_digest() {
  Rng rng(24);
  BandCnnConfig cfg;
  cfg.input_size = 44;
  BandCnn cnn(cfg, rng);
  PinBits bits{0xCA11B8ULL};
  fill_pinned(cnn, bits);
  cnn.set_training(false);
  infer::InferenceSession session = make_session(cnn);
  infer::CalibrationTable table;
  Tensor out;
  for (int b = 0; b < 2; ++b) {
    Tensor x({9, 2, 44, 44});
    for (std::int64_t i = 0; i < x.size(); ++i) {
      x[i] = bits.value(2, 7, i % 2 == 1);
    }
    session.calibrate(x, out, table);
  }
  std::uint64_t h = fnv1a_mix(0xCBF29CE484222325ULL, table.input_max);
  h = fnv1a_mix(h, table.step_max);
  const auto steps = static_cast<std::uint64_t>(session.plan().num_steps());
  for (int byte = 0; byte < 8; ++byte) {
    h = (h ^ ((steps >> (8 * byte)) & 0xFF)) * 0x100000001B3ULL;
  }
  return h;
}

TEST(Int8Parity, CalibrationTableMatchesGoldenDigest) {
#if defined(__FMA__)
  constexpr TierKeys kKeys{0x27021bec248a39b8ULL, 0xed4676ae4c68446eULL};
#else
  constexpr TierKeys kKeys{0x360a406586b4517dULL, 0x1d31a226c9d6a43cULL};
#endif
  expect_tier_keys(kKeys, calibration_digest);
}

TEST(InferParity, SteadyStateRunIsAllocationFree) {
  Rng rng(18);
  BandCnn cnn(small_cnn_config(), rng);
  warm_running_stats(cnn, rng);

  const Tensor x =
      Tensor::rand_uniform({16, 2, kStamp, kStamp}, rng, -50.0f, 400.0f);
  infer::InferenceSession session = make_session(cnn);
  Tensor out;
  session.run(x, out);  // warmup: arena + scratch sized here
  session.run(x, out);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  session.run(x, out);
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0);
}

}  // namespace
}  // namespace sne::core
