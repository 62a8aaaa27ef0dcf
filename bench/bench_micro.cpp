// bench_micro — google-benchmark microbenchmarks of the substrates: GEMM,
// convolution forward/backward, the signed-log input crop, Sérsic
// rendering, PSF operations, difference imaging, dataset sample
// materialization, and ROC computation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/band_cnn.h"
#include "core/inference.h"
#include "core/pipeline.h"
#include "core/pixel_transform.h"
#include "data/snapshot.h"
#include "eval/roc.h"
#include "infer/session.h"
#include "nn/nn.h"
#include "obs/obs.h"
#include "sim/dataset_builder.h"
#include "sim/difference.h"
#include "sim/image_ops.h"
#include "sim/psf.h"
#include "sim/sersic.h"
#include "tensor/gemm.h"
#include "tensor/qtensor.h"
#include "tensor/runtime.h"
#include "tensor/thread_pool.h"

namespace sne {
namespace {

// Thread-count sweeps: the second benchmark argument (where present) is
// the pool width, so single- vs multi-thread throughput reads directly
// off the report (e.g. BM_ConvForward/60/1 vs BM_ConvForward/60/4).

void BM_Sgemm(benchmark::State& state) {
  const auto n = state.range(0);
  set_num_threads(static_cast<int>(state.range(1)));
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    sgemm(n, n, n, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  set_num_threads(1);
}
BENCHMARK(BM_Sgemm)
    ->UseRealTime()
    ->Args({64, 1})
    ->Args({128, 1})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4});

// Kernel-tier pairs: the same single-threaded GEMM with dispatch pinned to
// the scalar bit-reference kernel (second arg 0) vs the AVX2+FMA
// register-blocked micro-kernel (second arg 1). The /0 vs /1 ratio at each
// size IS the micro-kernel speedup tracked in BENCH_GEMM.json; the scalar
// rows also pin that the fallback tier's cost is unchanged over time.
void BM_SgemmKernelTier(benchmark::State& state) {
  const auto n = state.range(0);
  const auto tier = static_cast<GemmTier>(state.range(1));
  if (!gemm_tier_supported(tier)) {
    state.SkipWithError("kernel tier not supported on this CPU");
    return;
  }
  const GemmTier prev = gemm_tier();
  set_gemm_tier(tier);
  Rng rng(1);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    sgemm_serial(n, n, n, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  set_gemm_tier(prev);
}
BENCHMARK(BM_SgemmKernelTier)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({256, 0})
    ->Args({256, 1});

// The conv GEMMs of the served models, as their plan steps call them:
// sgemm_serial with the folded bias + PReLU epilogue, m×n×k = output
// channels × output pixels × (input channels · 5 · 5). First arg the
// shape, second the tier (0 scalar, 1 avx2). On AVX-512F hosts the avx2
// tier runs its 512-bit tiles, so /1 there tracks those.
struct ConvGemmShape {
  const char* name;
  std::int64_t m, n, k;
};
constexpr ConvGemmShape kConvGemmShapes[] = {
    {"joint_conv1", 10, 1600, 25}, {"joint_conv3", 20, 256, 250},
    {"joint_conv5", 30, 16, 500},  {"tier1_conv0", 8, 289, 25},
    {"tier1_conv2", 16, 16, 200},
};

void BM_ConvGemmShape(benchmark::State& state) {
  const ConvGemmShape& s = kConvGemmShapes[state.range(0)];
  const auto tier = static_cast<GemmTier>(state.range(1));
  if (!gemm_tier_supported(tier)) {
    state.SkipWithError("kernel tier not supported on this CPU");
    return;
  }
  const GemmTier prev = gemm_tier();
  set_gemm_tier(tier);
  Rng rng(1);
  const Tensor a = Tensor::randn({s.m, s.k}, rng);
  const Tensor b = Tensor::randn({s.k, s.n}, rng);
  const Tensor bias = Tensor::randn({s.m}, rng);
  const Tensor slope({s.m}, 0.25f);
  Tensor c({s.m, s.n});
  const GemmEpilogue ep{bias.data(), slope.data()};
  for (auto _ : state) {
    sgemm_serial(s.m, s.n, s.k, a.data(), b.data(), 0.0f, c.data(), ep);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * s.m * s.n * s.k);
  state.SetLabel(std::string(s.name) + " " + gemm_tier_name(tier));
  set_gemm_tier(prev);
}
BENCHMARK(BM_ConvGemmShape)->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1}});

// The Linear steps of the served models, as Linear::infer_into calls
// sgemm_bt: m×n×k = batch rows × output features × input features. First
// arg the shape, second the tier (0 scalar, 1 avx2). Both tiers produce
// the same bits; the avx2 tier runs sixteen double dot products per pass.
struct SgemmBtShape {
  const char* name;
  std::int64_t m, n, k;
};
constexpr SgemmBtShape kSgemmBtShapes[] = {
    {"tier1_fc1", 64, 32, 64},        {"tier1_out", 64, 1, 32},
    {"joint_cnn_fc1", 160, 64, 120},  {"joint_cnn_fc2", 160, 32, 64},
    {"joint_highway", 32, 100, 100},
};

void BM_SgemmBtShape(benchmark::State& state) {
  const SgemmBtShape& s = kSgemmBtShapes[state.range(0)];
  const auto tier = static_cast<GemmTier>(state.range(1));
  if (!gemm_tier_supported(tier)) {
    state.SkipWithError("kernel tier not supported on this CPU");
    return;
  }
  const GemmTier prev = gemm_tier();
  set_gemm_tier(tier);
  Rng rng(1);
  const Tensor a = Tensor::randn({s.m, s.k}, rng);
  const Tensor w = Tensor::randn({s.n, s.k}, rng);
  Tensor c({s.m, s.n});
  for (auto _ : state) {
    sgemm_bt(s.m, s.n, s.k, a.data(), w.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * s.m * s.n * s.k);
  state.SetLabel(std::string(s.name) + " " + gemm_tier_name(tier));
  set_gemm_tier(prev);
}
BENCHMARK(BM_SgemmBtShape)->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1}});

// The whole fp32 conv step at the same shapes, one image with the folded
// bias + PReLU epilogue and no pool: second arg 0 is the im2col lowering
// (im2col, then sgemm_serial), 1 is sconv_serial's plain output (what
// calibrate() runs; the plan's steps pool, see BM_ConvPoolStepShape below).
// On an AVX-512F host at the avx2 tier,
// sconv_serial runs its direct kernel on every shape here; tier1_conv0's
// 289th pixel goes through sgemm_serial's scalar-tail loops on a one-column
// slab, as in the im2col lowering. Both produce the same bits.
struct ConvStepShape {
  const char* name;
  std::int64_t cin, size, cout;  // kernel 5, stride 1, no pad
};
constexpr ConvStepShape kConvStepShapes[] = {
    {"joint_conv1", 1, 44, 10}, {"joint_conv3", 10, 20, 20},
    {"joint_conv5", 20, 8, 30}, {"tier1_conv0", 1, 21, 8},
    {"tier1_conv2", 8, 8, 16},
};

void BM_ConvStepShape(benchmark::State& state) {
  const ConvStepShape& s = kConvStepShapes[state.range(0)];
  const bool entry = state.range(1) != 0;
  constexpr std::int64_t kKernel = 5;
  const std::int64_t out = s.size - kKernel + 1;
  const std::int64_t n = out * out;
  const std::int64_t k = s.cin * kKernel * kKernel;
  Rng rng(1);
  const Tensor x = Tensor::randn({s.cin, s.size, s.size}, rng);
  const Tensor w = Tensor::randn({s.cout, k}, rng);
  const Tensor bias = Tensor::randn({s.cout}, rng);
  const Tensor slope({s.cout}, 0.25f);
  const GemmEpilogue ep{bias.data(), slope.data()};
  std::vector<float> cols(static_cast<std::size_t>(k * n));
  Tensor y({s.cout, n});
  for (auto _ : state) {
    if (entry) {
      sconv_serial(1, x.data(), s.cin, s.size, s.size, kKernel, 0, 1,
                   w.data(), s.cout, y.data(), ep);
    } else {
      im2col(x.data(), s.cin, s.size, s.size, kKernel, kKernel, 0, 1,
             cols.data());
      sgemm_serial(s.cout, n, k, w.data(), cols.data(), 0.0f, y.data(),
                   ep);
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * s.cout * n * k);
  state.SetLabel(std::string(s.name) + (entry ? " sconv_serial" : " im2col") +
                 " " + gemm_tier_name(gemm_tier()));
}
BENCHMARK(BM_ConvStepShape)->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1}});

// Each conv step of the same shapes with the 2×2 max-pool after it, over
// the batch the plans run per call (one joint batch of 32 rows is 160
// stamps; tier-1 scores 64 alerts at a time): second arg 0 is the plain
// sconv_serial followed by MaxPool2d::infer_into (the plan before pool
// fusion, which writes the whole conv plane and reads it back), 1 is
// sconv_serial's pooled output, which folds each window in registers on
// AVX-512F hosts at the avx2 tier. Both produce the same bits.
void BM_ConvPoolStepShape(benchmark::State& state) {
  const ConvStepShape& s = kConvStepShapes[state.range(0)];
  const bool fused = state.range(1) != 0;
  const std::int64_t batch = state.range(0) < 3 ? 160 : 64;
  constexpr std::int64_t kKernel = 5;
  const std::int64_t out = s.size - kKernel + 1;
  const std::int64_t k = s.cin * kKernel * kKernel;
  Rng rng(1);
  const Tensor x = Tensor::randn({batch, s.cin, s.size, s.size}, rng);
  const Tensor w = Tensor::randn({s.cout, k}, rng);
  const Tensor bias = Tensor::randn({s.cout}, rng);
  const Tensor slope({s.cout}, 0.25f);
  const GemmEpilogue ep{bias.data(), slope.data()};
  const nn::MaxPool2d pool(2);
  Tensor plain({batch, s.cout, out, out});
  Tensor pooled({batch, s.cout, out / 2, out / 2});
  for (auto _ : state) {
    if (fused) {
      sconv_serial(batch, x.data(), s.cin, s.size, s.size, kKernel, 0, 1,
                   w.data(), s.cout, pooled.data(), ep, true);
    } else {
      sconv_serial(batch, x.data(), s.cin, s.size, s.size, kKernel, 0, 1,
                   w.data(), s.cout, plain.data(), ep);
      pool.infer_into(plain, pooled);
    }
    benchmark::DoNotOptimize(pooled.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * batch * 2 * s.cout * out *
                          out * k);
  state.SetLabel(std::string(s.name) + " x" + std::to_string(batch) +
                 (fused ? " pooled sconv_serial" : " conv + MaxPool2d") + " " +
                 gemm_tier_name(gemm_tier()));
}
BENCHMARK(BM_ConvPoolStepShape)->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1}});

// Deterministic int8 operands in [-127, 127], the range quantize_into
// produces.
std::vector<std::int8_t> pattern_i8(std::int64_t count, int mul, int add) {
  std::vector<std::int8_t> v(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::int8_t>(static_cast<int>(i * mul + add) % 255 -
                                    127);
  }
  return v;
}

// The int8 serving path's conv GEMMs at the same shapes: igemm_serial with
// the requant + PReLU epilogue, scalar (0) vs AVX2 (1) tier. Both tiers
// produce identical bytes, so the pair only tracks speed.
void BM_ConvIgemmShape(benchmark::State& state) {
  const ConvGemmShape& s = kConvGemmShapes[state.range(0)];
  const auto tier = static_cast<GemmTier>(state.range(1));
  if (!gemm_tier_supported(tier)) {
    state.SkipWithError("kernel tier not supported on this CPU");
    return;
  }
  const GemmTier prev = gemm_tier();
  set_gemm_tier(tier);
  const auto a = pattern_i8(s.m * s.k, 31, 7);
  const auto b = pattern_i8(s.k * s.n, 17, 3);
  const std::vector<float> scale(static_cast<std::size_t>(s.m), 0.01f);
  const std::vector<float> bias(static_cast<std::size_t>(s.m), -0.1f);
  const std::vector<float> slope(static_cast<std::size_t>(s.m), 0.25f);
  Tensor c({s.m, s.n});
  const IgemmEpilogue ep{scale.data(), bias.data(), slope.data()};
  for (auto _ : state) {
    igemm_serial(s.m, s.n, s.k, a.data(), b.data(), c.data(), ep);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * s.m * s.n * s.k);
  state.SetLabel(std::string(s.name) + " " + gemm_tier_name(tier));
  set_gemm_tier(prev);
}
BENCHMARK(BM_ConvIgemmShape)->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1}});

// The whole int8 conv step at the fp32 step's shapes, as the plan runs it
// per image with the requant + PReLU epilogue: second arg 0 quantizes, then
// im2col_i8, then igemm_serial; 1 quantizes, then iconv_serial, which the
// plan's quantized Conv2d step calls. On an AVX-512 VNNI host at the avx2
// tier iconv_serial packs the VNNI k-quads straight from the image at
// every shape here. Both produce the same bits.
void BM_ConvIgemmStepShape(benchmark::State& state) {
  const ConvStepShape& s = kConvStepShapes[state.range(0)];
  const bool entry = state.range(1) != 0;
  constexpr std::int64_t kKernel = 5;
  const std::int64_t out = s.size - kKernel + 1;
  const std::int64_t n = out * out;
  const std::int64_t k = s.cin * kKernel * kKernel;
  const std::int64_t chw = s.cin * s.size * s.size;
  Rng rng(1);
  const Tensor x = Tensor::randn({s.cin, s.size, s.size}, rng);
  const auto w = pattern_i8(s.cout * k, 31, 7);
  const std::vector<float> scale(static_cast<std::size_t>(s.cout), 0.01f);
  const std::vector<float> bias(static_cast<std::size_t>(s.cout), -0.1f);
  const std::vector<float> slope(static_cast<std::size_t>(s.cout), 0.25f);
  const IgemmEpilogue ep{scale.data(), bias.data(), slope.data()};
  std::vector<std::int8_t> image(static_cast<std::size_t>(chw));
  std::vector<std::int8_t> cols(static_cast<std::size_t>(k * n));
  Tensor y({s.cout, n});
  for (auto _ : state) {
    quantize_into(x.data(), chw, 127.0f / 4.0f, image.data());
    if (entry) {
      iconv_serial(image.data(), s.cin, s.size, s.size, kKernel, 0, 1,
                   w.data(), s.cout, y.data(), ep);
    } else {
      im2col_i8(image.data(), s.cin, s.size, s.size, kKernel, kKernel, 0, 1,
                cols.data());
      igemm_serial(s.cout, n, k, w.data(), cols.data(), y.data(), ep);
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * s.cout * n * k);
  state.SetLabel(std::string(s.name) +
                 (entry ? " iconv_serial" : " im2col_i8") + " " +
                 gemm_tier_name(gemm_tier()));
}
BENCHMARK(BM_ConvIgemmStepShape)->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1}});

// Int8 kernel-tier pairs: the saturating s8×s8→s32 GEMM with requant
// epilogue, scalar (0) vs AVX2 (1). Integer accumulation is exact, so
// unlike the fp32 pair both tiers produce identical bytes — the pair
// only tracks speed. The int8-vs-fp32 serving ratio lives in
// BENCH_INT8.json via BM_BandCnnInferSessionPrecision below.
void BM_IgemmKernelTier(benchmark::State& state) {
  const auto n = state.range(0);
  const auto tier = static_cast<GemmTier>(state.range(1));
  if (!gemm_tier_supported(tier)) {
    state.SkipWithError("kernel tier not supported on this CPU");
    return;
  }
  const GemmTier prev = gemm_tier();
  set_gemm_tier(tier);
  const auto a = pattern_i8(n * n, 31, 7);
  const auto b = pattern_i8(n * n, 17, 3);
  const std::vector<float> scale(static_cast<std::size_t>(n), 0.01f);
  Tensor c({n, n});
  const IgemmEpilogue ep{scale.data(), nullptr, nullptr};
  for (auto _ : state) {
    igemm_serial(n, n, n, a.data(), b.data(), c.data(), ep);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  set_gemm_tier(prev);
}
BENCHMARK(BM_IgemmKernelTier)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({256, 0})
    ->Args({256, 1});

// 1×1 convolution inference: the pointwise fast path feeds the input
// straight to GEMM (no im2col pass, no column buffer), with bias in the
// epilogue. Same tier pairing as BM_SgemmKernelTier.
void BM_Conv1x1Infer(benchmark::State& state) {
  const auto tier = static_cast<GemmTier>(state.range(0));
  if (!gemm_tier_supported(tier)) {
    state.SkipWithError("kernel tier not supported on this CPU");
    return;
  }
  const GemmTier prev = gemm_tier();
  set_gemm_tier(tier);
  Rng rng(2);
  nn::Conv2d conv(30, 30, 1, rng);
  const Tensor x = Tensor::randn({8, 30, 44, 44}, rng);
  Tensor y;
  for (auto _ : state) {
    conv.infer_into(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * x.extent(0));
  set_gemm_tier(prev);
}
BENCHMARK(BM_Conv1x1Infer)->Arg(0)->Arg(1);

// The joint model's input stage as the plan serves it: difference, centre
// crop and signed log of a [64, 2, 44, 44] pair batch into [64, 1, 44, 44]
// (rows of 44 end in a 12-lane masked vector). Arg: the tier; at 1 on an
// AVX-512F host signed_log_span runs its 16-lane kernel, otherwise the
// scalar reference. Both give the same bits. Items are output pixels.
void BM_SignedLogCrop(benchmark::State& state) {
  const auto tier = static_cast<GemmTier>(state.range(0));
  if (!gemm_tier_supported(tier)) {
    state.SkipWithError("kernel tier not supported on this CPU");
    return;
  }
  const GemmTier prev = gemm_tier();
  set_gemm_tier(tier);
  Rng rng(3);
  Tensor x = Tensor::randn({64, 2, 44, 44}, rng);
  x *= 40.0f;  // difference pixels of tens of counts, both signs
  const core::DiffSignedLogCrop crop(44);
  Tensor y;
  for (auto _ : state) {
    crop.infer_into(x, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 64 * 44 * 44);
  state.SetLabel(gemm_tier_name(tier));
  set_gemm_tier(prev);
}
BENCHMARK(BM_SignedLogCrop)->Arg(0)->Arg(1);

void BM_ConvForward(benchmark::State& state) {
  const auto size = state.range(0);
  set_num_threads(static_cast<int>(state.range(1)));
  Rng rng(2);
  nn::Conv2d conv(1, 10, 5, rng);
  const Tensor x = Tensor::randn({8, 1, size, size}, rng);
  for (auto _ : state) {
    Tensor y = conv.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
  set_num_threads(1);
}
BENCHMARK(BM_ConvForward)
    ->UseRealTime()
    ->Args({36, 1})
    ->Args({60, 1})
    ->Args({60, 2})
    ->Args({60, 4});

void BM_ConvBackward(benchmark::State& state) {
  const auto size = state.range(0);
  set_num_threads(static_cast<int>(state.range(1)));
  Rng rng(3);
  nn::Conv2d conv(1, 10, 5, rng);
  const Tensor x = Tensor::randn({8, 1, size, size}, rng);
  const Tensor y = conv.forward(x);
  const Tensor gy = Tensor::randn(y.shape(), rng);
  for (auto _ : state) {
    Tensor gx = conv.backward(gy);
    benchmark::DoNotOptimize(gx.data());
  }
  set_num_threads(1);
}
BENCHMARK(BM_ConvBackward)
    ->UseRealTime()
    ->Args({36, 1})
    ->Args({60, 1})
    ->Args({60, 2})
    ->Args({60, 4});

void BM_BandCnnForward(benchmark::State& state) {
  Rng rng(4);
  core::BandCnnConfig cfg;
  cfg.input_size = state.range(0);
  core::BandCnn cnn(cfg, rng);
  cnn.set_training(false);
  const Tensor x = Tensor::randn({1, 2, cfg.input_size, cfg.input_size}, rng);
  for (auto _ : state) {
    Tensor y = cnn.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_BandCnnForward)->Arg(36)->Arg(60)->Arg(65);

// Train-path vs serve-path scoring of a batch of stamps. The training
// forward caches every activation and allocates its outputs; the
// inference session runs the folded plan cache-free through a reused
// arena. Second argument is the worker count: the session path scales by
// sharding the batch across per-worker sessions over one shared plan.

constexpr std::int64_t kServeBatch = 16;
constexpr std::int64_t kServeStamp = 44;

// Scratch file for the snapshot-replay ingest benchmark.
std::string testing_snapshot_path() {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp ? tmp : "/tmp") + "/sne_bench_ingest.snap";
}

void BM_BandCnnTrainingForward(benchmark::State& state) {
  set_num_threads(static_cast<int>(state.range(1)));
  Rng rng(7);
  core::BandCnnConfig cfg;
  cfg.input_size = kServeStamp;
  core::BandCnn cnn(cfg, rng);
  cnn.set_training(false);
  const auto n = state.range(0);
  const Tensor x = Tensor::randn({n, 2, kServeStamp, kServeStamp}, rng);
  for (auto _ : state) {
    Tensor y = cnn.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  set_num_threads(1);
}
BENCHMARK(BM_BandCnnTrainingForward)
    ->UseRealTime()
    ->Args({kServeBatch, 1})
    ->Args({kServeBatch, 4});

void BM_BandCnnInferSession(benchmark::State& state) {
  const auto n = state.range(0);
  const int workers = static_cast<int>(state.range(1));
  set_num_threads(workers);
  Rng rng(7);
  core::BandCnnConfig cfg;
  cfg.input_size = kServeStamp;
  core::BandCnn cnn(cfg, rng);
  cnn.set_training(false);
  const Tensor x = Tensor::randn({n, 2, kServeStamp, kServeStamp}, rng);

  // One immutable plan, one session (and one output/shard buffer) per
  // worker — the documented concurrency pattern.
  const auto plan = core::compile_plan(cnn);
  std::vector<infer::InferenceSession> sessions;
  std::vector<Tensor> shards(static_cast<std::size_t>(workers));
  std::vector<Tensor> outs(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) sessions.emplace_back(plan);
  const std::int64_t per = (n + workers - 1) / workers;
  const std::int64_t sample = 2 * kServeStamp * kServeStamp;

  for (auto _ : state) {
    parallel_for(0, workers, [&](std::int64_t w) {
      const std::int64_t lo = w * per;
      const std::int64_t hi = std::min<std::int64_t>(n, lo + per);
      if (lo >= hi) return;
      Tensor& shard = shards[static_cast<std::size_t>(w)];
      shard.resize({hi - lo, 2, kServeStamp, kServeStamp});
      std::copy(x.data() + lo * sample, x.data() + hi * sample,
                shard.data());
      sessions[static_cast<std::size_t>(w)].run(
          shard, outs[static_cast<std::size_t>(w)]);
    });
    benchmark::DoNotOptimize(outs.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  set_num_threads(1);
}
BENCHMARK(BM_BandCnnInferSession)
    ->UseRealTime()
    ->Args({kServeBatch, 1})
    ->Args({kServeBatch, 4});

// End-to-end tier pair: one serving session scoring a batch through the
// fused Conv+BN+PReLU plan with the GEMM dispatch pinned to scalar (0) vs
// AVX2+FMA (1). The /0 vs /1 ratio is the end-to-end half of the
// BENCH_GEMM.json speedup pair.
void BM_BandCnnInferSessionTier(benchmark::State& state) {
  const auto tier = static_cast<GemmTier>(state.range(0));
  if (!gemm_tier_supported(tier)) {
    state.SkipWithError("kernel tier not supported on this CPU");
    return;
  }
  const GemmTier prev = gemm_tier();
  set_gemm_tier(tier);
  Rng rng(7);
  core::BandCnnConfig cfg;
  cfg.input_size = kServeStamp;
  core::BandCnn cnn(cfg, rng);
  cnn.set_training(false);
  const Tensor x =
      Tensor::randn({kServeBatch, 2, kServeStamp, kServeStamp}, rng);
  infer::InferenceSession session = core::make_session(cnn);
  Tensor out;
  for (auto _ : state) {
    session.run(x, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kServeBatch);
  set_gemm_tier(prev);
}
BENCHMARK(BM_BandCnnInferSessionTier)->Arg(0)->Arg(1);

// Precision pair: the same serving session at fp32 (0) vs int8 (1), both
// on the default (fastest supported) GEMM tier. The int8 plan is lowered
// against a calibration table recorded from the benchmark batch itself;
// the /1 over /0 throughput ratio is the serving speedup pinned in
// BENCH_INT8.json.
void BM_BandCnnInferSessionPrecision(benchmark::State& state) {
  const bool quantized = state.range(0) != 0;
  Rng rng(7);
  core::BandCnnConfig cfg;
  cfg.input_size = kServeStamp;
  core::BandCnn cnn(cfg, rng);
  cnn.set_training(false);
  const Tensor x =
      Tensor::randn({kServeBatch, 2, kServeStamp, kServeStamp}, rng);
  infer::CalibrationTable table;
  {
    infer::InferenceSession reference = core::make_session(cnn);
    Tensor out;
    reference.calibrate(x, out, table);
  }
  core::SessionOptions options;
  if (quantized) {
    options.precision = Precision::Int8;
    options.calibration = &table;
  }
  infer::InferenceSession session = core::make_session(cnn, options);
  Tensor out;
  for (auto _ : state) {
    session.run(x, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kServeBatch);
}
BENCHMARK(BM_BandCnnInferSessionPrecision)->Arg(0)->Arg(1);

void BM_SersicRender(benchmark::State& state) {
  sim::SersicProfile p;
  p.sersic_n = 2.0;
  p.half_light_radius = 5.0;
  p.total_flux = 500.0;
  for (auto _ : state) {
    Tensor img = sim::render_sersic(p, 65, 65, 32.0, 32.0);
    benchmark::DoNotOptimize(img.data());
  }
}
BENCHMARK(BM_SersicRender);

void BM_GaussianBlur(benchmark::State& state) {
  Rng rng(5);
  const Tensor img = Tensor::randn({65, 65}, rng);
  for (auto _ : state) {
    Tensor out = sim::gaussian_blur(img, 1.5);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GaussianBlur);

void BM_PsfPointSource(benchmark::State& state) {
  const sim::GaussianPsf psf(3.5);
  for (auto _ : state) {
    Tensor stamp = psf.render_point_source(65, 65, 32.2, 31.7, 100.0);
    benchmark::DoNotOptimize(stamp.data());
  }
}
BENCHMARK(BM_PsfPointSource);

class DatasetFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (!data) {
      sim::SnDataset::Config cfg;
      cfg.num_samples = 32;
      cfg.catalog.count = 200;
      data = std::make_unique<sim::SnDataset>(sim::SnDataset::build(cfg));
    }
  }
  static std::unique_ptr<sim::SnDataset> data;
};
std::unique_ptr<sim::SnDataset> DatasetFixture::data;

BENCHMARK_F(DatasetFixture, ObservationStamp)(benchmark::State& state) {
  std::int64_t i = 0;
  for (auto _ : state) {
    Tensor img = data->observation_image(i % 32, astro::Band::i,
                                         (i / 32) % 4);
    benchmark::DoNotOptimize(img.data());
    ++i;
  }
}

BENCHMARK_F(DatasetFixture, DifferenceStamp)(benchmark::State& state) {
  std::int64_t i = 0;
  for (auto _ : state) {
    Tensor img = data->difference_image(i % 32, astro::Band::r, i % 4);
    benchmark::DoNotOptimize(img.data());
    ++i;
  }
}

// Batched parallel rendering: one iteration renders the difference stamp
// of every dataset sample; the argument is the pool width.
BENCHMARK_DEFINE_F(DatasetFixture, BatchedDifferenceRender)
(benchmark::State& state) {
  set_num_threads(static_cast<int>(state.range(0)));
  std::vector<std::int64_t> samples(32);
  for (std::int64_t k = 0; k < 32; ++k) samples[k] = k;
  for (auto _ : state) {
    auto stamps = data->difference_images(samples, astro::Band::r, 0);
    benchmark::DoNotOptimize(stamps.data());
  }
  state.SetItemsProcessed(state.iterations() * 32);
  set_num_threads(1);
}
BENCHMARK_REGISTER_F(DatasetFixture, BatchedDifferenceRender)
    ->UseRealTime()
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);

// Render-vs-train overlap: one iteration is one flux-CNN training epoch
// (batch 16) over the fixture's flux pairs. First argument selects the
// data path — 0 renders every stamp serially on the training thread
// (prefetch 0 over a Serial-mode dataset, the pre-loader behaviour),
// 1 streams batches through the DataLoader (batch-parallel rendering,
// prefetch 1, so batch k+1 renders while batch k trains). Second
// argument is the pool width. The batches, and therefore the training
// statistics, are bitwise identical on both paths — only the wall clock
// moves.
BENCHMARK_DEFINE_F(DatasetFixture, FluxCnnEpoch)(benchmark::State& state) {
  const bool overlap = state.range(0) != 0;
  // Pool width and prefetch depth are both runtime knobs now; set them
  // together so the loaders built inside fit() latch the right depth.
  RuntimeConfig rc = RuntimeConfig::current();
  rc.threads = static_cast<int>(state.range(1));
  rc.prefetch = overlap ? 1 : 0;
  RuntimeConfig::set_current(rc);
  std::vector<std::int64_t> samples(32);
  for (std::int64_t k = 0; k < 32; ++k) samples[k] = k;
  auto items = core::enumerate_flux_pairs(*data, samples, 27.5);
  if (items.size() > 64) items.resize(64);
  const nn::LazyDataset pairs =
      core::make_flux_pair_dataset(*data, items, kServeStamp);
  // Serial baseline: re-wrap through get() so stamp rendering cannot
  // leave the training thread.
  const nn::LazyDataset serial(
      pairs.size(), [&pairs](std::int64_t i) { return pairs.get(i); });
  const nn::Dataset& train =
      overlap ? static_cast<const nn::Dataset&>(pairs) : serial;

  Rng rng(8);
  core::BandCnnConfig cfg;
  cfg.input_size = kServeStamp;
  core::BandCnn cnn(cfg, rng);
  nn::Adam opt(cnn.params(), 1e-3f);
  nn::Trainer trainer(cnn, opt, nn::mse_loss);
  nn::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 16;
  tc.shuffle_seed = 9;

  for (auto _ : state) {
    auto history = trainer.fit(train, nullptr, tc);
    benchmark::DoNotOptimize(history.data());
  }
  state.SetItemsProcessed(state.iterations() * train.size());
  rc.threads = 1;
  rc.prefetch = 1;
  RuntimeConfig::set_current(rc);
}
BENCHMARK_REGISTER_F(DatasetFixture, FluxCnnEpoch)
    ->UseRealTime()
    ->Args({0, 1})
    ->Args({0, 4})
    ->Args({1, 1})
    ->Args({1, 4});

// Epoch ingest: one iteration walks every batch of the flux-pair dataset
// through get_batch_into. Argument 0 renders each sample live from the
// simulator (what every epoch costs without a cache); argument 1 replays
// the same samples from an mmap-backed snapshot written once in setup —
// pure pointer arithmetic plus one memcpy per row, zero allocations
// after the first batch. The /1 over /0 ratio is the per-epoch speedup
// a snapshot buys (pinned in BENCH_SNAPSHOT.json); the batches
// themselves are bitwise identical on both paths.
BENCHMARK_DEFINE_F(DatasetFixture, EpochIngest)(benchmark::State& state) {
  const bool replay = state.range(0) != 0;
  std::vector<std::int64_t> samples(32);
  for (std::int64_t k = 0; k < 32; ++k) samples[k] = k;
  auto items = core::enumerate_flux_pairs(*data, samples, 27.5);
  if (items.size() > 64) items.resize(64);
  const nn::LazyDataset pairs =
      core::make_flux_pair_dataset(*data, items, kServeStamp);
  std::unique_ptr<::sne::data::SnapshotDataset> snap;
  if (replay) {
    const std::string path = testing_snapshot_path();
    ::sne::data::write_snapshot(path, pairs, 16);
    snap = std::make_unique<::sne::data::SnapshotDataset>(path);
  }
  const nn::Dataset& src =
      replay ? static_cast<const nn::Dataset&>(*snap) : pairs;

  std::vector<std::int64_t> order(static_cast<std::size_t>(src.size()));
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::int64_t>(i);
  }
  nn::Sample batch;
  for (auto _ : state) {
    for (std::size_t first = 0; first < order.size(); first += 16) {
      const std::size_t count = std::min<std::size_t>(16, order.size() - first);
      src.get_batch_into(order, first, count, batch);
      benchmark::DoNotOptimize(batch.x.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * src.size());
}
BENCHMARK_REGISTER_F(DatasetFixture, EpochIngest)
    ->UseRealTime()
    ->Arg(0)
    ->Arg(1);

// Instrumentation overhead: the same flux-CNN epoch with obs tracing
// disabled (argument 0 — every span is a single relaxed atomic load) and
// enabled (argument 1 — spans are recorded into per-thread buffers).
// The /0 and /1 rows should agree to within ~1%; the gap IS the cost of
// shipping the telemetry layer always-on.
BENCHMARK_DEFINE_F(DatasetFixture, FluxCnnEpochObsOverhead)
(benchmark::State& state) {
  const bool traced = state.range(0) != 0;
  std::vector<std::int64_t> samples(32);
  for (std::int64_t k = 0; k < 32; ++k) samples[k] = k;
  auto items = core::enumerate_flux_pairs(*data, samples, 27.5);
  if (items.size() > 64) items.resize(64);
  const nn::LazyDataset pairs =
      core::make_flux_pair_dataset(*data, items, kServeStamp);

  Rng rng(8);
  core::BandCnnConfig cfg;
  cfg.input_size = kServeStamp;
  core::BandCnn cnn(cfg, rng);
  nn::Adam opt(cnn.params(), 1e-3f);
  nn::Trainer trainer(cnn, opt, nn::mse_loss);
  nn::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 16;
  tc.shuffle_seed = 9;

  if (traced) obs::enable();
  for (auto _ : state) {
    auto history = trainer.fit(pairs, nullptr, tc);
    benchmark::DoNotOptimize(history.data());
    // Keep the span buffers from growing across iterations so the traced
    // row measures recording cost, not reallocation of an ever-larger log.
    if (traced) {
      state.PauseTiming();
      obs::reset();
      obs::enable();
      state.ResumeTiming();
    }
  }
  if (traced) {
    obs::disable();
    obs::reset();
  }
  state.SetItemsProcessed(state.iterations() * pairs.size());
}
BENCHMARK_REGISTER_F(DatasetFixture, FluxCnnEpochObsOverhead)
    ->UseRealTime()
    ->Arg(0)
    ->Arg(1);

BENCHMARK_F(DatasetFixture, MeasuredLightCurve)(benchmark::State& state) {
  std::int64_t i = 0;
  for (auto _ : state) {
    auto lc = data->measured_light_curve(i % 32);
    benchmark::DoNotOptimize(lc.data());
    ++i;
  }
}

void BM_RocCurve(benchmark::State& state) {
  Rng rng(6);
  std::vector<float> scores, labels;
  for (int i = 0; i < 10000; ++i) {
    const bool pos = rng.bernoulli(0.5);
    scores.push_back(static_cast<float>(rng.normal(pos ? 1.0 : 0.0, 1.0)));
    labels.push_back(pos ? 1.0f : 0.0f);
  }
  for (auto _ : state) {
    const eval::RocCurve curve = eval::compute_roc(scores, labels);
    benchmark::DoNotOptimize(curve.auc);
  }
}
BENCHMARK(BM_RocCurve);

}  // namespace
}  // namespace sne

BENCHMARK_MAIN();
