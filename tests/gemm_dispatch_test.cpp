// gemm_dispatch_test.cpp — the runtime-dispatched GEMM kernel tiers. The
// scalar kernel is the determinism bit-reference; the AVX2+FMA tier must
// agree with it to float tolerance on arbitrary shapes (including ragged
// register-tile tails), be bitwise deterministic within itself (repeated
// runs, thread-count sweeps, serial-vs-pooled drivers), and the fused
// epilogue (bias + PReLU) must change no bits relative to the separate
// passes it replaces. Also pins the fp32 and int8 conv serving entries
// (bitwise equal to the im2col lowering, and never reading past the
// image) and the 1×1 conv fast path: bitwise equal to the im2col lowering
// and free of column-buffer allocations. sgemm_bt, the serving max-pool and
// the signed log must match their scalar loops bit for bit on every tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <tuple>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "nn/conv2d.h"
#include "nn/pooling.h"
#include "tensor/gemm.h"
#include "tensor/qtensor.h"
#include "tensor/rng.h"
#include "tensor/signed_log.h"
#include "tensor/tensor.h"
#include "tensor/thread_pool.h"

// Allocation counter for the no-column-buffer pin; armed only inside the
// measured window so gtest bookkeeping stays invisible.
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

namespace sne {
namespace {

// Restores the process-wide tier on scope exit so test order cannot leak.
class TierGuard {
 public:
  TierGuard() : prev_(gemm_tier()) {}
  ~TierGuard() { set_gemm_tier(prev_); }

 private:
  GemmTier prev_;
};

bool vector_tier_available() {
  return gemm_tier_supported(GemmTier::Avx2Fma);
}

TEST(GemmDispatch, TierNamesAreStable) {
  EXPECT_STREQ(gemm_tier_name(GemmTier::Scalar), "scalar");
  EXPECT_STREQ(gemm_tier_name(GemmTier::Avx2Fma), "avx2");
}

TEST(GemmDispatch, ScalarTierAlwaysSupportedAndSettable) {
  TierGuard guard;
  EXPECT_TRUE(gemm_tier_supported(GemmTier::Scalar));
  set_gemm_tier(GemmTier::Scalar);
  EXPECT_EQ(gemm_tier(), GemmTier::Scalar);
}

TEST(GemmDispatch, UnsupportedRequestClampsToScalar) {
  TierGuard guard;
  set_gemm_tier(GemmTier::Avx2Fma);
  if (vector_tier_available()) {
    EXPECT_EQ(gemm_tier(), GemmTier::Avx2Fma);
  } else {
    EXPECT_EQ(gemm_tier(), GemmTier::Scalar);
  }
}

// Shape sweep deliberately heavy on ragged tails: the 256-bit kernel tiles
// rows by 6/4/1 and columns by 16/8/1, the 512-bit one rows in groups of
// at most 12 and columns by 32/16, so exercise every remainder class.
class GemmTierParity
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmTierParity, VectorMatchesScalar) {
  if (!vector_tier_available()) GTEST_SKIP() << "no AVX2+FMA on this CPU";
  const auto [m, n, k] = GetParam();
  TierGuard guard;
  Rng rng(m * 7919 + n * 101 + k);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  Tensor c_scalar = Tensor::randn({m, n}, rng);
  Tensor c_vector = c_scalar;

  set_gemm_tier(GemmTier::Scalar);
  sgemm(m, n, k, a.data(), b.data(), 0.2f, c_scalar.data());
  set_gemm_tier(GemmTier::Avx2Fma);
  sgemm(m, n, k, a.data(), b.data(), 0.2f, c_vector.data());

  // The tiers reassociate the k reduction, so agreement is to float
  // tolerance, not bitwise.
  EXPECT_TRUE(c_vector.allclose(c_scalar, 1e-3f))
      << "m=" << m << " n=" << n << " k=" << k;
}

TEST_P(GemmTierParity, SerialDriverMatchesPooledBitwisePerTier) {
  const auto [m, n, k] = GetParam();
  TierGuard guard;
  Rng rng(m + 31 * n + 997 * k);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);

  for (const GemmTier tier : {GemmTier::Scalar, GemmTier::Avx2Fma}) {
    if (!gemm_tier_supported(tier)) continue;
    set_gemm_tier(tier);
    Tensor c_pool({m, n});
    Tensor c_serial({m, n});
    set_num_threads(4);
    sgemm(m, n, k, a.data(), b.data(), 0.0f, c_pool.data());
    set_num_threads(1);
    sgemm_serial(m, n, k, a.data(), b.data(), 0.0f, c_serial.data());
    EXPECT_TRUE(c_pool.equals(c_serial)) << gemm_tier_name(tier);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, GemmTierParity,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(6, 16, 32), std::make_tuple(7, 17, 33),
                      std::make_tuple(10, 3844, 50),
                      std::make_tuple(30, 750, 500),
                      std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 33, 129),
                      std::make_tuple(70, 90, 260),
                      std::make_tuple(128, 24, 300)));

TEST(GemmDispatch, VectorTierIsThreadCountInvariant) {
  if (!vector_tier_available()) GTEST_SKIP() << "no AVX2+FMA on this CPU";
  TierGuard guard;
  set_gemm_tier(GemmTier::Avx2Fma);
  const std::int64_t m = 130, n = 90, k = 260;
  Rng rng(42);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);

  Tensor c1({m, n});
  set_num_threads(1);
  sgemm(m, n, k, a.data(), b.data(), 0.0f, c1.data());
  Tensor c4({m, n});
  set_num_threads(4);
  sgemm(m, n, k, a.data(), b.data(), 0.0f, c4.data());
  set_num_threads(1);
  EXPECT_TRUE(c1.equals(c4));

  // And repeated runs reproduce the same bits: the vector tier has its own
  // determinism pin, independent of the scalar bit-reference.
  Tensor c_again({m, n});
  sgemm(m, n, k, a.data(), b.data(), 0.0f, c_again.data());
  EXPECT_TRUE(c1.equals(c_again));
}

TEST(GemmDispatch, EpilogueBiasPreluMatchesSeparatePassesBitwise) {
  const std::int64_t m = 21, n = 135, k = 77;
  Rng rng(7);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  const Tensor bias = Tensor::randn({m}, rng);
  const Tensor slope = Tensor::rand_uniform({m}, rng, 0.01f, 0.5f);

  TierGuard guard;
  for (const GemmTier tier : {GemmTier::Scalar, GemmTier::Avx2Fma}) {
    if (!gemm_tier_supported(tier)) continue;
    set_gemm_tier(tier);

    Tensor c_ref({m, n});
    sgemm(m, n, k, a.data(), b.data(), 0.0f, c_ref.data());
    for (std::int64_t i = 0; i < m; ++i) {
      float* row = c_ref.data() + i * n;
      for (std::int64_t j = 0; j < n; ++j) row[j] += bias[i];
      for (std::int64_t j = 0; j < n; ++j) {
        row[j] = row[j] > 0.0f ? row[j] : slope[i] * row[j];
      }
    }

    Tensor c_fused({m, n});
    sgemm(m, n, k, a.data(), b.data(), 0.0f, c_fused.data(),
          GemmEpilogue{bias.data(), slope.data()});
    EXPECT_TRUE(c_fused.equals(c_ref)) << gemm_tier_name(tier);

    Tensor c_serial({m, n});
    sgemm_serial(m, n, k, a.data(), b.data(), 0.0f, c_serial.data(),
                 GemmEpilogue{bias.data(), slope.data()});
    EXPECT_TRUE(c_serial.equals(c_ref)) << gemm_tier_name(tier);
  }
}

TEST(GemmDispatch, EpilogueStillAppliesOnDegenerateCalls) {
  // k == 0 short-circuits the accumulation but the bias must still land
  // on the beta-scaled C.
  const Tensor bias({2}, {1.0f, -2.0f});
  Tensor c({2, 3}, 4.0f);
  sgemm(2, 3, 0, nullptr, nullptr, 0.5f, c.data(),
        GemmEpilogue{bias.data(), nullptr});
  for (std::int64_t j = 0; j < 3; ++j) {
    EXPECT_FLOAT_EQ(c.at(0, j), 3.0f);
    EXPECT_FLOAT_EQ(c.at(1, j), 0.0f);
  }
}

// ---- Avx2Fma bit contract ----
//
// The tier names a bit contract, not a register width: whatever kernel the
// host runs inside it, every C element in the vector region (the first
// 8·⌊nb/8⌋ columns of each kBlockN = 256 column block) is one fused
// multiply-add chain over k in ascending order, starting from the loaded
// (beta-scaled) C value, and the remaining columns keep the scalar loops.
// The sweep crosses the 8/16/32-column tile edges, the 256-column block
// edge and the 256 k-block edge, and m runs past the 64-row panel.

constexpr std::int64_t kPinMaxM = 70;
constexpr std::int64_t kPinN[] = {1,  7,  8,   9,   15,  16,  17,
                                  24, 31, 32,  33,  47,  48,  49,
                                  255, 256, 257, 272, 289, 1600};
constexpr std::int64_t kPinK[] = {1, 3, 25, 256, 257};

// splitmix64-driven values in [-1, 1): independent of Rng/Tensor::randn, so
// the pinned digest only moves when the kernels do.
struct PinValues {
  std::uint64_t state;
  float next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return static_cast<float>(z >> 40) * 0x1p-23f - 1.0f;
  }
  std::vector<float> fill(std::int64_t count) {
    std::vector<float> v(static_cast<std::size_t>(count));
    for (float& x : v) x = next();
    return v;
  }
};

struct Fnv1a {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  void mix(const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 0x100000001B3ULL;
    }
  }
  void mix(const std::vector<float>& v) {
    mix(v.data(), v.size() * sizeof(float));
  }
};

// The operands of one swept shape: A (m×k), A·0.5 and its transpose
// (k×m, for sgemm_at), B (k×n), an initial C and per-row bias/PReLU
// slopes.
struct PinCase {
  std::vector<float> a, a_half, at_half, b, c0, bias, slope;
  PinCase(std::int64_t m, std::int64_t n, std::int64_t k) {
    PinValues v{static_cast<std::uint64_t>((m * 4096 + n) * 4096 + k)};
    a = v.fill(m * k);
    b = v.fill(k * n);
    c0 = v.fill(m * n);
    bias = v.fill(m);
    slope = v.fill(m);
    a_half = a;
    for (float& e : a_half) e *= 0.5f;
    at_half.resize(a.size());
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t p = 0; p < k; ++p) {
        at_half[static_cast<std::size_t>(p * m + i)] =
            a_half[static_cast<std::size_t>(i * k + p)];
      }
    }
  }
};

bool in_vector_region(std::int64_t j, std::int64_t n) {
  constexpr std::int64_t kBlockN = 256;
  const std::int64_t j0 = j - j % kBlockN;
  const std::int64_t nb = std::min(kBlockN, n - j0);
  return j - j0 < nb / 8 * 8;
}

TEST(GemmDispatch, Avx2TierBitsMatchGoldenDigest) {
  if (!vector_tier_available()) GTEST_SKIP() << "no AVX2+FMA on this CPU";
  TierGuard guard;
  set_gemm_tier(GemmTier::Avx2Fma);
  Fnv1a all;
  Fnv1a vector;
  const auto mix = [&](const std::vector<float>& c, std::int64_t n) {
    all.mix(c);
    for (std::size_t at = 0; at < c.size(); ++at) {
      const auto j = static_cast<std::int64_t>(at) % n;
      if (in_vector_region(j, n)) vector.mix(&c[at], sizeof(float));
    }
  };
  for (std::int64_t m = 1; m <= kPinMaxM; ++m) {
    for (const std::int64_t n : kPinN) {
      for (const std::int64_t k : kPinK) {
        const PinCase in(m, n, k);
        std::vector<float> c = in.c0;
        sgemm(m, n, k, in.a_half.data(), in.b.data(), 1.0f, c.data());
        mix(c, n);
        sgemm_serial(m, n, k, in.a.data(), in.b.data(), 0.0f, c.data(),
                     GemmEpilogue{in.bias.data(), in.slope.data()});
        mix(c, n);
        c = in.c0;
        sgemm_at(m, n, k, in.at_half.data(), in.b.data(), 1.0f,
                 c.data());
        mix(c, n);
      }
    }
  }
  // Both computed on the 6×16 AVX2 kernel; every later kernel of the tier
  // must reproduce them bit for bit. The vector region is intrinsics only,
  // so its digest holds in any build. The tail columns are scalar loops as
  // the compiler emits them, so the full digest has one value per
  // optimization level: GCC at -O3 (the Release build, the same on every
  // -march tried from x86-64 to native AVX-512) fuses only some steps of
  // each k loop, -O2 (the sanitizer presets) contracts every step into an
  // FMA, and -O0 fuses none.
  EXPECT_EQ(vector.h, 0x6528fcf426f26264ULL)
      << std::hex << "got 0x" << vector.h;
  static constexpr std::uint64_t kAllByOptLevel[] = {
      0xf8430e5ce674e9dfULL,  // -O3
      0xd69b0e18decfa307ULL,  // -O2
      0x6a7202f707f33951ULL,  // -O0
  };
  EXPECT_NE(std::find(std::begin(kAllByOptLevel), std::end(kAllByOptLevel),
                      all.h),
            std::end(kAllByOptLevel))
      << std::hex << "got 0x" << all.h;
}

TEST(GemmDispatch, Avx2TierVectorColumnsAreFmaChainsInKOrder) {
  if (!vector_tier_available()) GTEST_SKIP() << "no AVX2+FMA on this CPU";
  TierGuard guard;
  set_gemm_tier(GemmTier::Avx2Fma);
  std::int64_t checked = 0;
  for (std::int64_t m = 1; m <= kPinMaxM; ++m) {
    for (const std::int64_t n : kPinN) {
      for (const std::int64_t k : kPinK) {
        const PinCase in(m, n, k);
        // The contract: one fmaf per k, in k order.
        std::vector<float> want = in.c0;
        for (std::int64_t i = 0; i < m; ++i) {
          float* row = want.data() + i * n;
          for (std::int64_t p = 0; p < k; ++p) {
            const float ap = in.a_half[static_cast<std::size_t>(i * k + p)];
            const float* bp = in.b.data() + p * n;
            for (std::int64_t j = 0; j < n; ++j) {
              row[j] = std::fmaf(ap, bp[j], row[j]);
            }
          }
        }
        std::vector<float> got = in.c0;
        sgemm(m, n, k, in.a_half.data(), in.b.data(), 1.0f,
              got.data());
        std::vector<float> got_serial = in.c0;
        sgemm_serial(m, n, k, in.a_half.data(), in.b.data(), 1.0f,
                     got_serial.data());
        std::vector<float> got_at = in.c0;
        sgemm_at(m, n, k, in.at_half.data(), in.b.data(), 1.0f,
                 got_at.data());
        for (std::int64_t j = 0; j < n; ++j) {
          if (!in_vector_region(j, n)) continue;
          for (std::int64_t i = 0; i < m; ++i) {
            const std::size_t at = static_cast<std::size_t>(i * n + j);
            ASSERT_EQ(std::memcmp(&got[at], &want[at], sizeof(float)), 0)
                << "sgemm m=" << m << " n=" << n << " k=" << k << " i=" << i
                << " j=" << j;
            ASSERT_EQ(std::memcmp(&got_serial[at], &want[at], sizeof(float)),
                      0)
                << "sgemm_serial m=" << m << " n=" << n << " k=" << k;
            ASSERT_EQ(std::memcmp(&got_at[at], &want[at], sizeof(float)), 0)
                << "sgemm_at m=" << m << " n=" << n << " k=" << k;
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
}

// ---- sgemm_bt ----
//
// sgemm_bt is one dot product per output in double: even k into one
// chain, odd k into another, then C += float(sum). float × float
// is exact in double, so fused or not, each step rounds once and the
// result is a function of the operands alone, on every tier and build.
// This is that loop, copied; sgemm_bt must match it bit for bit.
void sgemm_bt_reference(std::int64_t m, std::int64_t n, std::int64_t k,
                        const float* a, const float* b, float beta, float* c) {
  for (std::int64_t i = 0; i < m * n; ++i) {
    c[i] = beta == 0.0f ? 0.0f : beta == 1.0f ? c[i] : beta * c[i];
  }
  for (std::int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * k;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* bj = b + j * k;
      double acc0 = 0.0, acc1 = 0.0;
      std::int64_t p = 0;
      for (; p + 2 <= k; p += 2) {
        acc0 += static_cast<double>(ai[p]) * bj[p];
        acc1 += static_cast<double>(ai[p + 1]) * bj[p + 1];
      }
      if (p < k) acc0 += static_cast<double>(ai[p]) * bj[p];
      c[i * n + j] += static_cast<float>(acc0 + acc1);
    }
  }
}

// Operands over the float special cases: ±0 and subnormals scattered
// through A and B, values near FLT_MAX (whose double sums round to ±Inf as
// floats), and a few ±Inf and NaN entries, placed so most outputs stay
// finite. Every NaN is the x86 default NaN (sign set, zero payload), the
// one Inf·0 and Inf − Inf produce: where two NaNs meet, IEEE leaves which
// payload survives to the operand order the compiler picked, so a second
// NaN pattern would pin that choice instead of the kernel.
//
// Products of values in [-1, 1) mostly sum exactly in double, which would
// hide the order of the sums. So with `cancel`, every row starts with
// 2^20, then ∓2^20 (minus in A, plus in B): each output's even chain
// starts at +2^40 and its odd chain at −2^40, every later product rounds
// to 2^-12 in its chain, and the float result, after the two cancel, shows
// which chain each product went into and in what order.
std::vector<float> special_operand(PinValues& v, std::int64_t rows,
                                   std::int64_t k, bool poison, float cancel) {
  const float nan = -std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  constexpr float kSpecial[] = {0.0f,     -0.0f,    1e-40f, -3e-39f,
                                0x1p-149f, 3.0e38f, -2.5e38f};
  std::vector<float> x = v.fill(rows * k);
  for (float& e : x) {
    const float r = v.next();
    if (r < -0.8f) e = kSpecial[static_cast<int>((r + 1.0f) * 35.0f) % 7];
  }
  if (cancel != 0.0f && k >= 2) {
    for (std::int64_t r = 0; r < rows; ++r) {
      x[static_cast<std::size_t>(r * k)] = 0x1p20f;
      x[static_cast<std::size_t>(r * k + 1)] = cancel * 0x1p20f;
    }
  }
  if (poison) {
    x[0] = nan;
    if (rows > 2) x[static_cast<std::size_t>(2 * k + k / 2)] = inf;
    if (rows > 4) x[static_cast<std::size_t>(4 * k + k - 1)] = -inf;
  }
  return x;
}

TEST(GemmDispatch, SgemmBtMatchesScalarLoopBitwise) {
  constexpr std::int64_t kExtent[] = {1, 15, 16, 17, 33, 64};
  constexpr std::int64_t kDepth[] = {1, 2, 3, 64, 257};
  TierGuard guard;
  std::int64_t checked = 0;
  for (const GemmTier tier : {GemmTier::Scalar, GemmTier::Avx2Fma}) {
    if (!gemm_tier_supported(tier)) continue;
    set_gemm_tier(tier);
    for (const std::int64_t m : kExtent) {
      for (const std::int64_t n : kExtent) {
        for (const std::int64_t k : kDepth) {
          PinValues v{static_cast<std::uint64_t>((m * 512 + n) * 512 + k)};
          const std::vector<float> a = special_operand(v, m, k, true, -1.0f);
          const std::vector<float> b = special_operand(v, n, k, n > 8, 1.0f);
          const std::vector<float> c0 = special_operand(v, m, n, false, 0.0f);
          for (const float beta : {0.0f, 1.0f}) {
            std::vector<float> want = c0;
            sgemm_bt_reference(m, n, k, a.data(), b.data(), beta,
                               want.data());
            std::vector<float> got = c0;
            sgemm_bt(m, n, k, a.data(), b.data(), beta, got.data());
            ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                  want.size() * sizeof(float)),
                      0)
                << gemm_tier_name(tier) << " m=" << m << " n=" << n
                << " k=" << k << " beta=" << beta;
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
}

// ---- fp32 conv serving entry ----
//
// Conv2d::infer_with must produce exactly the bits of the explicit
// im2col + sgemm_serial + (bias, PReLU) epilogue lowering, whatever kernel
// the tier runs for the shape. The sweep crosses kBlockK (k = 275, 500),
// output rows narrower than, equal to and wider than a 16-lane vector
// (slab vectors spanning rows; rows ending in a masked chunk), odd and
// even row counts, output pixel counts with and without
// out_h·out_w % 8 == 0, the 12-row output-channel groups, and the
// stride/pad lowerings that never leave im2col.

struct ConvCase {
  std::int64_t cin, h, w, cout, stride, pad;
  int epilogue;  // 0 none, 1 bias, 2 bias + PReLU
};

// The operands of one conv case, in splitmix64 values like PinCase.
struct ConvOperands {
  Tensor x, weight, bias, slope;
  ConvOperands(const ConvCase& s, std::int64_t batch, std::int64_t kernel) {
    PinValues v{static_cast<std::uint64_t>(
        ((s.cin * 64 + s.h) * 64 + s.w) * 64 + s.cout)};
    x = Tensor({batch, s.cin, s.h, s.w});
    weight = Tensor({s.cout, s.cin * kernel * kernel});
    bias = Tensor({s.cout});
    slope = Tensor({s.cout});
    for (Tensor* t : {&x, &weight, &bias, &slope}) {
      const auto values = v.fill(t->size());
      std::copy(values.begin(), values.end(), t->data());
    }
  }
};

// The lowering Conv2d::infer_with replaced: per image, im2col then
// sgemm_serial with the fused epilogue.
Tensor conv_by_im2col(const ConvCase& s, const ConvOperands& in,
                      std::int64_t kernel) {
  const std::int64_t batch = in.x.extent(0);
  const std::int64_t oh = conv_out_extent(s.h, kernel, s.pad, s.stride);
  const std::int64_t ow = conv_out_extent(s.w, kernel, s.pad, s.stride);
  const std::int64_t k = s.cin * kernel * kernel;
  Tensor out({batch, s.cout, oh, ow});
  std::vector<float> cols(static_cast<std::size_t>(k * oh * ow));
  const GemmEpilogue ep{s.epilogue >= 1 ? in.bias.data() : nullptr,
                        s.epilogue == 2 ? in.slope.data() : nullptr};
  for (std::int64_t i = 0; i < batch; ++i) {
    im2col(in.x.data() + i * s.cin * s.h * s.w, s.cin, s.h, s.w, kernel,
           kernel, s.pad, s.stride, cols.data());
    sgemm_serial(s.cout, oh * ow, k, in.weight.data(), cols.data(),
                 0.0f, out.data() + i * s.cout * oh * ow, ep);
  }
  return out;
}

// Conv2d::infer_with with the case's weights. Without a bias the layer
// gets a zero one and the reference none. That changes no bit: x + 0 == x
// except at x = -0, and a sum that starts at +0 ends at -0 only through an
// underflow, which these operands (multiples of 2^-23 in [-1, 1)) cannot
// produce.
Tensor conv_by_layer(const ConvCase& s, const ConvOperands& in,
                     std::int64_t kernel) {
  Rng rng(1);
  const nn::Conv2d conv(s.cin, s.cout, kernel, rng, s.stride, s.pad);
  const Tensor zero_bias({s.cout});
  Tensor out;
  conv.infer_with(in.weight, s.epilogue >= 1 ? in.bias : zero_bias, in.x, out,
                  s.epilogue == 2 ? &in.slope : nullptr);
  return out;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.size())) == 0;
}

TEST(GemmDispatch, DirectConvMatchesIm2colGemmBitwise) {
  if (!vector_tier_available()) GTEST_SKIP() << "no AVX2+FMA on this CPU";
  TierGuard guard;
  set_gemm_tier(GemmTier::Avx2Fma);
  constexpr std::int64_t kKernel = 5;
  constexpr std::int64_t kBatch = 2;
  // (H, W): out_w < 16 (lanes gathered across rows into the slab), = 16,
  // > 16 with a masked last chunk per row; odd out_h (a lone last row);
  // out_h·out_w % 8 == 0 or not.
  constexpr std::int64_t kHw[][2] = {
      {6, 6},   {8, 8},   {10, 8},  {12, 12}, {44, 9},  {20, 20},
      {21, 20}, {8, 22},  {24, 22}, {7, 28},  {9, 44},  {21, 21},
      {13, 17}, {30, 13}, {44, 44},
  };
  constexpr std::int64_t kCin[] = {1, 3, 8, 10, 11, 20};
  constexpr std::int64_t kCout[] = {1, 8, 10, 12, 13, 20, 30, 37};
  std::vector<ConvCase> cases;
  int rotate = 0;
  for (const std::int64_t cin : kCin) {
    for (const auto& hw : kHw) {
      for (const std::int64_t cout : kCout) {
        cases.push_back({cin, hw[0], hw[1], cout, 1, 0, rotate++ % 3});
      }
    }
  }
  // Tier-1 conv0 as the plan runs it: 289 output pixels, so the last one
  // is a scalar-tail column of the im2col lowering.
  cases.push_back({1, 21, 21, 8, 1, 0, 2});
  // Lowerings that stay on im2col whatever the shape.
  for (const std::int64_t cout : {std::int64_t{10}, std::int64_t{13}}) {
    cases.push_back({3, 12, 12, cout, 1, 2, 2});
    cases.push_back({3, 20, 20, cout, 2, 0, 2});
    cases.push_back({3, 21, 21, cout, 2, 1, 1});
  }

  std::int64_t fma_checked = 0;
  for (const ConvCase& s : cases) {
    const ConvOperands in(s, kBatch, kKernel);
    const Tensor want = conv_by_im2col(s, in, kKernel);
    const Tensor got = conv_by_layer(s, in, kKernel);
    ASSERT_TRUE(same_bits(got, want))
        << "cin=" << s.cin << " h=" << s.h << " w=" << s.w
        << " cout=" << s.cout << " stride=" << s.stride << " pad=" << s.pad
        << " epilogue=" << s.epilogue;

    // Where no output falls in a scalar-tail column of the lowering, each
    // output is one fmaf chain over k = (ci, ky, kx) ascending from +0,
    // then the bias add, then the PReLU select.
    const std::int64_t oh = conv_out_extent(s.h, kKernel, s.pad, s.stride);
    const std::int64_t ow = conv_out_extent(s.w, kKernel, s.pad, s.stride);
    if (s.stride != 1 || s.pad != 0 || oh * ow % 8 != 0) continue;
    const std::int64_t k = s.cin * kKernel * kKernel;
    std::vector<std::int64_t> tap(static_cast<std::size_t>(k));
    for (std::int64_t p = 0; p < k; ++p) {
      const std::int64_t ci = p / (kKernel * kKernel);
      tap[static_cast<std::size_t>(p)] =
          (ci * s.h + p / kKernel % kKernel) * s.w + p % kKernel;
    }
    for (std::int64_t i = 0; i < kBatch; ++i) {
      const float* img = in.x.data() + i * s.cin * s.h * s.w;
      for (std::int64_t co = 0; co < s.cout; ++co) {
        const float* wr = in.weight.data() + co * k;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const float* at = img + oy * s.w + ox;
            float acc = 0.0f;
            for (std::int64_t p = 0; p < k; ++p) {
              acc = std::fmaf(wr[p], at[tap[static_cast<std::size_t>(p)]], acc);
            }
            if (s.epilogue >= 1) acc += in.bias.data()[co];
            if (s.epilogue == 2) {
              acc = acc > 0.0f ? acc : in.slope.data()[co] * acc;
            }
            const float g = got.data()[((i * s.cout + co) * oh + oy) * ow + ox];
            ASSERT_EQ(std::memcmp(&g, &acc, sizeof(float)), 0)
                << "cin=" << s.cin << " h=" << s.h << " w=" << s.w
                << " cout=" << s.cout << " image=" << i << " co=" << co
                << " oy=" << oy << " ox=" << ox;
            ++fma_checked;
          }
        }
      }
    }
  }
  EXPECT_GT(fma_checked, 0);
}

// An anonymous mapping whose last `bytes` of readable memory sit flush
// against a PROT_NONE page, so any read past them faults in every build.
// ASan cannot see masked vector loads or gathers; this can.
class GuardedBuffer {
 public:
  explicit GuardedBuffer(std::size_t bytes) {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    data_pages_ = (bytes + page - 1) / page * page;
    size_ = data_pages_ + page;
    base_ = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base_ == MAP_FAILED) {
      base_ = nullptr;
      return;
    }
    if (mprotect(static_cast<char*>(base_) + data_pages_, page, PROT_NONE) !=
        0) {
      munmap(base_, size_);
      base_ = nullptr;
      return;
    }
    end_ = static_cast<char*>(base_) + data_pages_;
  }
  ~GuardedBuffer() {
    if (base_ != nullptr) munmap(base_, size_);
  }
  GuardedBuffer(const GuardedBuffer&) = delete;
  GuardedBuffer& operator=(const GuardedBuffer&) = delete;

  bool ok() const { return base_ != nullptr; }
  /// `count` elements of T ending exactly at the guard page.
  template <typename T>
  T* tail(std::int64_t count) const {
    return reinterpret_cast<T*>(end_) - count;
  }

 private:
  void* base_ = nullptr;
  char* end_ = nullptr;
  std::size_t data_pages_ = 0;
  std::size_t size_ = 0;
};

TEST(GemmDispatch, DirectConvNeverReadsPastTheImage) {
  if (!vector_tier_available()) GTEST_SKIP() << "no AVX2+FMA on this CPU";
  TierGuard guard;
  set_gemm_tier(GemmTier::Avx2Fma);
  constexpr std::int64_t kKernel = 5;
  // (8, 22): rows of 18 outputs, each a 16-lane chunk and a masked 2-lane
  // one; (10, 8): rows of 4 outputs gathered into the slab, 24 outputs in
  // a full and a half slab vector; (21, 21): tier-1 conv0, whose 289th
  // output is a scalar-tail column of the lowering; (9, 11): rows of 7
  // gathered outputs, 35 in all, the last 3 in scalar-tail columns. In
  // each, the last tap of the last output reads the image's last float.
  const ConvCase shapes[] = {{3, 8, 22, 10, 1, 0, 2},
                             {20, 10, 8, 30, 1, 0, 2},
                             {1, 21, 21, 8, 1, 0, 2},
                             {3, 9, 11, 13, 1, 0, 2}};
  for (const ConvCase& s : shapes) {
    const ConvOperands in(s, 1, kKernel);
    const std::int64_t chw = s.cin * s.h * s.w;
    GuardedBuffer buf(static_cast<std::size_t>(chw) * sizeof(float));
    ASSERT_TRUE(buf.ok());
    float* img = buf.tail<float>(chw);
    std::copy(in.x.data(), in.x.data() + chw, img);
    // The guard is live: the first float past the image faults.
    EXPECT_DEATH(
        { std::printf("%f\n", static_cast<double>(*(img + chw))); }, "");

    const Tensor want = conv_by_im2col(s, in, kKernel);
    Rng rng(1);
    const nn::Conv2d conv(s.cin, s.cout, kKernel, rng);
    Tensor got;
    conv.infer_with(in.weight, in.bias,
                    ConstTensorView(img, {1, s.cin, s.h, s.w}), got,
                    &in.slope);
    EXPECT_TRUE(same_bits(got, want)) << "cin=" << s.cin << " h=" << s.h
                                      << " w=" << s.w;
  }
}

// ---- pooled conv output ----
//
// sconv_serial with pool_2x2 (what the plan runs for a conv followed by
// MaxPool2d(2)) must write exactly the bits of its plain output pooled by
// MaxPool2d::infer_into, whichever kernel computes it: the direct pooled
// kernel, or the plain conv into a per-thread plane and the shared pool.
// The sweep crosses wide planes (row-pair strips, last chunk masked) and
// narrow ones (out_w < 16), odd extents whose last row or column no window
// reads, outputs with n % 8 tail pixels inside pooled windows (18×18: 320–
// 323) or outside them (17×17), outputs that are all tail (2×2), the
// 12-row channel groups, and the lowerings that never run direct.

// A pooled-conv case: kernel 5 unless noted, stride 1 and pad 0 unless
// noted.
struct PoolConvCase {
  std::int64_t cin, oh, ow, cout;
  int epilogue;  // 0 none, 1 bias, 2 bias + PReLU
  std::int64_t kernel = 5, stride = 1, pad = 0;
  std::int64_t h() const { return (oh - 1) * stride + kernel - 2 * pad; }
  std::int64_t w() const { return (ow - 1) * stride + kernel - 2 * pad; }
};

// Operands whose windows reach every branch of the pool rule. Each image
// holds three NaN pixels with distinct payloads (both signs, one
// signalling) and two ±Inf pixels, so whole receptive fields turn NaN
// (payloads carried, or the default NaN where +Inf meets −Inf) next to
// ordered ones; and a zero plate with sparse ±1 pixels. Output channel 0
// has weights ±2^-149 and a zero bias, so over the plate its sums are a
// few multiples of 2^-149 or exactly +0: with the PReLU slope −0.25 a +0
// turns −0 and −2^-149 underflows to +0, and windows mix the two zeros.
// Elsewhere the plate gives whole windows of equal bias values.
struct PoolConvOperands {
  Tensor x, weight, bias, slope;
  PoolConvOperands(const PoolConvCase& s, std::int64_t batch) {
    const std::int64_t h = s.h();
    const std::int64_t w = s.w();
    const std::int64_t k = s.cin * s.kernel * s.kernel;
    PinValues v{static_cast<std::uint64_t>(
        (((s.cin * 64 + s.oh) * 64 + s.ow) * 64 + s.cout) * 8 + s.kernel)};
    x = Tensor({batch, s.cin, h, w});
    weight = Tensor({s.cout, k});
    bias = Tensor({s.cout});
    slope = Tensor({s.cout});
    for (Tensor* t : {&x, &weight, &bias, &slope}) {
      const auto values = v.fill(t->size());
      std::copy(values.begin(), values.end(), t->data());
    }
    for (std::int64_t p = 0; p < k; ++p) {
      weight.data()[p] = std::bit_cast<float>(
          0x00000001u | (v.next() < 0.0f ? 0x80000000u : 0u));
    }
    bias.data()[0] = 0.0f;
    slope.data()[0] = -0.25f;
    const auto pick = [&v](std::int64_t extent) {
      return std::min(extent - 1,
                      static_cast<std::int64_t>((v.next() + 1.0f) * 0.5f *
                                                static_cast<float>(extent)));
    };
    for (std::int64_t i = 0; i < batch; ++i) {
      float* img = x.data() + i * s.cin * h * w;
      for (std::int64_t y = h / 4; y < h / 4 + (h + 1) / 2; ++y) {
        for (std::int64_t xx = w / 4; xx < w / 4 + (w + 1) / 2; ++xx) {
          for (std::int64_t c = 0; c < s.cin; ++c) {
            const float r = v.next();
            img[(c * h + y) * w + xx] = r > 0.875f    ? 1.0f
                                        : r < -0.875f ? -1.0f
                                                      : 0.0f;
          }
        }
      }
      const std::uint32_t specials[] = {
          0x7fc00000u | static_cast<std::uint32_t>(i * 16 + 1),
          0xffc00000u | static_cast<std::uint32_t>(i * 16 + 2),
          0x7f800000u | static_cast<std::uint32_t>(i * 16 + 3),
          0x7f800000u, 0xff800000u};
      for (const std::uint32_t bits : specials) {
        img[(pick(s.cin) * h + pick(h)) * w + pick(w)] =
            std::bit_cast<float>(bits);
      }
    }
  }
  GemmEpilogue epilogue(int form) const {
    return {form >= 1 ? bias.data() : nullptr,
            form == 2 ? slope.data() : nullptr};
  }
};

Tensor conv_then_pool(const PoolConvCase& s, const PoolConvOperands& in,
                      const float* image) {
  const std::int64_t batch = in.x.extent(0);
  Tensor plain({batch, s.cout, s.oh, s.ow});
  sconv_serial(batch, image, s.cin, s.h(), s.w(), s.kernel, s.pad, s.stride,
               in.weight.data(), s.cout, plain.data(),
               in.epilogue(s.epilogue));
  Tensor pooled;
  nn::MaxPool2d(2).infer_into(plain, pooled);
  return pooled;
}

Tensor pooled_conv(const PoolConvCase& s, const PoolConvOperands& in,
                   const float* image) {
  Tensor out({in.x.extent(0), s.cout, s.oh / 2, s.ow / 2});
  sconv_serial(in.x.extent(0), image, s.cin, s.h(), s.w(), s.kernel, s.pad,
               s.stride, in.weight.data(), s.cout, out.data(),
               in.epilogue(s.epilogue), true);
  return out;
}

TEST(GemmDispatch, FusedConvPoolMatchesConvThenPoolBitwise) {
  constexpr std::int64_t kExtent[][2] = {
      {4, 4},  {7, 7},   {16, 16}, {17, 17}, {18, 18}, {40, 40},
      {4, 40}, {40, 4},  {17, 18}, {18, 17}, {7, 16},  {2, 2}, {3, 3}};
  constexpr std::int64_t kCin[] = {1, 3, 10, 20};
  constexpr std::int64_t kCout[] = {1, 8, 10, 12, 13, 20, 30};
  std::vector<PoolConvCase> cases;
  for (const std::int64_t cin : kCin) {
    for (const auto& e : kExtent) {
      for (const std::int64_t cout : kCout) {
        for (int epilogue = 0; epilogue < 3; ++epilogue) {
          cases.push_back({cin, e[0], e[1], cout, epilogue});
        }
      }
    }
  }
  // Lowerings that never run direct: 1×1, stride 2, pad 1.
  for (const std::int64_t cout : {std::int64_t{10}, std::int64_t{13}}) {
    cases.push_back({3, 18, 17, cout, 2, 1});
    cases.push_back({3, 9, 8, cout, 2, 5, 2});
    cases.push_back({3, 10, 11, cout, 2, 5, 1, 1});
  }
  TierGuard guard;
  std::int64_t nan_windows = 0;
  std::int64_t mixed_zero_windows = 0;
  for (const GemmTier tier : {GemmTier::Scalar, GemmTier::Avx2Fma}) {
    if (!gemm_tier_supported(tier)) continue;
    set_gemm_tier(tier);
    for (const PoolConvCase& s : cases) {
      const PoolConvOperands in(s, 2);
      const Tensor want = conv_then_pool(s, in, in.x.data());
      const Tensor got = pooled_conv(s, in, in.x.data());
      ASSERT_TRUE(same_bits(got, want))
          << gemm_tier_name(tier) << " cin=" << s.cin << " oh=" << s.oh
          << " ow=" << s.ow << " cout=" << s.cout
          << " epilogue=" << s.epilogue << " kernel=" << s.kernel
          << " stride=" << s.stride << " pad=" << s.pad;
      if (tier != GemmTier::Avx2Fma || s.epilogue != 2) continue;
      // The operands must reach the rule's branches: partly-NaN windows,
      // and windows whose maximum is a tie of +0 and −0.
      Tensor plain({2, s.cout, s.oh, s.ow});
      sconv_serial(2, in.x.data(), s.cin, s.h(), s.w(), s.kernel, s.pad,
                   s.stride, in.weight.data(), s.cout, plain.data(),
                   in.epilogue(2));
      for (std::int64_t p = 0; p < 2 * s.cout; ++p) {
        const float* pl = plain.data() + p * s.oh * s.ow;
        for (std::int64_t y = 0; y + 1 < s.oh; y += 2) {
          for (std::int64_t x = 0; x + 1 < s.ow; x += 2) {
            const float win[4] = {pl[y * s.ow + x], pl[y * s.ow + x + 1],
                                  pl[(y + 1) * s.ow + x],
                                  pl[(y + 1) * s.ow + x + 1]};
            int nans = 0, pos0 = 0, neg0 = 0;
            float best = -std::numeric_limits<float>::infinity();
            for (const float f : win) {
              nans += std::isnan(f) ? 1 : 0;
              if (f == 0.0f) (std::signbit(f) ? neg0 : pos0) += 1;
              if (!std::isnan(f)) best = std::max(best, f);
            }
            nan_windows += nans > 0 && nans < 4 ? 1 : 0;
            mixed_zero_windows += best == 0.0f && pos0 > 0 && neg0 > 0;
          }
        }
      }
    }
  }
  if (vector_tier_available()) {
    EXPECT_GT(nan_windows, 0);
    EXPECT_GT(mixed_zero_windows, 0);
  }
}

TEST(GemmDispatch, FusedConvPoolNeverReadsPastTheImage) {
  if (!vector_tier_available()) GTEST_SKIP() << "no AVX2+FMA on this CPU";
  TierGuard guard;
  set_gemm_tier(GemmTier::Avx2Fma);
  // The joint model's three stages (40×40, 16×16, 4×4 outputs), tier-1
  // conv0 (17×17: the last row and column are never pooled), an 18×17
  // output whose rows end in a masked chunk and whose tail pixels sit in
  // pooled windows, and a narrow 7×5 one. In each, the last tap of the
  // last conv output reads the image's last float.
  const PoolConvCase shapes[] = {{1, 40, 40, 10, 2},  {10, 16, 16, 20, 2},
                                 {20, 4, 4, 30, 2},   {1, 17, 17, 8, 2},
                                 {3, 18, 17, 13, 2},  {3, 7, 5, 13, 1}};
  for (const PoolConvCase& s : shapes) {
    const PoolConvOperands in(s, 1);
    const std::int64_t chw = s.cin * s.h() * s.w();
    GuardedBuffer buf(static_cast<std::size_t>(chw) * sizeof(float));
    ASSERT_TRUE(buf.ok());
    float* img = buf.tail<float>(chw);
    std::copy(in.x.data(), in.x.data() + chw, img);
    EXPECT_TRUE(same_bits(pooled_conv(s, in, img),
                          conv_then_pool(s, in, in.x.data())))
        << "cin=" << s.cin << " oh=" << s.oh << " ow=" << s.ow;
  }
}

// ---- int8 conv serving entry ----
//
// Conv2d::infer_quantized must produce exactly the bits of quantize_into +
// im2col_i8 + igemm_serial with the same requant epilogue, whatever kernel
// iconv_serial runs for the shape. The sweep crosses output rows of 1 to 40
// pixels (1, 2, 3 and 4 per row give many rows per 32-pixel strip; 15/16/17
// and 31/32/33 sit at the strip edges), ragged last strips, kernels 1 (the
// pass-through), 2, 3 and 5, k not a multiple of 4, the 12-row
// output-channel groups, inputs that saturate to ±127, all three epilogue
// forms, and the stride/pad lowerings that always build the column matrix.

struct IconvCase {
  std::int64_t cin, h, w, cout, kernel, stride, pad;
  int epilogue;     // 0 scale, 1 scale + bias, 2 scale + bias + PReLU
  float inv_scale;  // 127 keeps |x| < 1 inside ±127; 381 saturates 2/3
};

// The operands of one int8 conv case, in splitmix64 values like PinCase:
// an f32 batch, int8 weights over [-127, 127] and per-channel requant
// scale, bias and PReLU slope.
struct IconvOperands {
  Tensor x;
  std::vector<std::int8_t> weight;
  std::vector<float> scale, bias, slope;
  IconvOperands(const IconvCase& s, std::int64_t batch) {
    PinValues v{static_cast<std::uint64_t>(
        (((s.cin * 64 + s.h) * 64 + s.w) * 64 + s.cout) * 8 + s.kernel)};
    x = Tensor({batch, s.cin, s.h, s.w});
    const auto values = v.fill(x.size());
    std::copy(values.begin(), values.end(), x.data());
    for (const float f : v.fill(s.cout * s.cin * s.kernel * s.kernel)) {
      weight.push_back(static_cast<std::int8_t>(
          std::clamp(std::lrintf(f * 128.0f), -127L, 127L)));
    }
    for (const float f : v.fill(s.cout)) {
      scale.push_back(0.001f + 0.01f * std::fabs(f));
    }
    bias = v.fill(s.cout);
    slope = v.fill(s.cout);
  }
  IgemmEpilogue epilogue(int form) const {
    return {scale.data(), form >= 1 ? bias.data() : nullptr,
            form == 2 ? slope.data() : nullptr};
  }
};

// The lowering Conv2d::infer_quantized replaced: per image, quantize_into,
// im2col_i8, then igemm_serial with the requant epilogue.
Tensor iconv_by_im2col(const IconvCase& s, const IconvOperands& in) {
  const std::int64_t batch = in.x.extent(0);
  const std::int64_t oh = conv_out_extent(s.h, s.kernel, s.pad, s.stride);
  const std::int64_t ow = conv_out_extent(s.w, s.kernel, s.pad, s.stride);
  const std::int64_t k = s.cin * s.kernel * s.kernel;
  const std::int64_t chw = s.cin * s.h * s.w;
  Tensor out({batch, s.cout, oh, ow});
  std::vector<std::int8_t> image(static_cast<std::size_t>(chw));
  std::vector<std::int8_t> cols(static_cast<std::size_t>(k * oh * ow));
  for (std::int64_t i = 0; i < batch; ++i) {
    quantize_into(in.x.data() + i * chw, chw, s.inv_scale, image.data());
    im2col_i8(image.data(), s.cin, s.h, s.w, s.kernel, s.kernel, s.pad,
              s.stride, cols.data());
    igemm_serial(s.cout, oh * ow, k, in.weight.data(), cols.data(),
                 out.data() + i * s.cout * oh * ow, in.epilogue(s.epilogue));
  }
  return out;
}

Tensor iconv_by_layer(const IconvCase& s, const IconvOperands& in) {
  Rng rng(1);
  const nn::Conv2d conv(s.cin, s.cout, s.kernel, rng, s.stride, s.pad);
  nn::ConvInt8Scratch scratch;
  Tensor out;
  conv.infer_quantized(in.weight.data(), in.epilogue(s.epilogue), s.inv_scale,
                       in.x, out, scratch);
  return out;
}

TEST(GemmDispatch, DirectIconvMatchesIm2colIgemmBitwise) {
  constexpr std::int64_t kBatch = 2;
  // (H, W), mostly non-square; at kernel 5 they give out_w 1, 2, 3, 4, 4,
  // 15, 16, 17, 31, 32, 33, 40, 17 and 40.
  constexpr std::int64_t kHw[][2] = {
      {5, 5},   {9, 6},   {6, 7},  {8, 8},   {21, 8},  {7, 19},  {20, 20},
      {10, 21}, {6, 35},  {12, 36}, {5, 37}, {44, 44}, {21, 21}, {13, 44},
  };
  constexpr std::int64_t kCin[] = {1, 3, 8, 10, 11, 20};
  constexpr std::int64_t kCout[] = {1, 8, 10, 12, 13, 20, 30, 37};
  std::vector<IconvCase> cases;
  int rotate = 0;
  for (const std::int64_t kernel : {1, 2, 3, 5}) {
    for (const std::int64_t cin : kCin) {
      for (const auto& hw : kHw) {
        for (const std::int64_t cout : kCout) {
          cases.push_back({cin, hw[0], hw[1], cout, kernel, 1, 0, rotate % 3,
                           rotate % 2 == 0 ? 127.0f : 381.0f});
          ++rotate;
        }
      }
    }
  }
  // Lowerings that build the column matrix whatever the tier.
  for (const std::int64_t cout : {std::int64_t{10}, std::int64_t{13}}) {
    cases.push_back({3, 12, 12, cout, 5, 1, 2, 2, 381.0f});
    cases.push_back({3, 20, 20, cout, 5, 2, 0, 1, 127.0f});
    cases.push_back({3, 21, 21, cout, 3, 2, 1, 0, 381.0f});
    cases.push_back({8, 9, 9, cout, 1, 2, 0, 2, 127.0f});
    cases.push_back({8, 9, 9, cout, 1, 1, 1, 2, 381.0f});
  }

  TierGuard guard;
  for (const GemmTier tier : {GemmTier::Avx2Fma, GemmTier::Scalar}) {
    if (!gemm_tier_supported(tier)) continue;
    set_gemm_tier(tier);
    for (std::size_t c = 0; c < cases.size(); ++c) {
      // The scalar tier only ever builds the column matrix and is slow at
      // the large shapes; every eighth case covers its entry.
      if (tier == GemmTier::Scalar && c % 8 != 0) continue;
      const IconvCase& s = cases[c];
      const IconvOperands in(s, kBatch);
      const Tensor want = iconv_by_im2col(s, in);
      const Tensor got = iconv_by_layer(s, in);
      ASSERT_TRUE(same_bits(got, want))
          << gemm_tier_name(tier) << " cin=" << s.cin << " h=" << s.h
          << " w=" << s.w << " cout=" << s.cout << " kernel=" << s.kernel
          << " stride=" << s.stride << " pad=" << s.pad
          << " epilogue=" << s.epilogue << " inv_scale=" << s.inv_scale;
    }
  }
}

TEST(GemmDispatch, DirectIconvNeverReadsPastTheImage) {
  if (!vector_tier_available()) GTEST_SKIP() << "no AVX2+FMA on this CPU";
  TierGuard guard;
  set_gemm_tier(GemmTier::Avx2Fma);
  // 20×8×8 → 30: rows of 4 outputs, 16 pixels in one ragged strip;
  // 1×21×21 → 8: 289 pixels, whose last strip holds one. In both, the
  // last tap of the last output reads the image's last byte.
  const IconvCase shapes[] = {{20, 8, 8, 30, 5, 1, 0, 2, 381.0f},
                              {1, 21, 21, 8, 5, 1, 0, 2, 127.0f}};
  for (const IconvCase& s : shapes) {
    const IconvOperands in(s, 1);
    const std::int64_t chw = s.cin * s.h * s.w;
    GuardedBuffer buf(static_cast<std::size_t>(chw));
    ASSERT_TRUE(buf.ok());
    std::int8_t* img = buf.tail<std::int8_t>(chw);
    quantize_into(in.x.data(), chw, s.inv_scale, img);
    // The guard is live: the first byte past the image faults.
    EXPECT_DEATH({ std::printf("%d\n", static_cast<int>(*(img + chw))); },
                 "");

    const Tensor want = iconv_by_im2col(s, in);
    Tensor got(want.shape());
    iconv_serial(img, s.cin, s.h, s.w, s.kernel, s.pad, s.stride,
                 in.weight.data(), s.cout, got.data(), in.epilogue(s.epilogue));
    EXPECT_TRUE(same_bits(got, want)) << "cin=" << s.cin << " h=" << s.h
                                      << " w=" << s.w;
  }
}

// ---- 1×1 convolution fast path ----

TEST(PointwiseConv, MatchesExplicitIm2colLoweringBitwise) {
  Rng rng(11);
  nn::Conv2d conv(6, 9, /*kernel=*/1, rng);
  const std::int64_t h = 13, w = 17;
  const Tensor x = Tensor::randn({3, 6, h, w}, rng);

  // Reference: the full im2col lowering the fast path skips. For 1×1 the
  // column matrix is a verbatim copy of the sample, so the results must
  // agree bit-for-bit, not just within tolerance.
  Tensor ref({3, 9, h, w});
  std::vector<float> cols(static_cast<std::size_t>(6 * h * w));
  for (std::int64_t i = 0; i < 3; ++i) {
    im2col(x.data() + i * 6 * h * w, 6, h, w, 1, 1, 0, 1, cols.data());
    sgemm_serial(9, h * w, 6, conv.weight().value.data(), cols.data(),
                 0.0f, ref.data() + i * 9 * h * w,
                 GemmEpilogue{conv.bias().value.data(), nullptr});
  }

  Tensor got;
  conv.infer_into(x, got);
  ASSERT_EQ(got.shape(), ref.shape());
  EXPECT_TRUE(got.equals(ref));

  // The training forward shares the fast path (plus caching for backward).
  Tensor fwd = conv.forward(x);
  EXPECT_TRUE(fwd.equals(ref));
}

TEST(PointwiseConv, BackwardMatchesGeneralPath) {
  // A 1×1 conv built as kernel-size-1 must produce the same gradients as
  // the im2col path would: compare against a finite-difference-free
  // reference built from the same GEMM primitives.
  Rng rng(12);
  nn::Conv2d conv(4, 5, 1, rng);
  const Tensor x = Tensor::randn({2, 4, 6, 6}, rng);
  Tensor y = conv.forward(x);
  const Tensor gy = Tensor::randn(y.shape(), rng);
  conv.zero_grad();
  const Tensor gx = conv.backward(gy);
  ASSERT_EQ(gx.shape(), x.shape());

  // Reference input gradient: Wᵀ · gy per sample, scattered by the
  // identity col2im.
  Tensor gx_ref(x.shape());
  std::vector<float> grad_cols(static_cast<std::size_t>(4 * 36));
  for (std::int64_t i = 0; i < 2; ++i) {
    sgemm_at(4, 36, 5, conv.weight().value.data(),
             gy.data() + i * 5 * 36, 0.0f, grad_cols.data());
    col2im(grad_cols.data(), 4, 6, 6, 1, 1, 0, 1,
           gx_ref.data() + i * 4 * 36);
  }
  EXPECT_TRUE(gx.equals(gx_ref));
}

// ---- int8 GEMM tier (quantized serving path) ----

// Scalar reference for the full igemm contract: exact int32 accumulation,
// then the requant epilogue in its documented element order (scale, bias,
// PReLU). Everything is either exact integer arithmetic or a short fixed
// float sequence, so igemm_serial at ANY tier must match this bit for bit.
Tensor igemm_reference(std::int64_t m, std::int64_t n, std::int64_t k,
                       const std::int8_t* a, const std::int8_t* b,
                       const IgemmEpilogue& ep) {
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += std::int32_t{a[i * k + p]} * std::int32_t{b[p * n + j]};
      }
      // The requant contract is the FUSED multiply-add (fmaf in the
      // scalar epilogue, vfmaddps in the vector one — one rounding), so
      // the reference uses fmaf explicitly. A null bias still adds 0.0f,
      // as the library does.
      const float v0 = std::fmaf(static_cast<float>(acc), ep.scale[i],
                                 ep.bias != nullptr ? ep.bias[i] : 0.0f);
      float v = v0;
      if (ep.prelu != nullptr && !(v > 0.0f)) v *= ep.prelu[i];
      c.data()[i * n + j] = v;
    }
  }
  return c;
}

std::vector<std::int8_t> pattern_i8(std::int64_t count, int seed) {
  std::vector<std::int8_t> v(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    v[static_cast<std::size_t>(i)] =
        static_cast<std::int8_t>((i * 31 + seed * 17) % 255 - 127);
  }
  return v;
}

// Operands over the full s8 range, -128 included, which pattern_i8 (and
// quantize_into) never produce: the kernels must stay exact on all of it.
std::vector<std::int8_t> full_range_i8(std::int64_t count, int seed) {
  std::vector<std::int8_t> v(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    v[static_cast<std::size_t>(i)] =
        static_cast<std::int8_t>((i * 37 + seed * 11) % 256 - 128);
  }
  return v;
}

// Ragged sweep: the AVX2 igemm tiles rows by 6 and columns by 16 with an
// odd-k scalar tail, and the VNNI kernel groups rows by up to 12 against
// 32- and 16-column tiles with masked ragged columns and k padded to a
// multiple of 4, so cover every remainder class of both. Unlike the f32
// parity, equality here is EXACT — integer accumulation plus a shared
// epilogue operation sequence leaves no reassociation slack.
class IgemmTierParity
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

void expect_tiers_match_reference(int m, int n, int k,
                                  const std::vector<std::int8_t>& a,
                                  const std::vector<std::int8_t>& b) {
  std::vector<float> scale(static_cast<std::size_t>(m));
  std::vector<float> bias(static_cast<std::size_t>(m));
  std::vector<float> prelu(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    scale[static_cast<std::size_t>(i)] = 0.003f + 0.001f * static_cast<float>(i);
    bias[static_cast<std::size_t>(i)] = 0.25f - 0.1f * static_cast<float>(i % 7);
    prelu[static_cast<std::size_t>(i)] = 0.05f + 0.01f * static_cast<float>(i % 3);
  }
  const IgemmEpilogue ep{scale.data(), bias.data(), prelu.data()};
  const Tensor ref = igemm_reference(m, n, k, a.data(), b.data(), ep);

  TierGuard guard;
  for (const GemmTier tier : {GemmTier::Scalar, GemmTier::Avx2Fma}) {
    if (!gemm_tier_supported(tier)) continue;
    set_gemm_tier(tier);
    Tensor c({m, n});
    igemm_serial(m, n, k, a.data(), b.data(), c.data(), ep);
    EXPECT_TRUE(c.equals(ref))
        << gemm_tier_name(tier) << " m=" << m << " n=" << n << " k=" << k;
  }
}

TEST_P(IgemmTierParity, TiersAgreeBitwise) {
  const auto [m, n, k] = GetParam();
  expect_tiers_match_reference(m, n, k, pattern_i8(m * k, m + n),
                               pattern_i8(k * n, k));
}

TEST_P(IgemmTierParity, FullRangeOperandsAgreeBitwise) {
  const auto [m, n, k] = GetParam();
  expect_tiers_match_reference(m, n, k, full_range_i8(m * k, m + n),
                               full_range_i8(k * n, k));
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, IgemmTierParity,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(6, 16, 32), std::make_tuple(7, 17, 33),
                      std::make_tuple(10, 1600, 50),
                      std::make_tuple(20, 256, 250),
                      std::make_tuple(30, 16, 500),
                      std::make_tuple(13, 47, 129),
                      std::make_tuple(64, 64, 64)));

// The VNNI kernel's edges: row groups of ≤ 12 (m = 11, 12, 13, 24, 25,
// 37), 16/32-column tiles with a masked remainder (n = 15 … 47) and every
// k mod 4 (the k-quad padding).
INSTANTIATE_TEST_SUITE_P(
    VnniEdges, IgemmTierParity,
    ::testing::Combine(::testing::Values(11, 12, 13, 24, 25, 37),
                       ::testing::Values(15, 17, 31, 33, 47),
                       ::testing::Values(25, 26, 27, 28)));

TEST(IgemmDispatch, SaturatedOperandsAccumulateExactly) {
  // All-(-127)·(+127) operands drive every k step to the magnitude
  // extreme: acc = -k·127² must come out exactly in int32 (the scheme
  // saturates only in quantize_into, never inside the GEMM).
  const std::int64_t m = 7, n = 19, k = 1000;
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k), -127);
  std::vector<std::int8_t> b(static_cast<std::size_t>(k * n), 127);
  std::vector<float> scale(static_cast<std::size_t>(m), 1.0f);
  const IgemmEpilogue ep{scale.data(), nullptr, nullptr};
  const float want = static_cast<float>(-k * 127 * 127);

  TierGuard guard;
  for (const GemmTier tier : {GemmTier::Scalar, GemmTier::Avx2Fma}) {
    if (!gemm_tier_supported(tier)) continue;
    set_gemm_tier(tier);
    Tensor c({m, n});
    igemm_serial(m, n, k, a.data(), b.data(), c.data(), ep);
    for (std::int64_t i = 0; i < m * n; ++i) {
      ASSERT_EQ(c.data()[i], want) << gemm_tier_name(tier);
    }
  }
}

TEST(IgemmDispatch, LargestKWithExtremeOperandsIsExact) {
  // At k = kIgemmMaxK every ±127·±127 sum still fits int32, but a kernel
  // that shifts B to u8 (b + 128 ≤ 255) accumulates up to k·127·255 and
  // wraps; its row-sum correction must still land on the true value.
  // Rows of A are all +127, all -127 and alternating; columns of B the
  // same, so each sign pattern (and the wrap) appears. n = 33 crosses the
  // 16- and 32-column edges.
  const std::int64_t m = 3, n = 33, k = kIgemmMaxK;
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
  std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
  const auto extreme = [](std::int64_t pattern, std::int64_t p) {
    const std::int8_t sign = pattern == 0 ? 1 : pattern == 1 ? -1
                             : (p % 2 == 0 ? 1 : -1);
    return static_cast<std::int8_t>(127 * sign);
  };
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t i = 0; i < m; ++i) {
      a[static_cast<std::size_t>(i * k + p)] = extreme(i, p);
    }
    for (std::int64_t j = 0; j < n; ++j) {
      b[static_cast<std::size_t>(p * n + j)] = extreme(j % 3, p);
    }
  }
  std::vector<float> scale(static_cast<std::size_t>(m), 1.0f);
  const IgemmEpilogue ep{scale.data(), nullptr, nullptr};
  const Tensor ref = igemm_reference(m, n, k, a.data(), b.data(), ep);
  // Same-sign row and column: +k·127², the int32 extreme.
  ASSERT_EQ(ref.data()[0], static_cast<float>(k * 127 * 127));

  TierGuard guard;
  for (const GemmTier tier : {GemmTier::Scalar, GemmTier::Avx2Fma}) {
    if (!gemm_tier_supported(tier)) continue;
    set_gemm_tier(tier);
    Tensor c({m, n});
    igemm_serial(m, n, k, a.data(), b.data(), c.data(), ep);
    EXPECT_TRUE(c.equals(ref)) << gemm_tier_name(tier);
  }
}

TEST(IgemmDispatch, RejectsKBeyondAccumulatorBound) {
  std::vector<std::int8_t> dummy(1);
  std::vector<float> scale(1, 1.0f);
  Tensor c({1, 1});
  EXPECT_THROW(
      igemm_serial(1, 1, kIgemmMaxK + 1, dummy.data(), dummy.data(), c.data(),
                   IgemmEpilogue{scale.data(), nullptr, nullptr}),
      std::invalid_argument);
}

TEST(IgemmDispatch, SerialIsAllocationFreeAfterWarmup) {
  const std::int64_t m = 20, n = 256, k = 250;
  const auto a = pattern_i8(m * k, 1);
  const auto b = pattern_i8(k * n, 2);
  std::vector<float> scale(static_cast<std::size_t>(m), 0.01f);
  const IgemmEpilogue ep{scale.data(), nullptr, nullptr};
  Tensor c({m, n});
  igemm_serial(m, n, k, a.data(), b.data(), c.data(), ep);  // warm scratch

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  igemm_serial(m, n, k, a.data(), b.data(), c.data(), ep);
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0);
}

// ---- MaxPool serving fast path ----

TEST(MaxPoolDispatch, VectorPlanePoolMatchesScalarWalkBitwise) {
  // The 2×2/stride-2 AVX2 plane pool in MaxPool2d::infer_into must be
  // bitwise equal to the scalar window walk, including the NaN rule (NaN
  // never beats a finite value, an all-NaN window stays NaN) and the
  // first-seen-zero tie between -0.0 and +0.0.
  nn::MaxPool2d pool(2);
  Rng rng(17);
  // ow = 11: the 8-wide vector loop runs once and leaves a 3-column tail.
  Tensor x = Tensor::randn({2, 3, 12, 22}, rng);
  // Poison specific windows: all-NaN, mixed NaN, and a -0/+0 tie.
  x.data()[0] = std::numeric_limits<float>::quiet_NaN();
  x.data()[1] = std::numeric_limits<float>::quiet_NaN();
  x.data()[22] = std::numeric_limits<float>::quiet_NaN();
  x.data()[23] = std::numeric_limits<float>::quiet_NaN();  // window all NaN
  x.data()[2] = std::numeric_limits<float>::quiet_NaN();   // window mixed
  x.data()[4] = -0.0f;
  x.data()[5] = 0.0f;
  x.data()[26] = -1.0f;
  x.data()[27] = -2.0f;  // window max is the tie between -0.0 and +0.0

  TierGuard guard;
  set_gemm_tier(GemmTier::Scalar);
  Tensor ref;
  pool.infer_into(x, ref);

  if (!vector_tier_available()) GTEST_SKIP() << "no AVX2+FMA on this CPU";
  set_gemm_tier(GemmTier::Avx2Fma);
  Tensor got;
  pool.infer_into(x, got);
  ASSERT_EQ(got.shape(), ref.shape());
  // memcmp, not equals(): the all-NaN window makes elementwise == false
  // even for identical bits, and identical bits is exactly the claim.
  EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                        sizeof(float) * static_cast<std::size_t>(ref.size())),
            0);

  // The all-NaN window must have stayed NaN on both paths.
  EXPECT_TRUE(std::isnan(ref.data()[0]));
  EXPECT_TRUE(std::isnan(got.data()[0]));
}

// A pooling input of the given shape: normal values with about one in
// eight replaced by a NaN (four payloads, both signs, so a window that
// keeps the wrong NaN shows) and one in sixteen by ±0 (the first-seen-zero
// tie).
Tensor pool_input(std::int64_t n, std::int64_t c, std::int64_t h,
                  std::int64_t w) {
  constexpr std::uint32_t kNan[] = {0x7fc00000u, 0xffc00000u, 0x7fc00123u,
                                    0xffd00042u};
  PinValues v{static_cast<std::uint64_t>(((n * 64 + c) * 64 + h) * 64 + w)};
  Tensor x({n, c, h, w});
  for (std::int64_t i = 0; i < x.size(); ++i) {
    const float r = v.next();
    float e = v.next();
    if (r < -0.75f) {
      std::memcpy(&e, &kNan[static_cast<int>((r + 1.0f) * 16.0f) % 4],
                  sizeof(e));
    } else if (r > 0.875f) {
      e = r > 0.9375f ? 0.0f : -0.0f;
    }
    x.data()[i] = e;
  }
  return x;
}

TEST(MaxPoolDispatch, NarrowAndRaggedPlanesMatchScalarWalkBitwise) {
  // Planes narrower than 8 output columns (ow 1–7: tier-1's and the joint
  // model's last 4×4 → 2×2 pools among them) over many planes per batch,
  // odd extents whose last input row or column no window reads, and wide
  // planes whose ow % 8 columns end each output row.
  struct PoolShape {
    std::int64_t n, c, h, w;
  };
  std::vector<PoolShape> shapes = {{64, 16, 4, 4}, {32, 30, 4, 4},
                                   {1, 1, 2, 2},   {1, 3, 3, 3},
                                   {2, 1, 9, 23},  {3, 2, 5, 46}};
  for (const std::int64_t h : {2, 3, 5, 8, 9}) {
    for (std::int64_t w = 2; w <= 15; ++w) shapes.push_back({3, 5, h, w});
    for (const std::int64_t w : {18, 19, 22, 30, 31}) {
      shapes.push_back({2, 3, h, w});
    }
  }
  if (!vector_tier_available()) GTEST_SKIP() << "no AVX2+FMA on this CPU";
  const nn::MaxPool2d pool(2);
  TierGuard guard;
  for (const PoolShape& s : shapes) {
    const Tensor x = pool_input(s.n, s.c, s.h, s.w);
    set_gemm_tier(GemmTier::Scalar);
    Tensor ref;
    pool.infer_into(x, ref);
    set_gemm_tier(GemmTier::Avx2Fma);
    Tensor got;
    pool.infer_into(x, got);
    EXPECT_TRUE(same_bits(got, ref)) << "n=" << s.n << " c=" << s.c
                                     << " h=" << s.h << " w=" << s.w;
  }
}

TEST(MaxPoolDispatch, VectorPoolNeverReadsPastTheInput) {
  if (!vector_tier_available()) GTEST_SKIP() << "no AVX2+FMA on this CPU";
  TierGuard guard;
  const nn::MaxPool2d pool(2);
  // Narrow planes (ow = 3, 15 planes: the last vector is partial) and a
  // wide one with a 3-column tail, each ending flush with the guard page.
  const Shape shapes[] = {{3, 5, 6, 7}, {2, 3, 6, 22}, {1, 1, 4, 4}};
  for (const Shape& shape : shapes) {
    const Tensor x = pool_input(shape[0], shape[1], shape[2], shape[3]);
    GuardedBuffer buf(static_cast<std::size_t>(x.size()) * sizeof(float));
    ASSERT_TRUE(buf.ok());
    float* in = buf.tail<float>(x.size());
    std::copy(x.data(), x.data() + x.size(), in);
    set_gemm_tier(GemmTier::Scalar);
    Tensor ref;
    pool.infer_into(x, ref);
    set_gemm_tier(GemmTier::Avx2Fma);
    Tensor got;
    pool.infer_into(ConstTensorView(in, shape), got);
    EXPECT_TRUE(same_bits(got, ref)) << "w=" << shape[3];
  }
}

// ---- signed log ----
//
// signed_log_span runs a 16-lane AVX-512F kernel at the Avx2Fma tier on
// AVX-512F hosts and the scalar reference otherwise; both must give the
// same bits, on every input and at every span length (the last vector of
// a span is masked).

bool signed_log_kernel_available() {
  return vector_tier_available() && cpu_has_avx512f();
}

// Every `stride`-th 32-bit pattern, after crafted values: signed zeros,
// subnormals, values where |x| + 1 rounds to 1 or crosses a power of two,
// the table-interval edges of the logarithm, huge values, infinities and
// NaNs of both signs.
std::vector<float> signed_log_sweep(std::uint64_t stride) {
  const std::uint32_t crafted[] = {
      0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x807fffff,
      0x00800000, 0x33800000, 0xb3800000, 0x34000000, 0xb4000000,
      0x3f800000, 0xbf800000, 0x3f7fffff, 0x3f330000, 0x3e999999,
      0x41100000, 0xc2c60000, 0x4479c000, 0x4b7fffff, 0x4b800000,
      0xcb800001, 0x7f7fffff, 0xff7fffff, 0x7f800000, 0xff800000,
      0x7fc00000, 0xffc00000, 0x7f800001, 0xff812345, 0x7fbfffff,
  };
  std::vector<float> v;
  for (const std::uint32_t bits : crafted) {
    v.push_back(std::bit_cast<float>(bits));
  }
  for (std::uint64_t bits = 0; bits < (1ULL << 32); bits += stride) {
    v.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(bits)));
  }
  return v;
}

// signed_log_span over `in`, cut into consecutive spans of 1, 2, …, 47
// floats (then 1 again), at the current tier.
std::vector<float> signed_log_in_spans(const std::vector<float>& in) {
  std::vector<float> out(in.size());
  std::size_t at = 0;
  for (std::size_t len = 1; at < in.size(); len = len % 47 + 1) {
    const std::size_t n = std::min(len, in.size() - at);
    signed_log_span(in.data() + at, out.data() + at,
                    static_cast<std::int64_t>(n));
    at += n;
  }
  return out;
}

TEST(SignedLog, VectorMatchesScalarReferenceBitwise) {
  if (!signed_log_kernel_available()) GTEST_SKIP() << "no AVX-512F on this CPU";
  TierGuard guard;
  const std::vector<float> in = signed_log_sweep(251);
  set_gemm_tier(GemmTier::Scalar);
  const std::vector<float> want = signed_log_in_spans(in);
  set_gemm_tier(GemmTier::Avx2Fma);
  const std::vector<float> got = signed_log_in_spans(in);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0);
  // In place gives the same bits.
  std::vector<float> inplace = in;
  signed_log_span(inplace.data(), inplace.data(),
                  static_cast<std::int64_t>(inplace.size()));
  EXPECT_EQ(std::memcmp(inplace.data(), want.data(),
                        want.size() * sizeof(float)),
            0);
}

TEST(SignedLog, NeverReadsPastTheSpan) {
  if (!signed_log_kernel_available()) GTEST_SKIP() << "no AVX-512F on this CPU";
  TierGuard guard;
  const std::vector<float> sweep = signed_log_sweep(65537);
  constexpr std::int64_t kMaxLen = 47;
  GuardedBuffer in_buf(kMaxLen * sizeof(float));
  GuardedBuffer out_buf(kMaxLen * sizeof(float));
  ASSERT_TRUE(in_buf.ok() && out_buf.ok());
  for (std::int64_t n = 1; n <= kMaxLen; ++n) {
    const float* first = sweep.data() + n * 97;
    set_gemm_tier(GemmTier::Scalar);
    std::vector<float> want(static_cast<std::size_t>(n));
    signed_log_span(first, want.data(), n);

    // Input and output each end flush against a PROT_NONE page.
    set_gemm_tier(GemmTier::Avx2Fma);
    float* in = in_buf.tail<float>(n);
    float* out = out_buf.tail<float>(n);
    std::copy(first, first + n, in);
    signed_log_span(in, out, n);
    EXPECT_EQ(std::memcmp(out, want.data(), want.size() * sizeof(float)), 0)
        << "n=" << n;
    signed_log_span(in, in, n);
    EXPECT_EQ(std::memcmp(in, want.data(), want.size() * sizeof(float)), 0)
        << "n=" << n << " in place";
  }
}

// ---- quantize helpers feeding igemm ----

TEST(QuantizeDispatch, VectorPathMatchesScalarContractBitwise) {
  // quantize_into dispatches to an AVX2 body on capable CPUs; its contract
  // (multiply, float-space clamp, round-to-nearest-even, NaN→0) is pinned
  // here against a literal scalar transcription, across the 32-lane main
  // loop and the tail, including NaN/Inf/half-way cases.
  const std::int64_t n = 131;  // 4 full 32-lane groups + a 3-element tail
  std::vector<float> x(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] = 0.37f * static_cast<float>(i - 65);
  }
  x[0] = std::numeric_limits<float>::quiet_NaN();
  x[33] = std::numeric_limits<float>::infinity();
  x[66] = -std::numeric_limits<float>::infinity();
  x[99] = 0.5f;    // ties-to-even at the integer grid after scaling by 1
  x[100] = 1.5f;
  x[101] = -0.5f;
  const float inv_scale = 1.0f;

  std::vector<std::int8_t> got(static_cast<std::size_t>(n));
  quantize_into(x.data(), n, inv_scale, got.data());
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = x[static_cast<std::size_t>(i)] * inv_scale;
    const float clamped = v > 127.0f ? 127.0f : (v < -127.0f ? -127.0f : v);
    const std::int8_t want =
        std::isnan(clamped) ? std::int8_t{0}
                            : static_cast<std::int8_t>(std::lrintf(clamped));
    ASSERT_EQ(got[static_cast<std::size_t>(i)], want) << "i=" << i;
  }
  EXPECT_EQ(got[0], 0);     // NaN
  EXPECT_EQ(got[33], 127);  // +Inf saturates
  EXPECT_EQ(got[66], -127);
  EXPECT_EQ(got[99], 0);    // 0.5 rounds to even
  EXPECT_EQ(got[100], 2);   // 1.5 rounds to even
  EXPECT_EQ(got[101], 0);
}

TEST(Im2colDispatch, Int8FastPathMatchesGenericTraversal) {
  // The stride-1 fill/copy/fill fast path must write exactly the bytes the
  // bounds-checked per-element walk writes, for every kernel offset and
  // padding class.
  for (const std::int64_t pad : {std::int64_t{0}, std::int64_t{2}}) {
    const std::int64_t c = 3, h = 9, w = 11, kh = 5, kw = 5;
    const std::int64_t oh = conv_out_extent(h, kh, pad, 1);
    const std::int64_t ow = conv_out_extent(w, kw, pad, 1);
    const auto img = pattern_i8(c * h * w, 3);
    std::vector<std::int8_t> cols(
        static_cast<std::size_t>(c * kh * kw * oh * ow), 99);
    im2col_i8(img.data(), c, h, w, kh, kw, pad, 1, cols.data());

    for (std::int64_t ch = 0; ch < c; ++ch) {
      for (std::int64_t ky = 0; ky < kh; ++ky) {
        for (std::int64_t kx = 0; kx < kw; ++kx) {
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              const std::int64_t iy = oy + ky - pad;
              const std::int64_t ix = ox + kx - pad;
              const std::int8_t want =
                  (iy >= 0 && iy < h && ix >= 0 && ix < w)
                      ? img[static_cast<std::size_t>((ch * h + iy) * w + ix)]
                      : std::int8_t{0};
              const std::int64_t at =
                  (((ch * kh + ky) * kw + kx) * oh + oy) * ow + ox;
              ASSERT_EQ(cols[static_cast<std::size_t>(at)], want)
                  << "pad=" << pad << " ch=" << ch << " ky=" << ky
                  << " kx=" << kx << " oy=" << oy << " ox=" << ox;
            }
          }
        }
      }
    }
  }
}

TEST(PointwiseConv, InferAllocatesNoColumnBuffer) {
  Rng rng(13);
  nn::Conv2d conv(8, 12, 1, rng);
  const Tensor x = Tensor::randn({4, 8, 10, 10}, rng);
  Tensor out;
  conv.infer_into(x, out);  // warm up GEMM's per-thread scratch panel

  // Steady state: the 1×1 path feeds the input straight to GEMM, so no
  // column buffer exists to allocate or grow — zero allocations total.
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  conv.infer_into(x, out);
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0);
}

}  // namespace
}  // namespace sne
