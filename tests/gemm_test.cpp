// gemm_test.cpp — the GEMM kernels against a naive reference, and the
// im2col/col2im pair (correctness + adjointness), across shape sweeps.
#include <gtest/gtest.h>

#include <tuple>
#include <cmath>
#include <limits>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace sne {
namespace {

void naive_gemm(std::int64_t m, std::int64_t n, std::int64_t k,
                const float* a, const float* b, float beta, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      }
      c[i * n + j] = static_cast<float>(acc) + beta * c[i * n + j];
    }
  }
}

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(m * 1000 + n * 100 + k);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  Tensor c_fast = Tensor::randn({m, n}, rng);
  Tensor c_ref = c_fast;

  sgemm(m, n, k, a.data(), b.data(), 0.3f, c_fast.data());
  naive_gemm(m, n, k, a.data(), b.data(), 0.3f, c_ref.data());
  EXPECT_TRUE(c_fast.allclose(c_ref, 1e-3f))
      << "m=" << m << " n=" << n << " k=" << k;
}

TEST_P(GemmShapes, TransposedAMatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(m + n + k);
  const Tensor a_t = Tensor::randn({k, m}, rng);  // stored transposed
  const Tensor b = Tensor::randn({k, n}, rng);
  Tensor c_fast({m, n});
  Tensor c_ref({m, n});

  // Build the untransposed A for the reference.
  Tensor a({m, k});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) a.at(i, p) = a_t.at(p, i);
  }
  sgemm_at(m, n, k, a_t.data(), b.data(), 0.0f, c_fast.data());
  naive_gemm(m, n, k, a.data(), b.data(), 0.0f, c_ref.data());
  EXPECT_TRUE(c_fast.allclose(c_ref, 1e-3f));
}

TEST_P(GemmShapes, TransposedBMatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(3 * m + 5 * n + 7 * k);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b_t = Tensor::randn({n, k}, rng);  // stored transposed
  Tensor c_fast({m, n});
  Tensor c_ref({m, n});

  Tensor b({k, n});
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t j = 0; j < n; ++j) b.at(p, j) = b_t.at(j, p);
  }
  sgemm_bt(m, n, k, a.data(), b_t.data(), 0.0f, c_fast.data());
  naive_gemm(m, n, k, a.data(), b.data(), 0.0f, c_ref.data());
  EXPECT_TRUE(c_fast.allclose(c_ref, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(16, 16, 16), std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 33, 129), std::make_tuple(1, 128, 1),
                      std::make_tuple(100, 1, 300),
                      std::make_tuple(70, 90, 260)));

TEST(Gemm, BetaZeroOverwritesGarbage) {
  Rng rng(1);
  const Tensor a = Tensor::randn({4, 4}, rng);
  const Tensor b = Tensor::randn({4, 4}, rng);
  Tensor c({4, 4}, std::numeric_limits<float>::quiet_NaN());
  sgemm(4, 4, 4, a.data(), b.data(), 0.0f, c.data());
  for (std::int64_t i = 0; i < c.size(); ++i) {
    EXPECT_FALSE(std::isnan(c[i]));
  }
}

TEST(Gemm, EmptyKLeavesScaledC) {
  Tensor c({2, 2}, 4.0f);
  sgemm(2, 2, 0, nullptr, nullptr, 0.5f, c.data());
  for (std::int64_t i = 0; i < c.size(); ++i) EXPECT_FLOAT_EQ(c[i], 2.0f);
}

// ---- im2col / col2im ----

TEST(Im2col, IdentityKernelReproducesImage) {
  Rng rng(2);
  const Tensor img = Tensor::randn({1, 4, 4}, rng);
  Tensor cols({1 * 1 * 1, 16});
  im2col(img.data(), 1, 4, 4, 1, 1, 0, 1, cols.data());
  for (std::int64_t i = 0; i < 16; ++i) EXPECT_EQ(cols[i], img[i]);
}

TEST(Im2col, KnownPatch) {
  // 3×3 image, 2×2 kernel, no pad, stride 1 → 2×2 output, 4 columns.
  Tensor img({1, 3, 3}, {0, 1, 2, 3, 4, 5, 6, 7, 8});
  Tensor cols({4, 4});
  im2col(img.data(), 1, 3, 3, 2, 2, 0, 1, cols.data());
  // Row 0 is kernel element (0,0) over the 4 output positions.
  EXPECT_EQ(cols.at(0, 0), 0.0f);
  EXPECT_EQ(cols.at(0, 1), 1.0f);
  EXPECT_EQ(cols.at(0, 2), 3.0f);
  EXPECT_EQ(cols.at(0, 3), 4.0f);
  // Row 3 is kernel element (1,1).
  EXPECT_EQ(cols.at(3, 0), 4.0f);
  EXPECT_EQ(cols.at(3, 3), 8.0f);
}

TEST(Im2col, ZeroPaddingFillsBorders) {
  Tensor img({1, 2, 2}, {1, 2, 3, 4});
  const std::int64_t out = conv_out_extent(2, 3, 1, 1);  // = 2
  Tensor cols({9, out * out});
  im2col(img.data(), 1, 2, 2, 3, 3, 1, 1, cols.data());
  // Kernel element (0,0) at output (0,0) reads image (-1,-1) → 0.
  EXPECT_EQ(cols.at(0, 0), 0.0f);
  // Kernel element (1,1) at output (0,0) reads image (0,0) → 1.
  EXPECT_EQ(cols.at(4, 0), 1.0f);
}

class Im2colAdjoint
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(Im2colAdjoint, DotProductIdentity) {
  // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property that
  // makes the conv backward pass correct.
  const auto [channels, size, kernel, pad] = GetParam();
  Rng rng(size * 10 + kernel);
  const std::int64_t out = conv_out_extent(size, kernel, pad, 1);
  ASSERT_GT(out, 0);
  const std::int64_t rows = channels * kernel * kernel;

  const Tensor x = Tensor::randn({channels, size, size}, rng);
  const Tensor y = Tensor::randn({rows, out * out}, rng);

  Tensor cols({rows, out * out});
  im2col(x.data(), channels, size, size, kernel, kernel, pad, 1, cols.data());
  Tensor back({channels, size, size});
  col2im(y.data(), channels, size, size, kernel, kernel, pad, 1, back.data());

  double lhs = 0.0;
  for (std::int64_t i = 0; i < cols.size(); ++i) {
    lhs += static_cast<double>(cols[i]) * y[i];
  }
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.size(); ++i) {
    rhs += static_cast<double>(x[i]) * back[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::abs(lhs)));
}

INSTANTIATE_TEST_SUITE_P(
    AdjointSweep, Im2colAdjoint,
    ::testing::Values(std::make_tuple(1, 5, 3, 0), std::make_tuple(2, 8, 5, 0),
                      std::make_tuple(3, 6, 3, 1),
                      std::make_tuple(1, 10, 5, 2)));

TEST(ConvOutExtent, Formula) {
  EXPECT_EQ(conv_out_extent(65, 5, 0, 1), 61);
  EXPECT_EQ(conv_out_extent(28, 5, 2, 1), 28);
  EXPECT_EQ(conv_out_extent(10, 3, 0, 2), 4);
}

}  // namespace
}  // namespace sne
