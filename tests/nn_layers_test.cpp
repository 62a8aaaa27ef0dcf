// nn_layers_test.cpp — forward-pass semantics of every layer: shapes,
// hand-computed values, mode switching, and parameter bookkeeping.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "nn/nn.h"

namespace sne::nn {
namespace {

TEST(Linear, KnownValues) {
  Rng rng(1);
  Linear layer(2, 2, rng);
  // W = [[1, 2], [3, 4]], b = [10, 20].
  layer.weight().value = Tensor({2, 2}, {1, 2, 3, 4});
  layer.bias().value = Tensor({2}, {10, 20});
  const Tensor y = layer.forward(Tensor({1, 2}, {5, 6}));
  EXPECT_FLOAT_EQ(y.at(0, 0), 1 * 5 + 2 * 6 + 10);
  EXPECT_FLOAT_EQ(y.at(0, 1), 3 * 5 + 4 * 6 + 20);
}

TEST(Linear, BatchShape) {
  Rng rng(2);
  Linear layer(8, 3, rng);
  const Tensor y = layer.forward(Tensor::randn({7, 8}, rng));
  EXPECT_EQ(y.shape(), (Shape{7, 3}));
}

TEST(Linear, RejectsWrongWidth) {
  Rng rng(3);
  Linear layer(4, 2, rng);
  EXPECT_THROW(layer.forward(Tensor({1, 5})), std::invalid_argument);
}

TEST(Linear, BackwardBeforeForwardThrows) {
  Rng rng(3);
  Linear layer(4, 2, rng);
  EXPECT_THROW(layer.backward(Tensor({1, 2})), std::logic_error);
}

TEST(Linear, ParamCountAndZeroGrad) {
  Rng rng(4);
  Linear layer(10, 5, rng);
  EXPECT_EQ(layer.num_params(), 10 * 5 + 5);
  layer.forward(Tensor::randn({2, 10}, rng));
  layer.backward(Tensor::randn({2, 5}, rng));
  float grad_norm = 0.0f;
  for (Param* p : layer.params()) grad_norm += p->grad.l2_norm();
  EXPECT_GT(grad_norm, 0.0f);
  layer.zero_grad();
  for (Param* p : layer.params()) EXPECT_FLOAT_EQ(p->grad.l2_norm(), 0.0f);
}

TEST(Conv2d, OutputShape) {
  Rng rng(5);
  Conv2d conv(2, 4, 3, rng);
  const Tensor y = conv.forward(Tensor::randn({3, 2, 8, 8}, rng));
  EXPECT_EQ(y.shape(), (Shape{3, 4, 6, 6}));
}

TEST(Conv2d, PaddedSameShape) {
  Rng rng(6);
  Conv2d conv(1, 1, 3, rng, 1, 1);
  const Tensor y = conv.forward(Tensor::randn({1, 1, 5, 5}, rng));
  EXPECT_EQ(y.shape(), (Shape{1, 1, 5, 5}));
}

TEST(Conv2d, IdentityKernel) {
  Rng rng(7);
  Conv2d conv(1, 1, 1, rng);
  conv.params()[0]->value = Tensor({1, 1}, {2.0f});  // weight
  conv.params()[1]->value = Tensor({1}, {1.0f});     // bias
  const Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor y = conv.forward(x);
  EXPECT_TRUE(y.allclose(Tensor({1, 1, 2, 2}, {3, 5, 7, 9})));
}

TEST(Conv2d, AveragingKernel) {
  Rng rng(8);
  Conv2d conv(1, 1, 2, rng);
  conv.params()[0]->value = Tensor({1, 4}, 0.25f);
  conv.params()[1]->value.zero();
  const Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 2.5f);
}

TEST(Conv2d, KernelLargerThanInputThrows) {
  Rng rng(9);
  Conv2d conv(1, 1, 5, rng);
  EXPECT_THROW(conv.forward(Tensor({1, 1, 3, 3})), std::invalid_argument);
}

TEST(MaxPool2d, SelectsMaxima) {
  MaxPool2d pool(2);
  const Tensor x({1, 1, 4, 4},
                 {1, 2, 0, 0, 3, 4, 0, 9, 0, 0, 5, 6, 0, 1, 7, 8});
  const Tensor y = pool.forward(x);
  EXPECT_TRUE(y.allclose(Tensor({1, 1, 2, 2}, {4, 9, 1, 8})));
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  const Tensor x({1, 1, 2, 2}, {1, 5, 2, 3});
  pool.forward(x);
  const Tensor gx = pool.backward(Tensor({1, 1, 1, 1}, {10.0f}));
  EXPECT_TRUE(gx.allclose(Tensor({1, 1, 2, 2}, {0, 10, 0, 0})));
}

TEST(MaxPool2d, NanWindowKeepsGradientInsideWindow) {
  // Regression: best_idx used to start at global element 0, so a window
  // with no element comparing > -inf (all NaN) routed its gradient to the
  // first element of the *first sample* — a cross-sample leak.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  MaxPool2d pool(2);
  // Sample 0 is finite; sample 1's only window is all-NaN.
  const Tensor x({2, 1, 2, 2}, {1, 2, 3, 4, nan, nan, nan, nan});
  const Tensor y = pool.forward(x);
  EXPECT_FLOAT_EQ(y[0], 4.0f);
  EXPECT_TRUE(std::isnan(y[1]));
  const Tensor gx = pool.backward(Tensor({2, 1, 1, 1}, {10.0f, 20.0f}));
  // Sample 0's gradient lands on its own argmax, with no foreign 20 added.
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[3], 10.0f);
  // Sample 1's gradient stays inside sample 1 (routed to its first
  // window element).
  EXPECT_FLOAT_EQ(gx[4], 20.0f);
  EXPECT_FLOAT_EQ(gx[5], 0.0f);
}

TEST(MaxPool2d, NanCandidatesAreSkipped) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  MaxPool2d pool(2);
  // NaN in the window (including the seed position) never wins; the max
  // over the finite elements is selected.
  const Tensor x({1, 1, 2, 4}, {nan, 2, 5, nan, 1, 2, 3, 4});
  const Tensor y = pool.forward(x);
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  EXPECT_FLOAT_EQ(y[1], 5.0f);
  const Tensor gx = pool.backward(Tensor({1, 1, 1, 2}, {7.0f, 9.0f}));
  EXPECT_FLOAT_EQ(gx[1], 7.0f);
  EXPECT_FLOAT_EQ(gx[2], 9.0f);
}

TEST(AvgPool2d, Averages) {
  AvgPool2d pool(2);
  const Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor y = pool.forward(x);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  const Tensor gx = pool.backward(Tensor({1, 1, 1, 1}, {4.0f}));
  EXPECT_TRUE(gx.allclose(Tensor({1, 1, 2, 2}, {1, 1, 1, 1})));
}

TEST(PReLU, PositivePassThroughNegativeScaled) {
  PReLU act(2, 0.5f);
  const Tensor x({1, 2}, {3.0f, -4.0f});
  const Tensor y = act.forward(x);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[1], -2.0f);
}

TEST(PReLU, PerChannelSlopes) {
  PReLU act(2, 0.0f);
  act.params()[0]->value = Tensor({2}, {0.1f, 0.9f});
  const Tensor x({1, 2, 1, 1}, {-10.0f, -10.0f});
  const Tensor y = act.forward(x);
  EXPECT_FLOAT_EQ(y[0], -1.0f);
  EXPECT_FLOAT_EQ(y[1], -9.0f);
}

TEST(PReLU, InferIntoMatchesForwardBitwise) {
  // [N, C] rows (the FC-stage PReLU, one value per channel) and [N, C, H, W]
  // planes, over NaN, ±0, ±Inf and subnormal inputs and per-channel slopes.
  for (const Shape& shape : {Shape{37, 32}, Shape{1, 3}, Shape{5, 4, 3, 7}}) {
    const std::int64_t channels = shape[1];
    PReLU act(channels, 0.25f);
    Rng rng(static_cast<std::uint64_t>(channels * 131 + shape[0]));
    act.params()[0]->value =
        Tensor::rand_uniform({channels}, rng, -0.5f, 1.5f);
    Tensor x = Tensor::randn(shape, rng);
    const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                              -std::numeric_limits<float>::quiet_NaN(),
                              0.0f,
                              -0.0f,
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              -1e-40f,
                              1e-40f};
    for (std::int64_t i = 0; i < x.size(); i += 3) {
      x[i] = specials[static_cast<std::size_t>(i / 3) % 8];
    }
    const Tensor want = act.forward(x);
    Tensor got;
    act.infer_into(x, got);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          sizeof(float) * static_cast<std::size_t>(got.size())),
              0)
        << got.shape_string();
  }
}

TEST(ReLU, ClampsNegatives) {
  ReLU act;
  const Tensor y = act.forward(Tensor({1, 3}, {-1, 0, 2}));
  EXPECT_TRUE(y.allclose(Tensor({1, 3}, {0, 0, 2})));
}

TEST(Sigmoid, KnownValues) {
  Sigmoid act;
  const Tensor y = act.forward(Tensor({1, 2}, {0.0f, 100.0f}));
  EXPECT_FLOAT_EQ(y[0], 0.5f);
  EXPECT_NEAR(y[1], 1.0f, 1e-6f);
}

TEST(Tanh, OddFunction) {
  Tanh act;
  const Tensor y = act.forward(Tensor({1, 2}, {1.5f, -1.5f}));
  EXPECT_FLOAT_EQ(y[0], -y[1]);
  EXPECT_NEAR(y[0], std::tanh(1.5f), 1e-6f);
}

TEST(Flatten, CollapsesTrailingAxes) {
  Flatten flat;
  Rng rng(10);
  const Tensor y = flat.forward(Tensor::randn({2, 3, 4, 5}, rng));
  EXPECT_EQ(y.shape(), (Shape{2, 60}));
  const Tensor gx = flat.backward(y);
  EXPECT_EQ(gx.shape(), (Shape{2, 3, 4, 5}));
}

TEST(BatchNorm2d, NormalizesTrainingBatch) {
  BatchNorm2d bn(1);
  Rng rng(11);
  const Tensor x = Tensor::randn({8, 1, 4, 4}, rng, 5.0f, 3.0f);
  const Tensor y = bn.forward(x);
  EXPECT_NEAR(y.mean(), 0.0f, 1e-4f);
  double var = 0.0;
  for (std::int64_t i = 0; i < y.size(); ++i) {
    var += static_cast<double>(y[i]) * y[i];
  }
  EXPECT_NEAR(var / y.size(), 1.0, 1e-2);
}

TEST(BatchNorm2d, RunningStatsConvergeAndDriveEval) {
  BatchNorm2d bn(1, 0.5f);
  Rng rng(12);
  for (int i = 0; i < 30; ++i) {
    bn.forward(Tensor::randn({16, 1, 3, 3}, rng, 2.0f, 1.0f));
  }
  EXPECT_NEAR(bn.buffers()[0]->value[0], 2.0f, 0.2f);  // running mean
  EXPECT_NEAR(bn.buffers()[1]->value[0], 1.0f, 0.3f);  // running var

  bn.set_training(false);
  const Tensor x({1, 1, 1, 1}, {2.0f});
  const Tensor y = bn.forward(x);
  EXPECT_NEAR(y[0], 0.0f, 0.25f);  // ≈ (2 − running_mean)/√running_var
}

TEST(BatchNorm1d, GammaBetaApply) {
  BatchNorm1d bn(2);
  bn.params()[0]->value = Tensor({2}, {2.0f, 1.0f});  // gamma
  bn.params()[1]->value = Tensor({2}, {0.0f, 7.0f});  // beta
  Rng rng(13);
  const Tensor y = bn.forward(Tensor::randn({64, 2}, rng));
  // Column 1 is normalized to ~N(0,1) then shifted by beta=7.
  double col1 = 0.0;
  for (std::int64_t i = 0; i < 64; ++i) col1 += y.at(i, 1);
  EXPECT_NEAR(col1 / 64.0, 7.0, 1e-3);
}

TEST(Highway, GateClosedPassesInput) {
  Rng rng(14);
  Highway hw(4, rng, -100.0f);  // transform gate ≈ 0 everywhere
  const Tensor x = Tensor::randn({3, 4}, rng);
  const Tensor y = hw.forward(x);
  EXPECT_TRUE(y.allclose(x, 1e-4f));
}

TEST(Highway, DefaultBiasNearIdentity) {
  Rng rng(15);
  Highway hw(8, rng);  // bias −1: mostly carry
  const Tensor x = Tensor::randn({4, 8}, rng);
  const Tensor y = hw.forward(x);
  // Should be closer to x than to zero.
  EXPECT_LT((y - x).l2_norm(), x.l2_norm());
}

TEST(Sequential, ComposesAndCollectsParams) {
  Rng rng(16);
  Sequential net;
  net.emplace<Linear>(4, 8, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(8, 2, rng);
  EXPECT_EQ(net.params().size(), 4u);
  const Tensor y = net.forward(Tensor::randn({5, 4}, rng));
  EXPECT_EQ(y.shape(), (Shape{5, 2}));
  const Tensor gx = net.backward(Tensor::randn({5, 2}, rng));
  EXPECT_EQ(gx.shape(), (Shape{5, 4}));
}

TEST(Sequential, TrainingModePropagates) {
  Rng rng(17);
  Sequential net;
  auto& bn = net.emplace<BatchNorm1d>(3);
  net.set_training(false);
  EXPECT_FALSE(bn.is_training());
  net.set_training(true);
  EXPECT_TRUE(bn.is_training());
}

TEST(Gru, OutputShapeAndDeterminism) {
  Rng rng(18);
  Gru gru(4, 6, rng);
  const Tensor x = Tensor::randn({3, 5, 4}, rng);
  const Tensor h1 = gru.forward(x);
  const Tensor h2 = gru.forward(x);
  EXPECT_EQ(h1.shape(), (Shape{3, 6}));
  EXPECT_TRUE(h1.equals(h2));
}

TEST(Gru, LongerSequenceChangesState) {
  Rng rng(19);
  Gru gru(2, 4, rng);
  Tensor x1 = Tensor::randn({1, 1, 2}, rng);
  Tensor x2({1, 2, 2});
  std::copy(x1.data(), x1.data() + 2, x2.data());
  x2[2] = 1.0f;
  x2[3] = -1.0f;
  const Tensor h1 = gru.forward(x1);
  const Tensor h2 = gru.forward(x2);
  EXPECT_FALSE(h1.allclose(h2, 1e-6f));
}

TEST(Dropout, IdentityInEvalMode) {
  Dropout drop(0.5f);
  drop.set_training(false);
  Rng rng(20);
  const Tensor x = Tensor::randn({4, 8}, rng);
  EXPECT_TRUE(drop.forward(x).equals(x));
  EXPECT_TRUE(drop.backward(x).equals(x));
}

TEST(Dropout, DropsApproximatelyPFraction) {
  Dropout drop(0.3f);
  drop.set_training(true);
  const Tensor x({1, 10000}, 1.0f);
  const Tensor y = drop.forward(x);
  std::int64_t zeros = 0;
  for (std::int64_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(y[i], 1.0f / 0.7f, 1e-5f);  // inverted scaling
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.size(), 0.3, 0.02);
}

TEST(Dropout, ExpectedValuePreserved) {
  Dropout drop(0.5f);
  drop.set_training(true);
  const Tensor x({1, 20000}, 2.0f);
  const Tensor y = drop.forward(x);
  EXPECT_NEAR(y.mean(), 2.0f, 0.1f);
}

TEST(Dropout, BackwardUsesSameMask) {
  Dropout drop(0.5f);
  drop.set_training(true);
  const Tensor x({1, 64}, 1.0f);
  const Tensor y = drop.forward(x);
  const Tensor gy({1, 64}, 1.0f);
  const Tensor gx = drop.backward(gy);
  for (std::int64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(gx[i] == 0.0f, y[i] == 0.0f);
  }
}

TEST(Dropout, RejectsBadProbability) {
  EXPECT_THROW(Dropout(-0.1f), std::invalid_argument);
  EXPECT_THROW(Dropout(1.0f), std::invalid_argument);
}

TEST(Lstm, OutputShapeAndDeterminism) {
  Rng rng(21);
  Lstm lstm(4, 6, rng);
  const Tensor x = Tensor::randn({3, 5, 4}, rng);
  const Tensor h1 = lstm.forward(x);
  const Tensor h2 = lstm.forward(x);
  EXPECT_EQ(h1.shape(), (Shape{3, 6}));
  EXPECT_TRUE(h1.equals(h2));
}

TEST(Lstm, ForgetBiasStartsOpen) {
  // With the +1 forget bias the cell should retain state: a long sequence
  // of zero inputs keeps h near zero but bounded, no NaNs.
  Rng rng(22);
  Lstm lstm(2, 4, rng);
  const Tensor x({1, 30, 2});
  const Tensor h = lstm.forward(x);
  for (std::int64_t i = 0; i < h.size(); ++i) {
    EXPECT_TRUE(std::isfinite(h[i]));
    EXPECT_LT(std::abs(h[i]), 1.0f);
  }
}

TEST(Lstm, TwelveParameterTensors) {
  Rng rng(23);
  Lstm lstm(3, 5, rng);
  EXPECT_EQ(lstm.params().size(), 12u);
  EXPECT_EQ(lstm.num_params(), 4 * (5 * 3 + 5 * 5 + 5));
}

// ---- losses ----

TEST(Loss, MseValueAndGrad) {
  const Tensor pred({2, 1}, {3.0f, 5.0f});
  const Tensor target({2, 1}, {1.0f, 5.0f});
  const LossResult r = mse_loss(pred, target);
  EXPECT_FLOAT_EQ(r.value, (4.0f + 0.0f) / 2.0f);
  EXPECT_FLOAT_EQ(r.grad[0], 2.0f * 2.0f / 2.0f);
  EXPECT_FLOAT_EQ(r.grad[1], 0.0f);
}

TEST(Loss, BceMatchesClosedForm) {
  const Tensor logits({1, 1}, {0.0f});
  const Tensor target({1, 1}, {1.0f});
  const LossResult r = bce_with_logits_loss(logits, target);
  EXPECT_NEAR(r.value, std::log(2.0f), 1e-6f);
  EXPECT_NEAR(r.grad[0], -0.5f, 1e-6f);
}

TEST(Loss, BceStableAtExtremeLogits) {
  const Tensor logits({2, 1}, {80.0f, -80.0f});
  const Tensor target({2, 1}, {1.0f, 0.0f});
  const LossResult r = bce_with_logits_loss(logits, target);
  EXPECT_GE(r.value, 0.0f);
  EXPECT_LT(r.value, 1e-6f);
  EXPECT_FALSE(std::isnan(r.grad[0]));
}

TEST(Loss, BinaryAccuracy) {
  const Tensor logits({4, 1}, {2.0f, -1.0f, 0.5f, -0.5f});
  const Tensor target({4, 1}, {1.0f, 0.0f, 0.0f, 1.0f});
  EXPECT_FLOAT_EQ(binary_accuracy(logits, target), 0.5f);
}

}  // namespace
}  // namespace sne::nn
