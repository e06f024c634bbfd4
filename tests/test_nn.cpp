#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "grad_check.hpp"
#include "core/check.hpp"
#include "core/parallel.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"

namespace alf {
namespace {

using testing::grad_check;
using testing::random_input;

constexpr double kTol = 2e-2;  // float32 finite differences

TEST(Activations, ParseNames) {
  EXPECT_EQ(parse_act("relu"), Act::kRelu);
  EXPECT_EQ(parse_act("none"), Act::kNone);
  EXPECT_EQ(parse_act("tanh"), Act::kTanh);
  EXPECT_EQ(parse_act("sigmoid"), Act::kSigmoid);
  EXPECT_THROW(parse_act("gelu"), CheckError);
}

TEST(Activations, ForwardValues) {
  Tensor x({4}, {-2.0f, -0.5f, 0.0f, 1.5f});
  Tensor r = act_forward(Act::kRelu, x);
  EXPECT_FLOAT_EQ(r.at(0), 0.0f);
  EXPECT_FLOAT_EQ(r.at(3), 1.5f);
  Tensor t = act_forward(Act::kTanh, x);
  EXPECT_NEAR(t.at(3), std::tanh(1.5), 1e-6);
  Tensor s = act_forward(Act::kSigmoid, x);
  EXPECT_NEAR(s.at(2), 0.5, 1e-6);
  Tensor n = act_forward(Act::kNone, x);
  EXPECT_FLOAT_EQ(n.at(1), -0.5f);
}

class ActivationGrad : public ::testing::TestWithParam<Act> {};

TEST_P(ActivationGrad, MatchesFiniteDifference) {
  Rng rng(42);
  Activation layer("act", GetParam());
  Tensor x = random_input({2, 3, 4, 4}, rng);
  // Shift away from ReLU's kink at zero for numeric stability.
  for (size_t i = 0; i < x.numel(); ++i)
    if (std::abs(x.at(i)) < 0.05f) x.at(i) += 0.1f;
  auto res = grad_check(layer, x, rng);
  EXPECT_LT(res.max_rel_err, kTol);
}

INSTANTIATE_TEST_SUITE_P(All, ActivationGrad,
                         ::testing::Values(Act::kNone, Act::kRelu, Act::kTanh,
                                           Act::kSigmoid));

struct ConvCase {
  size_t n, ci, h, w, co, k, stride, pad;
};

class ConvGrad : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGrad, MatchesFiniteDifference) {
  const ConvCase& c = GetParam();
  Rng rng(c.ci * 100 + c.co * 10 + c.k);
  Conv2d layer("conv", c.ci, c.co, c.k, c.stride, c.pad, Init::kHe, rng);
  Tensor x = random_input({c.n, c.ci, c.h, c.w}, rng);
  auto res = grad_check(layer, x, rng);
  EXPECT_LT(res.max_rel_err, kTol);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGrad,
    ::testing::Values(ConvCase{1, 2, 5, 5, 3, 3, 1, 1},
                      ConvCase{2, 3, 6, 6, 4, 3, 2, 1},
                      ConvCase{1, 4, 4, 4, 2, 1, 1, 0},
                      ConvCase{1, 1, 7, 5, 2, 3, 2, 0},
                      ConvCase{2, 2, 8, 8, 2, 5, 1, 2}));

TEST(Conv2d, OutputShape) {
  Rng rng(1);
  Conv2d conv("c", 3, 8, 3, 2, 1, Init::kHe, rng);
  Tensor x({2, 3, 32, 32});
  Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 8, 16, 16}));
}

TEST(Conv2d, KnownValue) {
  // Single 2x2 input, 2x2 kernel of ones, no pad: output = sum of inputs.
  Rng rng(1);
  Conv2d conv("c", 1, 1, 2, 1, 0, Init::kHe, rng);
  conv.weight().value.fill(1.0f);
  Tensor x({1, 1, 2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y.at(0), 10.0f);
}

TEST(Conv2d, BackwardIsReproducibleAcrossRunsAndThreadCounts) {
  // The weight gradient is summed over a fixed split of the batch, part
  // by part in part order, so its bits depend neither on which worker
  // finishes first nor on how many workers there are.
  Rng rng(5);
  const ConvGeom g{8, 10, 10, 3, 1, 1};
  constexpr size_t kOut = 16, kN = 16;
  const Tensor x = random_input({kN, g.in_c, g.in_h, g.in_w}, rng);
  const Tensor w = random_input({kOut, g.col_rows()}, rng);
  const Tensor gout = random_input({kN, kOut, g.out_h(), g.out_w()}, rng);
  const auto same = [](const Tensor& a, const Tensor& b) {
    return a.numel() == b.numel() &&
           std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
  };
  set_parallel_threads(4);
  Tensor gw0(w.shape());
  const Tensor gx0 = conv2d_backward(x, w, g, kOut, gout, &gw0);
  for (int rep = 0; rep < 20; ++rep) {
    Tensor gw(w.shape());
    const Tensor gx = conv2d_backward(x, w, g, kOut, gout, &gw);
    EXPECT_TRUE(same(gw, gw0)) << "grad_w, repeat " << rep;
    EXPECT_TRUE(same(gx, gx0)) << "grad_x, repeat " << rep;
  }
  for (const int threads : {1, 2, 4}) {
    set_parallel_threads(threads);
    Tensor gw(w.shape());
    const Tensor gx = conv2d_backward(x, w, g, kOut, gout, &gw);
    EXPECT_TRUE(same(gw, gw0)) << "grad_w, " << threads << " threads";
    EXPECT_TRUE(same(gx, gx0)) << "grad_x, " << threads << " threads";
  }
  set_parallel_threads(0);
}

TEST(BatchNorm, NormalizesBatch) {
  Rng rng(3);
  BatchNorm2d bn("bn", 4);
  Tensor x = random_input({4, 4, 5, 5}, rng);
  Tensor y = bn.forward(x, /*train=*/true);
  // Per-channel mean ~0, var ~1 after normalization (gamma=1, beta=0).
  const size_t hw = 25, n = 4, c = 4;
  for (size_t ch = 0; ch < c; ++ch) {
    double s = 0.0, sq = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const float* p = y.data() + (i * c + ch) * hw;
      for (size_t j = 0; j < hw; ++j) {
        s += p[j];
        sq += p[j] * p[j];
      }
    }
    const double mean = s / (n * hw);
    const double var = sq / (n * hw) - mean * mean;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, EvalUsesRunningStats) {
  Rng rng(4);
  BatchNorm2d bn("bn", 2);
  Tensor x = random_input({8, 2, 4, 4}, rng);
  for (int i = 0; i < 50; ++i) bn.forward(x, /*train=*/true);
  Tensor ytrain = bn.forward(x, /*train=*/true);
  Tensor yeval = bn.forward(x, /*train=*/false);
  // After many identical batches the running stats converge to the batch
  // stats, so eval output approaches train output.
  double max_diff = 0.0;
  for (size_t i = 0; i < yeval.numel(); ++i)
    max_diff = std::max(max_diff,
                        std::abs(static_cast<double>(yeval.at(i)) -
                                 ytrain.at(i)));
  EXPECT_LT(max_diff, 0.05);
}

TEST(BatchNorm, GradMatchesFiniteDifference) {
  Rng rng(5);
  BatchNorm2d bn("bn", 3);
  Tensor x = random_input({3, 3, 4, 4}, rng);
  auto res = grad_check(bn, x, rng, /*eps=*/5e-3f);
  EXPECT_LT(res.max_rel_err, 5e-2);
}

TEST(BatchNorm, NoDecayOnScaleShift) {
  Rng rng(6);
  BatchNorm2d bn("bn", 2);
  for (Param* p : bn.params()) EXPECT_FALSE(p->decay);
}

TEST(Linear, GradMatchesFiniteDifference) {
  Rng rng(7);
  Linear fc("fc", 6, 4, Init::kXavier, rng);
  Tensor x = random_input({3, 6}, rng);
  auto res = grad_check(fc, x, rng);
  EXPECT_LT(res.max_rel_err, kTol);
}

TEST(Linear, BiasApplied) {
  Rng rng(8);
  Linear fc("fc", 2, 2, Init::kXavier, rng);
  fc.weight().value.fill(0.0f);
  fc.bias().value = Tensor({2}, {1.5f, -2.0f});
  Tensor x({1, 2}, {3.0f, 4.0f});
  Tensor y = fc.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), -2.0f);
}

TEST(Flatten, RoundTrip) {
  Flatten f("fl");
  Tensor x({2, 3, 4, 5});
  Tensor y = f.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 60}));
  Tensor gx = f.backward(y);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(GlobalAvgPool, AveragesAndBackprops) {
  Rng rng(9);
  GlobalAvgPool gap("gap");
  Tensor x({1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  Tensor y = gap.forward(x, true);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y.at4(0, 1, 0, 0), 25.0f);
  auto res = grad_check(gap, testing::random_input({2, 3, 4, 4}, rng), rng);
  EXPECT_LT(res.max_rel_err, kTol);
}

TEST(MaxPool, SelectsMaxAndRoutesGrad) {
  MaxPool2d mp("mp", 2);
  Tensor x({1, 1, 2, 2}, {1.0f, 5.0f, 3.0f, 2.0f});
  Tensor y = mp.forward(x, true);
  EXPECT_FLOAT_EQ(y.at(0), 5.0f);
  Tensor g({1, 1, 1, 1}, {2.0f});
  Tensor gx = mp.backward(g);
  EXPECT_FLOAT_EQ(gx.at(1), 2.0f);  // grad goes to the max position
  EXPECT_FLOAT_EQ(gx.at(0), 0.0f);
}

TEST(MaxPool, GradMatchesFiniteDifference) {
  Rng rng(10);
  MaxPool2d mp("mp", 2);
  Tensor x = random_input({2, 2, 4, 4}, rng);
  auto res = grad_check(mp, x, rng, /*eps=*/1e-3f);
  EXPECT_LT(res.max_rel_err, 5e-2);
}

TEST(Sequential, ComposesAndBackprops) {
  Rng rng(11);
  Sequential seq("s");
  seq.emplace<Conv2d>("c1", 2, 3, 3, 1, 1, Init::kHe, rng);
  seq.emplace<Activation>("r", Act::kTanh);  // smooth: reliable FD check
  seq.emplace<Conv2d>("c2", 3, 2, 3, 1, 1, Init::kHe, rng);
  Tensor x = random_input({1, 2, 5, 5}, rng);
  auto res = grad_check(seq, x, rng);
  EXPECT_LT(res.max_rel_err, 6e-2);
  EXPECT_EQ(seq.params().size(), 2u);
}

TEST(Residual, IdentityShortcutGrad) {
  Rng rng(12);
  auto body = std::make_unique<Sequential>("body");
  body->emplace<Conv2d>("c1", 2, 2, 3, 1, 1, Init::kHe, rng);
  ResidualBlock block("res", std::move(body), nullptr);
  Tensor x = random_input({1, 2, 4, 4}, rng);
  auto res = grad_check(block, x, rng);
  EXPECT_LT(res.max_rel_err, 6e-2);
}

TEST(Residual, ProjectionShortcutShape) {
  Rng rng(13);
  auto body = std::make_unique<Sequential>("body");
  body->emplace<Conv2d>("c1", 2, 4, 3, 2, 1, Init::kHe, rng);
  auto sc = std::make_unique<Sequential>("sc");
  sc->emplace<Conv2d>("proj", 2, 4, 1, 2, 0, Init::kHe, rng);
  ResidualBlock block("res", std::move(body), std::move(sc));
  Tensor x = random_input({1, 2, 6, 6}, rng);
  Tensor y = block.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 4, 3, 3}));
}

TEST(Residual, OutputIsNonNegative) {
  Rng rng(14);
  auto body = std::make_unique<Sequential>("body");
  body->emplace<Conv2d>("c1", 2, 2, 3, 1, 1, Init::kHe, rng);
  ResidualBlock block("res", std::move(body), nullptr);
  Tensor y = block.forward(random_input({1, 2, 4, 4}, rng), false);
  for (size_t i = 0; i < y.numel(); ++i) EXPECT_GE(y.at(i), 0.0f);
}

TEST(Loss, PerfectPredictionLowLoss) {
  Tensor logits({2, 3});
  logits.at(0, 0) = 100.0f;
  logits.at(1, 2) = 100.0f;
  LossResult res = softmax_cross_entropy(logits, {0, 2});
  EXPECT_LT(res.loss, 1e-3);
  EXPECT_EQ(res.correct, 2u);
}

TEST(Loss, UniformLogitsGiveLogC) {
  Tensor logits({1, 10});
  LossResult res = softmax_cross_entropy(logits, {4});
  EXPECT_NEAR(res.loss, std::log(10.0), 1e-5);
}

TEST(Loss, GradientSumsToZeroPerRow) {
  Rng rng(15);
  Tensor logits = random_input({4, 5}, rng);
  LossResult res = softmax_cross_entropy(logits, {0, 1, 2, 3});
  for (size_t i = 0; i < 4; ++i) {
    double s = 0.0;
    for (size_t j = 0; j < 5; ++j) s += res.grad_logits.at(i, j);
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
}

TEST(Loss, GradientMatchesFiniteDifference) {
  Rng rng(16);
  Tensor logits = random_input({3, 4}, rng);
  const std::vector<int> labels{1, 3, 0};
  LossResult res = softmax_cross_entropy(logits, labels);
  const float eps = 1e-3f;
  for (size_t i = 0; i < logits.numel(); ++i) {
    const float orig = logits.at(i);
    logits.at(i) = orig + eps;
    const double lp = softmax_cross_entropy(logits, labels).loss;
    logits.at(i) = orig - eps;
    const double lm = softmax_cross_entropy(logits, labels).loss;
    logits.at(i) = orig;
    EXPECT_NEAR(res.grad_logits.at(i), (lp - lm) / (2 * eps), 1e-3);
  }
}

TEST(Loss, AccuracyCounts) {
  Tensor logits({2, 2});
  logits.at(0, 1) = 1.0f;  // predicts 1
  logits.at(1, 0) = 1.0f;  // predicts 0
  EXPECT_DOUBLE_EQ(accuracy(logits, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(accuracy(logits, {0, 1}), 0.0);
}

}  // namespace
}  // namespace alf
