#include <gtest/gtest.h>

#include "autograd/grad_check.hpp"
#include "autograd/ops.hpp"
#include "util/rng.hpp"

namespace pp::autograd {
namespace {

using tensor::Matrix;

Variable param(std::size_t r, std::size_t c, Rng& rng) {
  return Variable(Matrix::randn(r, c, rng, 0.0f, 0.5f),
                  /*requires_grad=*/true);
}

/// Reduces any variable to a scalar through a fixed weighted sum so every
/// element's gradient path is distinct.
Variable weighted_sum(const Variable& v) {
  Matrix w(v.rows(), v.cols());
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = 0.1f * static_cast<float>(i + 1);
  }
  return sum(mul(v, Variable(std::move(w))));
}

// ---- per-op gradient checks (property-style over op kinds) ----

struct OpCase {
  const char* name;
  std::function<Variable(const Variable&, const Variable&)> build;
};

// gtest prints a parameter into the registered test name; without these the
// bytes of the name pointer and the std::function end up there, which differ
// on every run under ASLR.
void PrintTo(const OpCase& c, std::ostream* os) { *os << c.name; }

class BinaryOpGradient : public ::testing::TestWithParam<OpCase> {};

TEST_P(BinaryOpGradient, MatchesFiniteDifferences) {
  Rng rng(1234);
  Variable a = param(3, 4, rng);
  Variable b = param(3, 4, rng);
  const auto& build = GetParam().build;
  const auto result = check_gradients(
      {a, b}, [&] { return weighted_sum(build(a, b)); });
  EXPECT_TRUE(result.ok) << GetParam().name << ": " << result.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, BinaryOpGradient,
    ::testing::Values(
        OpCase{"add", [](const Variable& a, const Variable& b) {
                 return add(a, b);
               }},
        OpCase{"sub", [](const Variable& a, const Variable& b) {
                 return sub(a, b);
               }},
        OpCase{"mul", [](const Variable& a, const Variable& b) {
                 return mul(a, b);
               }},
        OpCase{"concat", [](const Variable& a, const Variable& b) {
                 return concat_cols(a, b);
               }}),
    [](const auto& info) { return info.param.name; });

struct UnaryCase {
  const char* name;
  std::function<Variable(const Variable&)> build;
};

void PrintTo(const UnaryCase& c, std::ostream* os) { *os << c.name; }

class UnaryOpGradient : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryOpGradient, MatchesFiniteDifferences) {
  Rng rng(77);
  Variable a = param(2, 5, rng);
  const auto& build = GetParam().build;
  const auto result =
      check_gradients({a}, [&] { return weighted_sum(build(a)); });
  EXPECT_TRUE(result.ok) << GetParam().name << ": " << result.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, UnaryOpGradient,
    ::testing::Values(
        UnaryCase{"sigmoid", [](const Variable& a) { return sigmoid(a); }},
        UnaryCase{"tanh", [](const Variable& a) { return tanh_op(a); }},
        UnaryCase{"scale",
                  [](const Variable& a) { return scale(a, -2.5f); }},
        UnaryCase{"add_scalar",
                  [](const Variable& a) { return add_scalar(a, 1.0f); }},
        UnaryCase{"one_minus",
                  [](const Variable& a) { return one_minus(a); }},
        UnaryCase{"slice_cols",
                  [](const Variable& a) { return slice_cols(a, 1, 3); }},
        UnaryCase{"slice_rows",
                  [](const Variable& a) { return slice_rows(a, 0, 1); }},
        UnaryCase{"mean", [](const Variable& a) { return mean(a); }}),
    [](const auto& info) { return info.param.name; });

TEST(Autograd, MatmulGradient) {
  Rng rng(5);
  Variable a = param(3, 4, rng);
  Variable b = param(4, 2, rng);
  const auto result = check_gradients(
      {a, b}, [&] { return weighted_sum(matmul(a, b)); });
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(Autograd, AddBroadcastGradient) {
  Rng rng(6);
  Variable x = param(4, 3, rng);
  Variable bias = param(1, 3, rng);
  const auto result = check_gradients(
      {x, bias}, [&] { return weighted_sum(add_broadcast(x, bias)); });
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(Autograd, ReluGradientAwayFromKink) {
  Rng rng(8);
  // Keep values away from 0 so finite differences are valid.
  Matrix v = Matrix::randn(3, 3, rng);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = v[i] >= 0 ? v[i] + 0.5f : v[i] - 0.5f;
  }
  Variable a(std::move(v), true);
  const auto result =
      check_gradients({a}, [&] { return weighted_sum(relu(a)); });
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(Autograd, BceWithLogitsGradientAndValue) {
  Rng rng(9);
  Variable z = param(1, 6, rng);
  Matrix labels(1, 6);
  Matrix weights(1, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    labels[i] = i % 2 == 0 ? 1.0f : 0.0f;
    weights[i] = i < 4 ? 1.0f : 0.0f;  // masked tail (the 21-day rule)
  }
  const auto result = check_gradients(
      {z}, [&] { return bce_with_logits_sum(z, labels, weights); });
  EXPECT_TRUE(result.ok) << result.detail;

  // Masked entries must contribute nothing.
  Variable z2(z.value(), true);
  Variable loss = bce_with_logits_sum(z2, labels, weights);
  backward(loss);
  EXPECT_EQ(z2.grad()[4], 0.0f);
  EXPECT_EQ(z2.grad()[5], 0.0f);
}

TEST(Autograd, DropoutInvertedScalingAndMask) {
  Rng rng(10);
  Variable a(Matrix::ones(1, 1000), true);
  Variable d = dropout(a, 0.25f, rng, /*training=*/true);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < d.value().size(); ++i) {
    const float v = d.value()[i];
    EXPECT_TRUE(v == 0.0f || std::fabs(v - 1.0f / 0.75f) < 1e-6);
    zeros += v == 0.0f ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 1000.0, 0.25, 0.05);
  // Identity in inference mode.
  Variable e = dropout(a, 0.25f, rng, /*training=*/false);
  EXPECT_EQ(&e.value(), &a.value());
}

TEST(Autograd, GradientAccumulatesAcrossUses) {
  // y = a*a elementwise; dy/da = 2a requires two accumulations via mul.
  Variable a(Matrix(1, 1, 3.0f), true);
  Variable y = mul(a, a);
  backward(sum(y));
  EXPECT_NEAR(a.grad()[0], 6.0f, 1e-5);
}

TEST(Autograd, BackwardRequiresScalarRoot) {
  Variable a(Matrix(2, 2, 1.0f), true);
  EXPECT_THROW(backward(a), std::invalid_argument);
}

TEST(Autograd, FreedGraphReleasesParents) {
  Variable a(Matrix(1, 1, 2.0f), true);
  Variable loss = sum(mul(a, a));
  backward(loss, /*free_graph=*/true);
  EXPECT_TRUE(loss.raw()->parents.empty());
}

TEST(Autograd, DeepChainBackwardDoesNotOverflowStack) {
  // A 20k-node chain exercises the iterative traversal and teardown.
  Variable a(Matrix(1, 4, 0.01f), true);
  Variable x = a;
  for (int i = 0; i < 20000; ++i) x = add_scalar(scale(x, 0.9999f), 1e-6f);
  Variable loss = sum(x);
  backward(loss);
  EXPECT_TRUE(a.has_grad());
  EXPECT_GT(a.grad()[0], 0.0f);
}

TEST(Autograd, ConstantsReceiveNoGradient) {
  Variable a(Matrix(1, 2, 1.0f), true);
  Variable c(Matrix(1, 2, 5.0f), false);
  Variable loss = sum(mul(a, c));
  backward(loss);
  EXPECT_TRUE(a.has_grad());
  EXPECT_FALSE(c.has_grad());
}

}  // namespace
}  // namespace pp::autograd
