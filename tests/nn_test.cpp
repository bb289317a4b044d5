#include <gtest/gtest.h>

#include "autograd/grad_check.hpp"
#include "autograd/ops.hpp"
#include "nn/cells.hpp"
#include "nn/linear.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"

namespace pp::nn {
namespace {

using autograd::backward;
using autograd::check_gradients;
using autograd::Variable;
using tensor::Matrix;

TEST(Linear, ForwardShapeAndInferEquivalence) {
  Rng rng(1);
  Linear layer(4, 3, rng);
  const Matrix x = Matrix::randn(2, 4, rng);
  Variable y = layer.forward(Variable(x));
  EXPECT_EQ(y.rows(), 2u);
  EXPECT_EQ(y.cols(), 3u);
  EXPECT_TRUE(y.value().approx_equal(layer.infer(x), 1e-6f));
}

TEST(Linear, GradientCheck) {
  Rng rng(2);
  Linear layer(3, 2, rng);
  const Matrix x = Matrix::randn(2, 3, rng);
  const auto result = check_gradients(layer.parameters(), [&] {
    return autograd::mean(layer.forward(Variable(x)));
  });
  EXPECT_TRUE(result.ok) << result.detail;
}

class CellEquivalence : public ::testing::TestWithParam<CellType> {};

TEST_P(CellEquivalence, GraphAndInferPathsAgree) {
  Rng rng(3);
  const auto cell = make_cell(GetParam(), 5, 4, rng);
  CellState graph_state = cell->initial_state(1);
  auto raw_state = cell->infer_initial_state(1);
  Rng data_rng(4);
  for (int step = 0; step < 10; ++step) {
    const Matrix x = Matrix::randn(1, 5, data_rng);
    graph_state = cell->step(graph_state, Variable(x));
    cell->infer_step(raw_state, x);
    for (std::size_t part = 0; part < raw_state.size(); ++part) {
      ASSERT_TRUE(
          graph_state[part].value().approx_equal(raw_state[part], 1e-5f))
          << to_string(GetParam()) << " step " << step << " part " << part;
    }
  }
}

TEST_P(CellEquivalence, GradientThroughThreeSteps) {
  Rng rng(5);
  const auto cell = make_cell(GetParam(), 3, 3, rng);
  Rng data_rng(6);
  std::vector<Matrix> inputs;
  for (int i = 0; i < 3; ++i) inputs.push_back(Matrix::randn(1, 3, data_rng));
  const auto result = check_gradients(cell->parameters(), [&] {
    CellState state = cell->initial_state(1);
    for (const auto& x : inputs) state = cell->step(state, Variable(x));
    return autograd::mean(state.front());
  });
  EXPECT_TRUE(result.ok) << to_string(GetParam()) << ": " << result.detail;
}

TEST_P(CellEquivalence, BoundedHiddenState) {
  // tanh/GRU hidden values must stay in (-1, 1); LSTM h = o * tanh(c) too.
  Rng rng(7);
  const auto cell = make_cell(GetParam(), 4, 6, rng);
  auto state = cell->infer_initial_state(1);
  Rng data_rng(8);
  for (int step = 0; step < 50; ++step) {
    cell->infer_step(state, Matrix::randn(1, 4, data_rng, 0.0f, 3.0f));
  }
  EXPECT_LE(state.front().max_abs(), 1.0f);
}

INSTANTIATE_TEST_SUITE_P(Cells, CellEquivalence,
                         ::testing::Values(CellType::kTanh, CellType::kGru,
                                           CellType::kLstm),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

TEST(Cells, OrthogonalInitProducesOrthonormalColumns) {
  Rng rng(9);
  const Matrix q = orthogonal_init(8, 8, rng);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double dot = 0;
      for (std::size_t r = 0; r < 8; ++r) dot += q.at(r, i) * q.at(r, j);
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-4) << i << "," << j;
    }
  }
}

TEST(Cells, StateParts) {
  Rng rng(10);
  EXPECT_EQ(make_cell(CellType::kGru, 2, 2, rng)->state_parts(), 1u);
  EXPECT_EQ(make_cell(CellType::kLstm, 2, 2, rng)->state_parts(), 2u);
}

TEST(Module, CopyAndAccumulateAcrossReplicas) {
  Rng rng(11);
  Linear master(3, 2, rng);
  Linear replica(3, 2, rng);
  EXPECT_FALSE(
      master.parameters()[0].value().approx_equal(
          replica.parameters()[0].value(), 1e-9f));
  replica.copy_parameters_from(master);
  EXPECT_TRUE(master.parameters()[0].value().approx_equal(
      replica.parameters()[0].value(), 0.0f));

  // Gradients accumulate from replica into master.
  const Matrix x = Matrix::randn(1, 3, rng);
  backward(autograd::mean(replica.forward(Variable(x))));
  master.zero_grad();
  for (auto& p : master.parameters()) {
    const_cast<Variable&>(p).mutable_grad();  // materialize zero grads
  }
  replica.accumulate_grads_into(master);
  EXPECT_TRUE(master.parameters()[0].grad().approx_equal(
      replica.parameters()[0].grad(), 0.0f));
}

TEST(Module, SerializeRoundTripPreservesParameters) {
  Rng rng(12);
  MlpConfig config{.input_size = 4, .hidden_sizes = {5}, .output_size = 1};
  Mlp a(config, rng);
  Mlp b(config, rng);
  BinaryWriter writer;
  a.serialize(writer);
  BinaryReader reader(writer.take());
  b.deserialize(reader);
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i].value().approx_equal(pb[i].value(), 0.0f));
  }
}

TEST(Module, ParameterNamesAreQualified) {
  Rng rng(13);
  MlpConfig config{.input_size = 2, .hidden_sizes = {3}, .output_size = 1};
  Mlp mlp(config, rng);
  const auto names = mlp.parameter_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "hidden0.hidden0.weight");
  EXPECT_EQ(names[3], "output.output.bias");
}

TEST(ClipGradNorm, ScalesDownLargeGradients) {
  Variable p(Matrix(1, 4, 0.0f), true);
  p.mutable_grad() = Matrix(1, 4, 3.0f);  // norm = 6
  const double before = clip_grad_norm({p}, 1.5);
  EXPECT_NEAR(before, 6.0, 1e-6);
  EXPECT_NEAR(p.grad().norm(), 1.5, 1e-5);
  // Under the limit: untouched.
  const double second = clip_grad_norm({p}, 10.0);
  EXPECT_NEAR(second, 1.5, 1e-5);
  EXPECT_NEAR(p.grad().norm(), 1.5, 1e-5);
}

TEST(Adam, MinimizesQuadratic) {
  // f(w) = ||w - target||^2.
  Variable w(Matrix(1, 3, 0.0f), true);
  const Matrix target(1, 3, std::vector<float>{1.0f, -2.0f, 0.5f});
  Adam opt({w}, {.learning_rate = 0.05});
  for (int i = 0; i < 500; ++i) {
    opt.zero_grad();
    Variable diff = autograd::sub(Variable(w.node()), Variable(target));
    backward(autograd::sum(autograd::mul(diff, diff)));
    opt.step();
  }
  EXPECT_TRUE(w.value().approx_equal(target, 1e-2f));
}

TEST(Mlp, LearnsXor) {
  Rng rng(15);
  MlpConfig config{
      .input_size = 2, .hidden_sizes = {8}, .output_size = 1, .dropout = 0.0f};
  Mlp mlp(config, rng);
  const Matrix x(4, 2, std::vector<float>{0, 0, 0, 1, 1, 0, 1, 1});
  const Matrix y(4, 1, std::vector<float>{0, 1, 1, 0});
  const Matrix w(4, 1, 0.25f);
  Adam opt(mlp.parameters(), {.learning_rate = 0.05});
  for (int i = 0; i < 800; ++i) {
    opt.zero_grad();
    Variable logits = mlp.forward(Variable(x), rng);
    backward(autograd::bce_with_logits_sum(logits, y, w));
    opt.step();
  }
  mlp.set_training(false);
  Variable logits = mlp.forward(Variable(x), rng);
  EXPECT_LT(logits.value().at(0, 0), 0.0f);
  EXPECT_GT(logits.value().at(1, 0), 0.0f);
  EXPECT_GT(logits.value().at(2, 0), 0.0f);
  EXPECT_LT(logits.value().at(3, 0), 0.0f);
}

TEST(Mlp, InferMatchesForwardOutsideTraining) {
  Rng rng(9);
  MlpConfig config;
  config.input_size = 6;
  config.hidden_sizes = {8, 5};
  config.output_size = 2;
  config.dropout = 0.3f;  // identity at inference
  Mlp mlp(config, rng);
  mlp.set_training(false);

  const Matrix x = Matrix::randn(7, 6, rng);
  const Matrix via_graph = mlp.forward(Variable(x), rng).value();
  const Matrix via_infer = mlp.infer(x);
  EXPECT_TRUE(via_infer.approx_equal(via_graph, 1e-6f));

  // Batch transparency: scoring row-by-row equals the batched block.
  for (std::size_t r = 0; r < x.rows(); ++r) {
    Matrix row(1, x.cols());
    for (std::size_t c = 0; c < x.cols(); ++c) row[c] = x.at(r, c);
    const Matrix single = mlp.infer(row);
    for (std::size_t c = 0; c < single.cols(); ++c) {
      EXPECT_EQ(single.at(0, c), via_infer.at(r, c));
    }
  }
}

}  // namespace
}  // namespace pp::nn
