// First-order optimizers. The paper trains with Adam at lr=1e-3 (§7).
#pragma once

#include <unordered_map>
#include <vector>

#include "autograd/variable.hpp"
#include "util/serialize.hpp"

namespace pp::nn {

using autograd::Variable;
using tensor::Matrix;

class Optimizer {
 public:
  explicit Optimizer(std::vector<Variable> params)
      : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  /// Applies one update from the accumulated gradients. Parameters without
  /// gradients are skipped.
  virtual void step() = 0;

  void zero_grad() {
    for (auto& p : params_) p.zero_grad();
  }

  const std::vector<Variable>& params() const { return params_; }

 protected:
  std::vector<Variable> params_;
};

struct AdamConfig {
  double learning_rate = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  double weight_decay = 0.0;  // decoupled (AdamW-style) when > 0
};

class Adam final : public Optimizer {
 public:
  Adam(std::vector<Variable> params, AdamConfig config = {});
  void step() override;

  std::size_t step_count() const { return t_; }

  /// (De)serializes the optimizer *state* — step count and both moment
  /// estimates — so an incremental trainer can persist Adam across process
  /// restarts and resume bit-identically. The parameter values themselves
  /// are not included (Module::serialize owns those); deserialize validates
  /// the moment shapes against this instance's parameter layout.
  void serialize(BinaryWriter& writer) const;
  void deserialize(BinaryReader& reader);

 private:
  AdamConfig config_;
  std::size_t t_ = 0;
  std::vector<Matrix> m_;  // first-moment estimates, aligned with params_
  std::vector<Matrix> v_;  // second-moment estimates
};

}  // namespace pp::nn
