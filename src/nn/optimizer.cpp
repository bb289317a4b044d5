#include "nn/optimizer.hpp"

#include <cmath>

namespace pp::nn {

Adam::Adam(std::vector<Variable> params, AdamConfig config)
    : Optimizer(std::move(params)), config_(config) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(Matrix::zeros(p.rows(), p.cols()));
    v_.emplace_back(Matrix::zeros(p.rows(), p.cols()));
  }
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));
  const float b1 = static_cast<float>(config_.beta1);
  const float b2 = static_cast<float>(config_.beta2);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (!params_[i].has_grad()) continue;
    const Matrix& g = params_[i].grad();
    Matrix& value = params_[i].mutable_value();
    Matrix& m = m_[i];
    Matrix& v = v_[i];
    for (std::size_t j = 0; j < g.size(); ++j) {
      m[j] = b1 * m[j] + (1.0f - b1) * g[j];
      v[j] = b2 * v[j] + (1.0f - b2) * g[j] * g[j];
      const double m_hat = m[j] / bc1;
      const double v_hat = v[j] / bc2;
      double update =
          config_.learning_rate * m_hat / (std::sqrt(v_hat) + config_.epsilon);
      if (config_.weight_decay > 0) {
        update += config_.learning_rate * config_.weight_decay * value[j];
      }
      value[j] -= static_cast<float>(update);
    }
  }
}

void Adam::serialize(BinaryWriter& writer) const {
  writer.write_u64(static_cast<std::uint64_t>(t_));
  writer.write_u64(static_cast<std::uint64_t>(m_.size()));
  for (std::size_t i = 0; i < m_.size(); ++i) {
    m_[i].serialize(writer);
    v_[i].serialize(writer);
  }
}

void Adam::deserialize(BinaryReader& reader) {
  const std::uint64_t t = reader.read_u64();
  const std::uint64_t count = reader.read_u64();
  if (count != m_.size()) {
    throw std::runtime_error("Adam::deserialize: parameter count mismatch");
  }
  std::vector<Matrix> m, v;
  m.reserve(count);
  v.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    m.push_back(Matrix::deserialize(reader));
    v.push_back(Matrix::deserialize(reader));
    if (m.back().rows() != m_[i].rows() || m.back().cols() != m_[i].cols() ||
        v.back().rows() != v_[i].rows() || v.back().cols() != v_[i].cols()) {
      throw std::runtime_error("Adam::deserialize: moment shape mismatch");
    }
  }
  t_ = static_cast<std::size_t>(t);
  m_ = std::move(m);
  v_ = std::move(v);
}

}  // namespace pp::nn
