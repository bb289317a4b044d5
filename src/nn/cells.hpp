// Recurrent cells for RNNupdate (§6.2): basic tanh, GRU, and LSTM. The
// paper evaluates all three and ships GRU; the cell type is a configuration
// knob on pp::models::RnnModel.
//
// State convention: a CellState is a small vector of [batch x hidden]
// matrices — one entry for tanh/GRU (h), two for LSTM (h, c). The first
// entry is always the externally visible hidden vector (the one persisted
// to the serving key-value store).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.hpp"
#include "nn/module.hpp"
#include "tensor/qgemm.hpp"
#include "util/rng.hpp"

namespace pp::nn {

using CellState = std::vector<Variable>;

enum class CellType { kTanh, kGru, kLstm };

/// Parses "tanh" / "gru" / "lstm" (throws on anything else).
CellType cell_type_from_string(const std::string& name);
const char* to_string(CellType type);

class RecurrentCell : public Module {
 public:
  /// Zero state for a batch of the given size.
  CellState initial_state(std::size_t batch) const;
  /// Number of state matrices (1 for tanh/GRU, 2 for LSTM).
  virtual std::size_t state_parts() const = 0;

  /// One recurrence step: consumes [batch x input] and the previous state,
  /// returns the next state. state.front() is the exposed hidden vector.
  virtual CellState step(const CellState& state, const Variable& x) const = 0;

  /// Tape-free step over raw matrices (serving path); mutates `state` in
  /// place. Must compute exactly what step() computes (tested for
  /// equivalence).
  virtual void infer_step(std::vector<Matrix>& state, const Matrix& x)
      const = 0;

  /// Zero raw state for a batch of the given size.
  std::vector<Matrix> infer_initial_state(std::size_t batch) const;

  std::size_t input_size() const { return input_size_; }
  std::size_t hidden_size() const { return hidden_size_; }

 protected:
  RecurrentCell(std::size_t input_size, std::size_t hidden_size)
      : input_size_(input_size), hidden_size_(hidden_size) {}

  std::size_t input_size_;
  std::size_t hidden_size_;
};

/// Factory: builds the requested cell type.
std::unique_ptr<RecurrentCell> make_cell(CellType type, std::size_t input_size,
                                         std::size_t hidden_size, Rng& rng);

/// h' = tanh(x Wx + h Wh + b).
class TanhCell final : public RecurrentCell {
 public:
  TanhCell(std::size_t input_size, std::size_t hidden_size, Rng& rng);
  std::size_t state_parts() const override { return 1; }
  CellState step(const CellState& state, const Variable& x) const override;
  void infer_step(std::vector<Matrix>& state, const Matrix& x) const override;

 private:
  Variable wx_;  // [input x hidden]
  Variable wh_;  // [hidden x hidden]
  Variable b_;   // [1 x hidden]
};

/// PyTorch-convention GRU:
///   r = sigmoid(x Wxr + bxr + h Whr + bhr)
///   z = sigmoid(x Wxz + bxz + h Whz + bhz)
///   n = tanh(x Wxn + bxn + r * (h Whn + bhn))
///   h' = (1 - z) * n + z * h
/// Gate weights are packed [input x 3*hidden] / [hidden x 3*hidden] in
/// (r, z, n) order so each step costs two matmuls.
class GruCell final : public RecurrentCell {
 public:
  GruCell(std::size_t input_size, std::size_t hidden_size, Rng& rng);
  std::size_t state_parts() const override { return 1; }
  CellState step(const CellState& state, const Variable& x) const override;
  void infer_step(std::vector<Matrix>& state, const Matrix& x) const override;

  // Gate weights exposed for the int8 serving replica (QuantizedGruCell).
  const Variable& wx() const { return wx_; }
  const Variable& wh() const { return wh_; }
  const Variable& bx() const { return bx_; }
  const Variable& bh() const { return bh_; }

 private:
  Variable wx_;  // [input x 3*hidden]
  Variable wh_;  // [hidden x 3*hidden]
  Variable bx_;  // [1 x 3*hidden]
  Variable bh_;  // [1 x 3*hidden]
};

/// Int8 serving replica of a GruCell (§9 single-byte hidden states scored
/// without an f32 round trip). Gate weights are quantized and packed once
/// at build (per-tensor symmetric QuantizedWeights); each step quantizes
/// the incoming f32 input row(s), runs both gate products on the int8
/// qgemm kernel — the stored int8 hidden state feeds its product
/// directly, no dequantized hidden matrix is ever formed for the GEMM —
/// applies the f32 gate nonlinearity elementwise, and re-encodes only the
/// updated hidden state.
class QuantizedGruCell {
 public:
  explicit QuantizedGruCell(const GruCell& cell);

  /// One recurrence step. `h` is the int8 hidden state ([B x hidden] plus
  /// its scale, exactly as stored in the serving KV tier) and is replaced
  /// in place by the re-quantized next state; the f32 next hidden is
  /// returned for a stacked layer's input. `x` is [B x input].
  tensor::Matrix infer_step(tensor::QuantizedMatrix& h,
                            const tensor::Matrix& x) const;

  std::size_t input_size() const { return input_size_; }
  std::size_t hidden_size() const { return hidden_size_; }

 private:
  std::size_t input_size_;
  std::size_t hidden_size_;
  tensor::QuantizedWeights wx_q_;  // int8 [input x 3*hidden]
  tensor::QuantizedWeights wh_q_;  // int8 [hidden x 3*hidden]
  Matrix bx_;                      // f32 [1 x 3*hidden]
  Matrix bh_;                      // f32 [1 x 3*hidden]
};

/// Standard LSTM with packed gates in (i, f, g, o) order and forget-gate
/// bias initialized to 1.
class LstmCell final : public RecurrentCell {
 public:
  LstmCell(std::size_t input_size, std::size_t hidden_size, Rng& rng);
  std::size_t state_parts() const override { return 2; }
  CellState step(const CellState& state, const Variable& x) const override;
  void infer_step(std::vector<Matrix>& state, const Matrix& x) const override;

 private:
  Variable wx_;  // [input x 4*hidden]
  Variable wh_;  // [hidden x 4*hidden]
  Variable b_;   // [1 x 4*hidden]
};

/// Random semi-orthogonal matrix via Gram-Schmidt on Gaussian columns;
/// standard initialization for hidden-to-hidden recurrent weights.
Matrix orthogonal_init(std::size_t rows, std::size_t cols, Rng& rng);

}  // namespace pp::nn
