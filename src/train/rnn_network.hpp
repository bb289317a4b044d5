// The paper's RNN architecture (Figure 3 / §6.2):
//
//   RNNupdate  — a recurrent cell (GRU by default) consuming
//                [f_i ; T(Δt_i) ; A_i] and the previous hidden state;
//   RNNpredict — latent cross h' = h_k ∘ (1 + L(x)) followed by a
//                one-hidden-layer MLP with dropout(0.2) and ReLU:
//                logit = b2 + W2 · ReLU(Dropout(b1 + W1 [h' ; x]))
//                where x = [f_i ; T(t_i − t_k)].
//
// Two execution paths are provided and tested for equivalence:
//  * graph_* methods build autograd graphs (training),
//  * infer_* methods run raw matrix kernels with no tape (serving), in f32
//    or int8 (the F32 / Int8 precision traits below); this is the path
//    whose cost the Section 9 benchmarks measure.
#pragma once

#include <cstring>
#include <memory>
#include <vector>

#include "nn/cells.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace pp::train {

using autograd::Variable;
using tensor::Matrix;

struct RnnNetworkConfig {
  /// Width of the per-session context feature vector f (one-hot context +
  /// hour/day-of-week), excluding the time-delta encoding.
  std::size_t feature_size = 0;
  /// Width of the T() one-hot time encoding (50 in the paper).
  std::size_t time_buckets = 50;
  std::size_t hidden_size = 128;
  std::size_t mlp_hidden = 128;
  float dropout = 0.2f;
  nn::CellType cell = nn::CellType::kGru;
  /// Stacked recurrent layers (the paper found 1 sufficient).
  int num_layers = 1;
  /// Element-wise latent cross of §6.2; disabling it reduces RNNpredict to
  /// a plain concat-MLP (ablation).
  bool latent_cross = true;

  std::size_t update_input_size() const {
    return feature_size + time_buckets + 1;  // + A_i
  }
  std::size_t predict_input_size() const {
    return feature_size + time_buckets;
  }
};

/// The serve path's weights in one precision: one recurrent cell per layer
/// plus the RNNpredict head. The head layers are heap-held so the struct
/// stays movable while QuantizedLinear is construct-only.
template <class Cell, class Linear>
struct NetworkWeights {
  std::vector<Cell> cells;
  std::unique_ptr<Linear> latent;  // L of the latent cross; null without it
  std::unique_ptr<Linear> w1;
  std::unique_ptr<Linear> w2;
};

/// Int8 weight replicas for the quantized serving path, built once from
/// the trained f32 parameters (prepare_quantized). Each holds its packed
/// kernel panels, so it is rebuilt whenever the f32 weights change.
using QuantizedNetworkWeights =
    NetworkWeights<nn::QuantizedGruCell, nn::QuantizedLinear>;

// ---- precision traits of the tape-free serve path (§9) ----
//
// Each serve stage (initial state, RNNupdate, the hidden gather, the
// RNNpredict head, the KV record) is written once as a template over one
// of these two traits. A trait supplies only what differs between the
// precisions; the stage bodies, and with them every contraction order, are
// shared. Public entry points pick the trait once per call, so nothing on
// the serve path dispatches on precision at run time.

/// f32 serving: the trained parameters and decoded f32 states.
struct F32 {
  static constexpr const char* kName = "f32";
  using Weights =
      NetworkWeights<std::unique_ptr<nn::RecurrentCell>, nn::Linear>;
  /// One layer's state: the cell's state_parts() matrices (h, or h and c).
  using Layer = std::vector<Matrix>;
  /// Exposed hidden rows, [B x hidden]: one user's h, or a gathered batch.
  using Block = Matrix;

  static const Block& hidden(const Layer& layer) { return layer.front(); }
  static Layer initial_layer(const std::unique_ptr<nn::RecurrentCell>& cell) {
    return cell->infer_initial_state(1);
  }
  /// Steps one layer in place; returns its new h (the next layer's input).
  static Matrix step(const std::unique_ptr<nn::RecurrentCell>& cell,
                     Layer& layer, const Matrix& x) {
    cell->infer_step(layer, x);
    return layer.front();
  }
  /// Copies one user's hidden into row b of a batch block.
  static void gather(Block& block, std::size_t b, const Block& hidden) {
    std::memcpy(block.row(b).data(), hidden.data(),
                block.cols() * sizeof(float));
  }
  static Matrix dequantize(const Block& block) { return block; }
  static Matrix apply(const nn::Linear& layer, const Matrix& x,
                      bool /*one_sided*/ = false) {
    return layer.infer(x);
  }
};

/// Int8 serving (§9 single-byte states): the int8 weight replicas, and
/// states kept in their stored byte form. GRU only: one part per layer.
struct Int8 {
  static constexpr const char* kName = "int8";
  using Weights = QuantizedNetworkWeights;
  /// One layer's state: the int8 h plus its scale, exactly as the KV tier
  /// stores it.
  using Layer = tensor::QuantizedMatrix;
  /// Exposed hidden rows as int8 bytes with one scale per row.
  using Block = tensor::QuantizedMatrix;

  static const Block& hidden(const Layer& layer) { return layer; }
  /// All-zero bytes with scale 1: bit-identical to the int8 codec's
  /// encoding of a cold f32 state.
  static Layer initial_layer(const nn::QuantizedGruCell& cell) {
    return tensor::QuantizedMatrix(1, cell.hidden_size());
  }
  /// The stored int8 h feeds the quantized gate products directly; only
  /// the updated h is re-encoded.
  static Matrix step(const nn::QuantizedGruCell& cell, Layer& layer,
                     const Matrix& x) {
    return cell.infer_step(layer, x);
  }
  static void gather(Block& block, std::size_t b, const Block& hidden) {
    std::memcpy(block.row_data(b), hidden.data(), block.cols());
    block.set_row_scale(b, hidden.scale());
  }
  /// The stored h enters the head only through the latent-cross product,
  /// dequantized value by value with its row's scale.
  static Matrix dequantize(const Block& block) { return block.dequantize(); }
  /// Activations are requantized per row in front of each int8 product;
  /// a one-sided (post-ReLU) input takes the affine form, which buys a bit.
  static Matrix apply(const nn::QuantizedLinear& layer, const Matrix& x,
                      bool one_sided = false) {
    return layer.infer(one_sided
                           ? tensor::QuantizedMatrix::quantize_rows_affine(x)
                           : tensor::QuantizedMatrix::quantize_rows(x));
  }
};

/// Raw (tape-free) recurrent state in precision P: one Layer per layer.
template <class P>
struct BasicInferenceState {
  std::vector<typename P::Layer> layers;
  /// The externally visible hidden vector (top layer's h): the thing the
  /// serving tier persists per user (512 bytes at d=128 in f32, §9).
  const typename P::Block& hidden() const { return P::hidden(layers.back()); }
};

using InferenceState = BasicInferenceState<F32>;
/// The int8 matrices hold the same bytes + scale the KV tier stores;
/// scoring consumes them without an f32 decode.
using QuantizedInferenceState = BasicInferenceState<Int8>;

class RnnNetwork : public nn::Module {
 public:
  RnnNetwork(const RnnNetworkConfig& config, Rng& rng);

  const RnnNetworkConfig& config() const { return config_; }

  // ---- training path (autograd graphs) ----
  /// One RNNupdate step. `x` is [1 x update_input_size()].
  std::vector<nn::CellState> graph_update(
      const std::vector<nn::CellState>& state, const Variable& x) const;
  /// Zero initial state (one CellState per layer).
  std::vector<nn::CellState> graph_initial_state() const;
  /// RNNpredict logit. `h_k` is the exposed hidden [1 x hidden]; `x` is
  /// [1 x predict_input_size()].
  Variable graph_predict_logit(const Variable& h_k, const Variable& x,
                               Rng& rng) const;

  // ---- serving path (no tape): one body per stage, P = F32 or Int8 ----
  /// Cold state: each cell's initial state. Int8 needs prepare_quantized()
  /// (throws std::logic_error otherwise), as do its other stages.
  template <class P>
  BasicInferenceState<P> infer_initial_state() const;
  /// RNNupdate: steps every layer in place; `x` is [1 x update_input_size()].
  template <class P>
  void infer_update(BasicInferenceState<P>& state, const Matrix& x) const;
  /// Batched RNNpredict: `h_block` is [B x hidden] (row b = user b's
  /// hidden; int8 rows carry their own scales), `x_block` is
  /// [B x predict_input_size()]; one GEMM per layer amortized across B
  /// sessions. Row b equals the same row scored alone: GEMM row
  /// independence (f32) and per-row activation quantization plus exact
  /// integer accumulation (int8) make batching bit-transparent.
  template <class P>
  std::vector<double> infer_logits(const typename P::Block& h_block,
                                   const Matrix& x_block) const;

  InferenceState infer_initial_state() const {
    return infer_initial_state<F32>();
  }
  double infer_logit(const Matrix& h_k, const Matrix& x) const;
  std::vector<double> infer_logits(const Matrix& h_block,
                                   const Matrix& x_block) const {
    return infer_logits<F32>(h_block, x_block);
  }

  /// Weight load that keeps the int8 replicas fresh: shadows
  /// Module::deserialize so every path installing new f32 weights through
  /// an RnnNetwork (RnnModel::load or a direct network().deserialize)
  /// also refreshes an enabled quantized serving mode.
  void deserialize(BinaryReader& reader);

  // ---- quantized serving mode (int8 weights + int8 states, §9) ----
  /// (Re)builds the int8 weight replicas from the current f32 parameters:
  /// every weight matrix is quantized and packed for the int8 kernels
  /// here, once, so serving never packs. Requires the GRU cell (throws
  /// std::invalid_argument otherwise); call once at load. Weight-mutating
  /// entry points (deserialize, RnnTrainer::fit) refresh an
  /// already-enabled mode themselves.
  void prepare_quantized();
  bool quantized_ready() const { return qweights_ != nullptr; }
  const QuantizedNetworkWeights& quantized_weights() const;

  QuantizedInferenceState infer_initial_state_q8() const {
    return infer_initial_state<Int8>();
  }
  void infer_update_q8(QuantizedInferenceState& state, const Matrix& x) const {
    infer_update(state, x);
  }
  std::vector<double> infer_logits_q8(const tensor::QuantizedMatrix& h_block,
                                      const Matrix& x_block) const {
    return infer_logits<Int8>(h_block, x_block);
  }

  /// Approximate multiply-accumulate count of one infer_logit call (the
  /// §9 compute-cost model).
  std::size_t predict_flops() const;
  /// Approximate MACs of one infer_update call.
  std::size_t update_flops() const;

 private:
  /// The serve-path weights in precision P: the trained parameters, or
  /// the int8 replicas (throws std::logic_error before prepare_quantized).
  template <class P>
  const typename P::Weights& weights() const;

  RnnNetworkConfig config_;
  /// The trained parameters (registered submodules).
  F32::Weights weights_;
  /// Int8 replicas (null until prepare_quantized). Built at setup time,
  /// read-only during concurrent serving.
  std::unique_ptr<QuantizedNetworkWeights> qweights_;
};

}  // namespace pp::train
