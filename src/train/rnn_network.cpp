#include "train/rnn_network.hpp"

#include <cmath>
#include <stdexcept>

#include "util/math.hpp"

namespace pp::train {

using namespace autograd;

template <>
const F32::Weights& RnnNetwork::weights<F32>() const {
  return weights_;
}

template <>
const Int8::Weights& RnnNetwork::weights<Int8>() const {
  return quantized_weights();
}

RnnNetwork::RnnNetwork(const RnnNetworkConfig& config, Rng& rng)
    : config_(config) {
  // feature_size may be 0 (FeatureMode::kNone, the §10.1 reusable model):
  // the T() time encoding still provides a nonzero input width.
  if (config.time_buckets == 0 || config.hidden_size == 0 ||
      config.mlp_hidden == 0 || config.num_layers < 1) {
    throw std::invalid_argument("RnnNetwork: zero-sized configuration");
  }
  std::size_t input = config.update_input_size();
  for (int l = 0; l < config.num_layers; ++l) {
    weights_.cells.push_back(
        nn::make_cell(config.cell, input, config.hidden_size, rng));
    register_submodule("cell" + std::to_string(l), *weights_.cells.back());
    input = config.hidden_size;
  }
  const std::size_t pred_in = config.predict_input_size();
  if (config.latent_cross) {
    weights_.latent = std::make_unique<nn::Linear>(
        pred_in, config.hidden_size, rng, "latent");
    register_submodule("latent", *weights_.latent);
  }
  weights_.w1 = std::make_unique<nn::Linear>(config.hidden_size + pred_in,
                                             config.mlp_hidden, rng, "w1");
  register_submodule("w1", *weights_.w1);
  weights_.w2 = std::make_unique<nn::Linear>(config.mlp_hidden, 1, rng, "w2");
  register_submodule("w2", *weights_.w2);
}

std::vector<nn::CellState> RnnNetwork::graph_initial_state() const {
  std::vector<nn::CellState> state;
  state.reserve(weights_.cells.size());
  for (const auto& cell : weights_.cells) {
    state.push_back(cell->initial_state(1));
  }
  return state;
}

std::vector<nn::CellState> RnnNetwork::graph_update(
    const std::vector<nn::CellState>& state, const Variable& x) const {
  std::vector<nn::CellState> next;
  next.reserve(weights_.cells.size());
  Variable input = x;
  for (std::size_t l = 0; l < weights_.cells.size(); ++l) {
    next.push_back(weights_.cells[l]->step(state[l], input));
    input = next.back().front();
  }
  return next;
}

Variable RnnNetwork::graph_predict_logit(const Variable& h_k,
                                         const Variable& x, Rng& rng) const {
  Variable crossed = h_k;
  if (config_.latent_cross) {
    // h' = h_k ∘ (1 + L(x))
    crossed = mul(h_k, add_scalar(weights_.latent->forward(x), 1.0f));
  }
  Variable mlp_in = concat_cols(crossed, x);
  Variable hidden = weights_.w1->forward(mlp_in);
  hidden = dropout(hidden, config_.dropout, rng, training());
  hidden = relu(hidden);
  // Raw logit; the caller applies the sigmoid.
  return weights_.w2->forward(hidden);
}

template <class P>
BasicInferenceState<P> RnnNetwork::infer_initial_state() const {
  const typename P::Weights& w = weights<P>();
  BasicInferenceState<P> state;
  state.layers.reserve(w.cells.size());
  for (const auto& cell : w.cells) {
    state.layers.push_back(P::initial_layer(cell));
  }
  return state;
}

template <class P>
void RnnNetwork::infer_update(BasicInferenceState<P>& state,
                              const Matrix& x) const {
  const typename P::Weights& w = weights<P>();
  const Matrix* input = &x;
  Matrix carried;
  for (std::size_t l = 0; l < w.cells.size(); ++l) {
    carried = P::step(w.cells[l], state.layers[l], *input);
    input = &carried;
  }
}

double RnnNetwork::infer_logit(const Matrix& h_k, const Matrix& x) const {
  return infer_logits(h_k, x).front();
}

template <class P>
std::vector<double> RnnNetwork::infer_logits(const typename P::Block& h_block,
                                             const Matrix& x_block) const {
  const typename P::Weights& w = weights<P>();
  if (h_block.rows() != x_block.rows()) {
    throw std::invalid_argument(
        std::string("infer_logits: ") + P::kName + " batch mismatch " +
        std::to_string(h_block.rows()) + " vs " +
        std::to_string(x_block.rows()) + " rows");
  }
  // Latent cross: h' = h ∘ (1 + L(x)).
  Matrix crossed = P::dequantize(h_block);
  if (config_.latent_cross) {
    const Matrix factor = P::apply(*w.latent, x_block);
    for (std::size_t i = 0; i < crossed.size(); ++i) {
      crossed[i] *= 1.0f + factor[i];
    }
  }
  const Matrix mlp_in = Matrix::concat_cols(crossed, x_block);
  Matrix hidden = P::apply(*w.w1, mlp_in);
  for (std::size_t i = 0; i < hidden.size(); ++i) {
    hidden[i] = hidden[i] > 0 ? hidden[i] : 0.0f;
  }
  const Matrix logit = P::apply(*w.w2, hidden, /*one_sided=*/true);  // [B x 1]
  std::vector<double> out(logit.rows());
  for (std::size_t b = 0; b < logit.rows(); ++b) out[b] = logit.at(b, 0);
  return out;
}

template InferenceState RnnNetwork::infer_initial_state<F32>() const;
template QuantizedInferenceState RnnNetwork::infer_initial_state<Int8>() const;
template void RnnNetwork::infer_update(InferenceState&, const Matrix&) const;
template void RnnNetwork::infer_update(QuantizedInferenceState&,
                                       const Matrix&) const;
template std::vector<double> RnnNetwork::infer_logits<F32>(
    const Matrix&, const Matrix&) const;
template std::vector<double> RnnNetwork::infer_logits<Int8>(
    const tensor::QuantizedMatrix&, const Matrix&) const;

void RnnNetwork::deserialize(BinaryReader& reader) {
  nn::Module::deserialize(reader);
  if (quantized_ready()) prepare_quantized();
}

void RnnNetwork::prepare_quantized() {
  auto weights = std::make_unique<QuantizedNetworkWeights>();
  weights->cells.reserve(weights_.cells.size());
  for (const auto& cell : weights_.cells) {
    const auto* gru = dynamic_cast<const nn::GruCell*>(cell.get());
    if (gru == nullptr) {
      throw std::invalid_argument(
          "prepare_quantized: int8 serving supports the GRU cell only");
    }
    weights->cells.emplace_back(*gru);
  }
  if (weights_.latent) {
    weights->latent = std::make_unique<nn::QuantizedLinear>(*weights_.latent);
  }
  weights->w1 = std::make_unique<nn::QuantizedLinear>(*weights_.w1);
  weights->w2 = std::make_unique<nn::QuantizedLinear>(*weights_.w2);
  qweights_ = std::move(weights);
}

const QuantizedNetworkWeights& RnnNetwork::quantized_weights() const {
  if (!qweights_) {
    throw std::logic_error(
        "quantized_weights: call prepare_quantized() at load time first");
  }
  return *qweights_;
}

std::size_t RnnNetwork::predict_flops() const {
  const std::size_t pred_in = config_.predict_input_size();
  const std::size_t h = config_.hidden_size;
  std::size_t flops = 0;
  if (config_.latent_cross) flops += pred_in * h + h;
  flops += (h + pred_in) * config_.mlp_hidden;  // W1
  flops += config_.mlp_hidden;                  // W2
  return flops;
}

std::size_t RnnNetwork::update_flops() const {
  const std::size_t h = config_.hidden_size;
  std::size_t input = config_.update_input_size();
  std::size_t flops = 0;
  const std::size_t gates =
      config_.cell == nn::CellType::kGru ? 3 : (config_.cell == nn::CellType::kLstm ? 4 : 1);
  for (int l = 0; l < config_.num_layers; ++l) {
    flops += (input + h) * h * gates;
    input = h;
  }
  return flops;
}

}  // namespace pp::train
