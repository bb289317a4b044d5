#include "serving/hidden_store.hpp"

#include <stdexcept>
#include <type_traits>

#include "tensor/qgemm.hpp"
#include "util/serialize.hpp"

namespace pp::serving {

namespace {

/// State parts per layer the model's cell carries: h, or h and c (LSTM).
std::uint32_t state_parts(const train::RnnNetworkConfig& cfg) {
  return cfg.cell == nn::CellType::kLstm ? 2 : 1;
}

/// Int8 reads and writes move the stored bytes as-is, so they need a
/// kInt8 store.
template <class P>
void require_codec(StateCodec codec) {
  if (std::is_same_v<P, train::Int8> && codec != StateCodec::kInt8) {
    throw std::logic_error(
        "HiddenStateStore: int8 state access needs the kInt8 codec");
  }
}

void write_part(const tensor::QuantizedMatrix& q, BinaryWriter& writer) {
  writer.write_u32(static_cast<std::uint32_t>(q.rows()));
  writer.write_u32(static_cast<std::uint32_t>(q.cols()));
  writer.write_f32(q.scale());
  writer.write_bytes(q.data(), q.size());
}

void write_part(const tensor::Matrix& m, StateCodec codec,
                BinaryWriter& writer) {
  if (codec == StateCodec::kInt8) {
    // int8 per-tensor affine: v ≈ scale * q with q in [-127, 127]. The
    // sanitization rules (scale from finite entries only, NaN -> 0, ±Inf
    // saturates, denormal-scale clamp) live in QuantizedMatrix::quantize,
    // the single source of truth shared with the quantized scoring path.
    write_part(tensor::QuantizedMatrix::quantize(m), writer);
    return;
  }
  writer.write_u32(static_cast<std::uint32_t>(m.rows()));
  writer.write_u32(static_cast<std::uint32_t>(m.cols()));
  writer.write_bytes(m.data(), m.size() * sizeof(float));
}

// One layer's payload per precision; the record framing around it is
// shared by put<P>/get<P>.
void write_layer(const std::vector<tensor::Matrix>& parts, StateCodec codec,
                 BinaryWriter& writer) {
  writer.write_u32(static_cast<std::uint32_t>(parts.size()));
  for (const auto& part : parts) write_part(part, codec, writer);
}

void write_layer(const tensor::QuantizedMatrix& h, StateCodec /*codec*/,
                 BinaryWriter& writer) {
  if (!h.per_tensor()) {
    throw std::invalid_argument(
        "put_q8: per-user states carry one scale (got a per-row batch)");
  }
  writer.write_u32(1);  // parts: GRU h only
  write_part(h, writer);
}

/// Reads a part's shape and checks it before any payload is read.
void read_shape(BinaryReader& reader, std::size_t hidden) {
  const std::uint32_t rows = reader.read_u32();
  const std::uint32_t cols = reader.read_u32();
  if (rows != 1 || cols != hidden) {
    throw std::runtime_error("get: stored state geometry " +
                             std::to_string(rows) + "x" +
                             std::to_string(cols) +
                             " mismatches model hidden size " +
                             std::to_string(hidden));
  }
}

tensor::QuantizedMatrix read_q8_part(BinaryReader& reader,
                                     std::size_t hidden) {
  read_shape(reader, hidden);
  const float scale = reader.read_f32();
  std::vector<std::int8_t> data(hidden);
  reader.read_bytes(data.data(), data.size());
  return tensor::QuantizedMatrix::from_raw(1, hidden, scale, std::move(data));
}

void read_layer(BinaryReader& reader, StateCodec codec, std::uint32_t parts,
                std::size_t hidden, std::vector<tensor::Matrix>& layer) {
  layer.reserve(parts);
  for (std::uint32_t p = 0; p < parts; ++p) {
    if (codec == StateCodec::kInt8) {
      layer.push_back(read_q8_part(reader, hidden).dequantize());
      continue;
    }
    read_shape(reader, hidden);
    tensor::Matrix part(1, hidden);
    reader.read_bytes(part.data(), part.size() * sizeof(float));
    layer.push_back(std::move(part));
  }
}

void read_layer(BinaryReader& reader, StateCodec /*codec*/,
                std::uint32_t parts, std::size_t hidden,
                tensor::QuantizedMatrix& layer) {
  if (parts != 1) {
    throw std::runtime_error(
        "get_q8: multi-part (LSTM) states have no quantized serving path");
  }
  layer = read_q8_part(reader, hidden);
}

}  // namespace

std::string HiddenStateStore::key(std::uint64_t user_id) const {
  return "h:" + std::to_string(user_id);
}

template <class P>
void HiddenStateStore::put(std::uint64_t user_id,
                           const BasicStoredState<P>& state) {
  require_codec<P>(codec_);
  BinaryWriter writer;
  writer.write_i64(state.last_update_time);
  writer.write_u32(state.updates);
  writer.write_u32(static_cast<std::uint32_t>(state.state.layers.size()));
  for (const auto& layer : state.state.layers) {
    write_layer(layer, codec_, writer);
  }
  store_->put(key(user_id), writer.take());
}

template <class P>
std::optional<BasicStoredState<P>> HiddenStateStore::get(
    std::uint64_t user_id, const train::RnnNetwork& network) const {
  require_codec<P>(codec_);
  auto bytes = store_->get(key(user_id));
  if (!bytes.has_value()) return std::nullopt;
  BinaryReader reader(std::move(*bytes));
  BasicStoredState<P> state;
  state.last_update_time = reader.read_i64();
  state.updates = reader.read_u32();
  const std::uint32_t layers = reader.read_u32();
  const auto& cfg = network.config();
  if (layers != static_cast<std::uint32_t>(cfg.num_layers)) {
    throw std::runtime_error("get: stored layer count mismatches model");
  }
  state.state.layers.resize(layers);
  for (auto& layer : state.state.layers) {
    const std::uint32_t parts = reader.read_u32();
    if (parts != state_parts(cfg)) {
      throw std::runtime_error(
          "get: stored layer has " + std::to_string(parts) +
          " state parts; the model's " + nn::to_string(cfg.cell) +
          " cell has " + std::to_string(state_parts(cfg)));
    }
    read_layer(reader, codec_, parts, cfg.hidden_size, layer);
  }
  return state;
}

template void HiddenStateStore::put(std::uint64_t, const StoredState&);
template void HiddenStateStore::put(std::uint64_t,
                                    const QuantizedStoredState&);
template std::optional<StoredState> HiddenStateStore::get<train::F32>(
    std::uint64_t, const train::RnnNetwork&) const;
template std::optional<QuantizedStoredState>
HiddenStateStore::get<train::Int8>(std::uint64_t,
                                   const train::RnnNetwork&) const;

std::size_t HiddenStateStore::encoded_bytes(
    const train::RnnNetwork& network) const {
  const auto& cfg = network.config();
  const std::size_t parts = state_parts(cfg);
  const std::size_t per_value = codec_ == StateCodec::kFloat32 ? 4 : 1;
  const std::size_t header = 8 + 4 + 4;
  const std::size_t per_matrix =
      8 + (codec_ == StateCodec::kInt8 ? 4 : 0) + cfg.hidden_size * per_value;
  return header +
         static_cast<std::size_t>(cfg.num_layers) * (4 + parts * per_matrix);
}

}  // namespace pp::serving
