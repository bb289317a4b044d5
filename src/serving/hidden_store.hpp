// Per-user hidden-state persistence (§9): "the most recent hidden state
// for each user (a 128-element floating point vector) and session
// timestamp are stored in a real-time data store similar to Redis."
//
// Supports two codecs: float32 (512 bytes at d=128, the paper's default)
// and int8 per-tensor affine quantization ("neural network quantization
// methods can also be applied to store single bytes instead of
// floating-point numbers for each dimension", §9).
#pragma once

#include <optional>

#include "serving/kv_store.hpp"
#include "train/rnn_network.hpp"

namespace pp::serving {

enum class StateCodec { kFloat32, kInt8 };

/// One user's persisted record in serving precision P (train::F32 or
/// train::Int8). Both precisions share one wire format, so put/put_q8 and
/// get/get_q8 are freely interchangeable on a kInt8 store.
template <class P>
struct BasicStoredState {
  train::BasicInferenceState<P> state;
  /// Timestamp t_k of the last session folded into the state (needed for
  /// the T(t - t_k) prediction input).
  std::int64_t last_update_time = 0;
  /// Number of sessions folded in (k); 0 = cold start.
  std::uint32_t updates = 0;
};

using StoredState = BasicStoredState<train::F32>;
/// The state matrices stay in their stored byte form (scale + int8
/// vector), the same bytes the kInt8 codec writes.
using QuantizedStoredState = BasicStoredState<train::Int8>;

class HiddenStateStore {
 public:
  HiddenStateStore(KvStore& store, StateCodec codec = StateCodec::kFloat32)
      : store_(&store), codec_(codec) {}

  /// Writes one user's record. An Int8 state goes to the wire without an
  /// f32 encode pass (the GRU step already re-quantized it); it needs the
  /// kInt8 codec (std::logic_error otherwise) and one scale per layer.
  template <class P>
  void put(std::uint64_t user_id, const BasicStoredState<P>& state);
  /// Returns the stored state, or std::nullopt for a cold user. `network`
  /// supplies the expected layer count, parts per layer (its cell) and
  /// width: callers memcpy hidden_size values straight out of the returned
  /// state, so a record from a differently-shaped model throws
  /// std::runtime_error here. Int8 hands the stored bytes and scale over
  /// as-is (no f32 decode) and needs the kInt8 codec (std::logic_error
  /// otherwise) and a GRU record.
  template <class P>
  std::optional<BasicStoredState<P>> get(
      std::uint64_t user_id, const train::RnnNetwork& network) const;

  std::optional<StoredState> get(std::uint64_t user_id,
                                 const train::RnnNetwork& network) const {
    return get<train::F32>(user_id, network);
  }
  std::optional<QuantizedStoredState> get_q8(
      std::uint64_t user_id, const train::RnnNetwork& network) const {
    return get<train::Int8>(user_id, network);
  }
  void put_q8(std::uint64_t user_id, const QuantizedStoredState& state) {
    put(user_id, state);
  }

  /// Serialized size of one state (the per-user storage footprint).
  std::size_t encoded_bytes(const train::RnnNetwork& network) const;

  StateCodec codec() const { return codec_; }
  KvStore& store() { return *store_; }

 private:
  std::string key(std::uint64_t user_id) const;

  KvStore* store_;
  StateCodec codec_;
};

}  // namespace pp::serving
