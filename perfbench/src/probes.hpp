// Layer probes: each times calls into one public layer API at the
// workload's own geometry, on inputs taken from the run (its events, its
// users' stored states). They run after the traced pass, never inside it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct ModelProbe {
  double predict_b1_ns = 0;    // RnnNetwork::infer_logits[_q8], batch 1
  double predict_b256_ns = 0;  // same, batch 256, per session
  double update_ns = 0;        // RnnNetwork::infer_update[_q8]
  double latent_ns = 0;        // Linear / QuantizedLinear, batch 1
  double w1_ns = 0;
  double w2_ns = 0;
  double gru_step_ns = 0;      // GruCell / QuantizedGruCell::infer_step
  double predict_macs = 0;
  double update_macs = 0;
};
/// `ep`'s first contexts and their users' stored states are the inputs.
ModelProbe probe_model(Stack& st, const Epoch& ep, std::uint64_t seed);

struct StateProbe {
  double decode_ns = 0;  // HiddenStateStore::get[_q8] minus inner KV get
  double encode_ns = 0;  // HiddenStateStore::put[_q8] minus inner KV put
};
StateProbe probe_states(Stack& st, const std::vector<std::uint64_t>& users);

struct CodecProbe {
  double encode_ns_per_frame = 0;  // encode_event
  double decode_ns_per_frame = 0;  // WireDecoder::feed + next
};
CodecProbe probe_codec(const Epoch& ep, std::size_t frames_per_chunk);

struct BusProbe {
  std::vector<std::int64_t> publish_ns;
  double blocked_ratio = 0;
  std::size_t max_depth = 0;
};
/// One producer thread publishes `ep`'s frames onto a one-lane kBlock bus
/// that the calling thread drains and decodes.
BusProbe probe_bus(const Epoch& ep, std::size_t frames_per_chunk,
                   std::size_t lane_capacity);

/// Paces `events` one-frame encodes at `events_per_s` on the calling
/// thread; returns the lateness of each against its due time.
std::vector<std::int64_t> probe_pacing(const Epoch& ep, double events_per_s,
                                       std::size_t events);

struct StorageProbe {
  double disk_bytes = 0;
  double records = 0;
  double compactions = 0;
  double flush_ns = 0;
  double recovery_s = 0;
  std::size_t recovered_keys = 0;
  std::size_t live_keys = 0;
};
/// Writes the final state of up to 20k of `users` (read from `st`) into a
/// fresh DurableKvStore under `dir`, then flushes and reopens it.
StorageProbe probe_storage_copy(Stack& st,
                                const std::vector<std::uint64_t>& users,
                                const std::string& dir);
/// The durable workload's own log: flushes the live store, tears `st`
/// down, and times reopening its directory.
StorageProbe probe_storage_reopen(std::unique_ptr<Stack> st);

}  // namespace perfbench
