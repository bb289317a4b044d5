// RnnModel: the paper's contribution as a user-facing model — the Fig. 3
// GRU + latent-cross architecture, trained per §7 and scored with the
// tape-free serving path. Construction fixes the dataset schema; fit/score
// wrap pp::train.
#pragma once

#include <memory>
#include <span>

#include "data/dataset.hpp"
#include "train/rnn_trainer.hpp"

namespace pp::models {

struct RnnModelConfig {
  std::size_t hidden_size = 128;
  std::size_t mlp_hidden = 128;
  float dropout = 0.2f;
  nn::CellType cell = nn::CellType::kGru;
  int num_layers = 1;
  bool latent_cross = true;
  /// kFull is the paper's model; kTimeOnly / kNone explore the §10.1
  /// "reusable model" (timestamps + labels only).
  train::FeatureMode feature_mode = train::FeatureMode::kFull;

  int epochs = 1;
  double learning_rate = 1e-3;
  std::size_t minibatch_users = 10;
  std::size_t num_threads = 0;  // 0 = hardware concurrency
  train::BatchStrategy strategy = train::BatchStrategy::kPerUserThreads;
  std::size_t truncate_history = 10000;
  /// Train loss restricted to the last N days of the dataset (§6.3).
  int loss_window_days = 21;
  double grad_clip = 5.0;
  std::uint64_t seed = 123;
};

class RnnModel {
 public:
  /// The schema and the timeshift flag fix the input layout.
  RnnModel(const data::Dataset& dataset_meta, const RnnModelConfig& config);

  /// Trains on the given users; returns the Figure 4 loss curve.
  train::TrainingCurve fit(const data::Dataset& dataset,
                           std::span<const std::size_t> user_indices);

  /// Scores every prediction of the given users within [emit_from,
  /// emit_to) using the tape-free inference path.
  train::ScoredSeries score(const data::Dataset& dataset,
                            std::span<const std::size_t> user_indices,
                            std::int64_t emit_from = 0,
                            std::int64_t emit_to = 0,
                            std::size_t num_threads = 1) const;

  /// Int8 twin of score(): replays through the quantized state/update/head
  /// path (the numerics kInt8 serving runs). Requires
  /// enable_quantized_serving().
  train::ScoredSeries score_q8(const data::Dataset& dataset,
                               std::span<const std::size_t> user_indices,
                               std::int64_t emit_from = 0,
                               std::int64_t emit_to = 0,
                               std::size_t num_threads = 1) const;

  /// Deep copy: same architecture and sequence semantics, parameter values
  /// copied, inference mode. Quantized replicas are NOT carried over —
  /// enable_quantized_serving() on the copy (the ModelRegistry does this at
  /// publish so replicas always match the published f32 weights). The
  /// online tier clones the shadow network into fresh immutable versions.
  std::unique_ptr<RnnModel> clone() const;

  /// Batched session-start scoring in precision P: `hidden_block` is
  /// [B x hidden] (f32 rows, or the stored int8 bytes with per-row
  /// scales), `x_block` is [B x predict_input_size()]; returns B access
  /// probabilities. Row b exactly equals the per-session score of the same
  /// (hidden, x) pair — the serving tier batches cohorts through this.
  template <class P>
  std::vector<double> score_session_batch(
      const typename P::Block& hidden_block,
      const tensor::Matrix& x_block) const;
  std::vector<double> score_session_batch(
      const tensor::Matrix& hidden_block,
      const tensor::Matrix& x_block) const {
    return score_session_batch<train::F32>(hidden_block, x_block);
  }

  /// Builds the int8 weight replicas for the quantized serving mode
  /// ("weights quantized once at load"). Requires the GRU cell; call
  /// before constructing an int8 RnnPolicy. load() refreshes the replicas
  /// automatically once enabled.
  void enable_quantized_serving();
  bool quantized_serving() const { return network_->quantized_ready(); }
  std::vector<double> score_session_batch_q8(
      const tensor::QuantizedMatrix& hidden_block,
      const tensor::Matrix& x_block) const {
    return score_session_batch<train::Int8>(hidden_block, x_block);
  }

  const train::RnnNetwork& network() const { return *network_; }
  train::RnnNetwork& network() { return *network_; }
  const RnnModelConfig& config() const { return config_; }
  const train::SequenceConfig& sequence_config() const {
    return sequence_config_;
  }
  bool timeshift() const { return timeshift_; }
  const data::ContextSchema& schema() const { return schema_; }

  void save(const std::string& path) const;
  void load(const std::string& path);

 private:
  RnnModelConfig config_;
  train::SequenceConfig sequence_config_;
  bool timeshift_ = false;
  data::ContextSchema schema_;
  std::unique_ptr<train::RnnNetwork> network_;
};

}  // namespace pp::models
