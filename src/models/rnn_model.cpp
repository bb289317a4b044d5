#include "models/rnn_model.hpp"

#include "obs/metrics.hpp"
#include "util/math.hpp"
#include "util/stopwatch.hpp"

namespace pp::models {

namespace {

/// Stage histograms for the batched prediction head, resolved once per
/// precision (function-local static per instantiation), so a sampled call
/// does no registry lookup — only two clock reads.
struct HeadStageHists {
  obs::LatencyHistogram* gemm = nullptr;
  obs::LatencyHistogram* sigmoid = nullptr;
};

HeadStageHists make_head_hists(const char* precision) {
  auto& registry = obs::MetricsRegistry::global();
  HeadStageHists hists;
  hists.gemm = &registry.histogram(
      "pp_serving_stage_ns",
      {{"stage", "head_gemm"}, {"precision", precision}});
  hists.sigmoid = &registry.histogram(
      "pp_serving_stage_ns", {{"stage", "sigmoid"}, {"precision", precision}});
  return hists;
}

}  // namespace

RnnModel::RnnModel(const data::Dataset& dataset_meta,
                   const RnnModelConfig& config)
    : config_(config),
      timeshift_(dataset_meta.timeshifted),
      schema_(dataset_meta.schema) {
  sequence_config_.feature_mode = config.feature_mode;
  sequence_config_.truncate_history = config.truncate_history;
  sequence_config_.context_at_predict = !timeshift_;

  train::RnnNetworkConfig net;
  net.feature_size =
      train::feature_width(dataset_meta.schema, config.feature_mode);
  net.hidden_size = config.hidden_size;
  net.mlp_hidden = config.mlp_hidden;
  net.dropout = config.dropout;
  net.cell = config.cell;
  net.num_layers = config.num_layers;
  net.latent_cross = config.latent_cross;
  Rng rng(config.seed);
  network_ = std::make_unique<train::RnnNetwork>(net, rng);
}

train::TrainingCurve RnnModel::fit(const data::Dataset& dataset,
                                   std::span<const std::size_t> users) {
  sequence_config_.loss_from =
      dataset.end_time -
      static_cast<std::int64_t>(config_.loss_window_days) * 86400;

  train::RnnTrainerConfig trainer_config;
  trainer_config.epochs = config_.epochs;
  trainer_config.learning_rate = config_.learning_rate;
  trainer_config.minibatch_users = config_.minibatch_users;
  trainer_config.num_threads = config_.num_threads;
  trainer_config.grad_clip = config_.grad_clip;
  trainer_config.strategy = config_.strategy;
  trainer_config.sequence = sequence_config_;
  trainer_config.timeshift = timeshift_;
  trainer_config.seed = config_.seed;

  // RnnTrainer::fit refreshes an enabled quantized serving mode after the
  // weight updates, so int8 replicas never go stale across retraining.
  train::RnnTrainer trainer(*network_, trainer_config);
  return trainer.fit(dataset, users);
}

train::ScoredSeries RnnModel::score(const data::Dataset& dataset,
                                    std::span<const std::size_t> users,
                                    std::int64_t emit_from,
                                    std::int64_t emit_to,
                                    std::size_t num_threads) const {
  return train::score_users(*network_, dataset, users, sequence_config_,
                            timeshift_, emit_from, emit_to, num_threads);
}

train::ScoredSeries RnnModel::score_q8(const data::Dataset& dataset,
                                       std::span<const std::size_t> users,
                                       std::int64_t emit_from,
                                       std::int64_t emit_to,
                                       std::size_t num_threads) const {
  return train::score_users_q8(*network_, dataset, users, sequence_config_,
                               timeshift_, emit_from, emit_to, num_threads);
}

std::unique_ptr<RnnModel> RnnModel::clone() const {
  data::Dataset meta;
  meta.schema = schema_;
  meta.timeshifted = timeshift_;
  auto copy = std::make_unique<RnnModel>(meta, config_);
  copy->sequence_config_ = sequence_config_;
  copy->network_->copy_parameters_from(*network_);
  copy->network_->set_training(false);
  return copy;
}

template <class P>
std::vector<double> RnnModel::score_session_batch(
    const typename P::Block& hidden_block,
    const tensor::Matrix& x_block) const {
  // Stage timing piggybacks on the caller's sampling decision
  // (SampledSection), so head_gemm/sigmoid cover exactly the batches the
  // policy's TraceSpan timed and the per-stage sums stay comparable. An
  // unsampled call reads no clock.
  const HeadStageHists* hists = nullptr;
  if (obs::SampledSection::active()) {
    static const HeadStageHists sampled = make_head_hists(P::kName);
    hists = &sampled;
  }
  Stopwatch lap(Stopwatch::Unstarted{});
  if (hists != nullptr) lap.reset();
  std::vector<double> scores =
      network_->infer_logits<P>(hidden_block, x_block);
  if (hists != nullptr) hists->gemm->record(lap.lap_ns());
  for (double& s : scores) s = pp::sigmoid(s);
  if (hists != nullptr) hists->sigmoid->record(lap.elapsed_ns());
  return scores;
}

template std::vector<double> RnnModel::score_session_batch<train::F32>(
    const tensor::Matrix&, const tensor::Matrix&) const;
template std::vector<double> RnnModel::score_session_batch<train::Int8>(
    const tensor::QuantizedMatrix&, const tensor::Matrix&) const;

void RnnModel::enable_quantized_serving() { network_->prepare_quantized(); }

void RnnModel::save(const std::string& path) const {
  BinaryWriter writer;
  network_->serialize(writer);
  writer.save_file(path);
}

void RnnModel::load(const std::string& path) {
  BinaryReader reader = BinaryReader::from_file(path);
  // RnnNetwork::deserialize refreshes an enabled quantized serving mode.
  network_->deserialize(reader);
}

}  // namespace pp::models
