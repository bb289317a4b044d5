#include "online/model_registry.hpp"

#include <stdexcept>

namespace pp::online {

namespace {

/// The geometry contract a publish must keep: everything that determines
/// the layout of stored per-user hidden states and of the encoded inputs.
/// (mlp_hidden / dropout / latent_cross may differ — they only change the
/// head — but keeping the full architecture fixed is the simpler, safer
/// contract for hot-swap.)
void check_geometry(const models::RnnModel& a, const models::RnnModel& b) {
  const auto& ca = a.network().config();
  const auto& cb = b.network().config();
  const bool same = ca.feature_size == cb.feature_size &&
                    ca.time_buckets == cb.time_buckets &&
                    ca.hidden_size == cb.hidden_size &&
                    ca.mlp_hidden == cb.mlp_hidden &&
                    ca.cell == cb.cell && ca.num_layers == cb.num_layers &&
                    ca.latent_cross == cb.latent_cross &&
                    a.timeshift() == b.timeshift();
  if (!same) {
    throw std::invalid_argument(
        "ModelRegistry::publish: network geometry differs from the seed "
        "version (stored hidden states would become unreadable)");
  }
}

}  // namespace

ModelRegistry::ModelRegistry(std::shared_ptr<models::RnnModel> initial)
    : ModelRegistry(initial, initial && initial->quantized_serving()) {}

ModelRegistry::ModelRegistry(std::shared_ptr<models::RnnModel> initial,
                             bool quantize_replicas)
    : quantize_replicas_(quantize_replicas) {
  if (!initial) {
    throw std::invalid_argument("ModelRegistry: null initial model");
  }
  initial->network().set_training(false);
  if (quantize_replicas_ && !initial->quantized_serving()) {
    initial->enable_quantized_serving();
  }
  auto version = std::make_shared<ModelVersion>();
  version->version = next_version_++;
  version->model = std::move(initial);
  history_.push_back(version);
  current_.store(version, std::memory_order_release);
}

std::uint64_t ModelRegistry::publish(
    std::shared_ptr<models::RnnModel> model) {
  if (!model) {
    throw std::invalid_argument("ModelRegistry::publish: null model");
  }
  MutexLock lock(writer_mutex_);
  check_geometry(*history_.back()->model, *model);
  // Fully initialize the version *before* it becomes visible: inference
  // mode, and int8 replicas rebuilt from these exact f32 weights so a
  // kInt8 reader can never pair new weights with stale replicas (or vice
  // versa). enable_quantized_serving() rebuilds unconditionally.
  model->network().set_training(false);
  if (quantize_replicas_) model->enable_quantized_serving();

  auto version = std::make_shared<ModelVersion>();
  version->version = next_version_++;
  version->model = std::move(model);
  history_.push_back(version);
  if (history_.size() > kMaxHistory) {
    history_.erase(history_.begin());
  }
  current_.store(version, std::memory_order_release);
  ++stats_.publishes;
  return version->version;
}

std::shared_ptr<const ModelVersion> ModelRegistry::previous() const {
  MutexLock lock(writer_mutex_);
  if (history_.size() < 2) return nullptr;
  return history_[history_.size() - 2];
}

bool ModelRegistry::rollback() {
  MutexLock lock(writer_mutex_);
  if (history_.size() < 2) return false;
  history_.pop_back();
  current_.store(history_.back(), std::memory_order_release);
  ++stats_.rollbacks;
  return true;
}

ModelRegistryStats ModelRegistry::stats() const {
  MutexLock lock(writer_mutex_);
  return stats_;
}

}  // namespace pp::online
