// Versioned model registry with atomic hot-swap — the publish half of the
// §10 "reusable models" loop.
//
// Readers (serving policies) acquire an immutable `shared_ptr<const
// ModelVersion>` snapshot RCU-style and keep scoring against it for as
// long as they like; a publish builds the next fully-initialized version
// off to the side (int8 weight replicas included, when the registry serves
// a quantized tier) and swaps one atomic pointer. No reader ever takes the
// writer mutex, no reader ever observes a half-updated model, and old
// versions stay alive until their last reader drops the snapshot.
//
// The score path itself doesn't even touch the atomic: RnnPolicy re-pins
// its snapshot only at PrecomputeService batch-group boundaries (under the
// service mutex), so one snapshot group is always scored by exactly one
// version — the invariant the deterministic hot-swap replay tests pin.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "models/rnn_model.hpp"
#include "util/mutex.hpp"

namespace pp::online {

/// One immutable published version. `model` is never mutated after
/// publish; replacing the version is the only way to change weights.
struct ModelVersion {
  std::uint64_t version = 0;
  std::shared_ptr<const models::RnnModel> model;
};

struct ModelRegistryStats {
  std::size_t publishes = 0;
  std::size_t rollbacks = 0;
};

class ModelRegistry {
 public:
  /// Seeds version 1 with `initial`; replica policy is inferred — int8
  /// replicas are rebuilt per publish iff `initial` already has quantized
  /// serving enabled.
  explicit ModelRegistry(std::shared_ptr<models::RnnModel> initial);
  /// Explicit replica policy: when `quantize_replicas` is true every
  /// published version gets its int8 weight replicas (re)built before the
  /// swap — required when any reader serves ScorePrecision::kInt8, so the
  /// quantized tier never observes a version whose replicas lag its f32
  /// weights.
  ModelRegistry(std::shared_ptr<models::RnnModel> initial,
                bool quantize_replicas);

  /// Lock-free reader snapshot (libstdc++ backs the atomic shared_ptr
  /// load with a tiny spinlock, never the writer mutex).
  std::shared_ptr<const ModelVersion> current() const {
    return current_.load(std::memory_order_acquire);
  }
  std::uint64_t current_version() const { return current()->version; }
  /// The retained version just below current (nullptr at the seed). What
  /// rollback() would restore — the learner scores it when deciding
  /// whether a drifted publish should be reverted.
  std::shared_ptr<const ModelVersion> previous() const;

  /// Atomically publishes `model` as the next version. Validates that the
  /// network geometry matches the seed version (stored per-user hidden
  /// states must stay readable across swaps; throws std::invalid_argument
  /// on mismatch), switches the model to inference mode, and rebuilds the
  /// int8 replicas when configured — all *before* the pointer swap.
  /// Returns the new version number.
  std::uint64_t publish(std::shared_ptr<models::RnnModel> model);

  /// Reverts to the previous retained version (bounded history). Returns
  /// false when already at the oldest retained version.
  bool rollback();

  ModelRegistryStats stats() const;
  bool quantize_replicas() const { return quantize_replicas_; }

 private:
  static constexpr std::size_t kMaxHistory = 4;

  bool quantize_replicas_;
  mutable Mutex writer_mutex_;
  std::atomic<std::shared_ptr<const ModelVersion>> current_;
  /// Retained versions, oldest first; back() == current.
  std::vector<std::shared_ptr<const ModelVersion>> history_
      PP_GUARDED_BY(writer_mutex_);
  std::uint64_t next_version_ PP_GUARDED_BY(writer_mutex_) = 1;
  ModelRegistryStats stats_ PP_GUARDED_BY(writer_mutex_);
};

}  // namespace pp::online
