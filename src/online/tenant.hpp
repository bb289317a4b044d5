// One-call tenant registration. A TenantSpec names everything a serving
// tenant needs — cohort id, version-1 model, KV backend, state codec,
// score precision, joiner window/grace, learner + daemon config, optional
// checkpoint/journal durability — and CohortRegistryMap::register_tenant()
// turns it into a ready ServingStack: KV store + hidden-state store +
// registry-backed policy + PrecomputeService, completion listener feeding
// the cohort's learner (journal-first when durable), daemon start/stop
// through the handle, and a metrics-registry view (labelled cohort=<id>)
// that exports the stack's *Stats on every scrape. Every cross-field
// validation (duplicate id, bad KV geometry, int8 precision without an
// int8 codec or int8 replicas) fails at registration with
// std::invalid_argument — not at first use on a serving thread.
//
// Teardown order is encoded in the map's member order: stacks are
// destroyed before cohorts (a policy may be mid-reference to its
// registry), and the map's destructor stops every daemon before either.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "online/cohort_map.hpp"
#include "serving/hidden_store.hpp"
#include "serving/precompute_service.hpp"
#include "storage/kv_factory.hpp"
#include "storage/replay_journal.hpp"

namespace pp::online {

struct TenantSpec {
  /// Cohort id; also becomes the learner's metrics cohort label.
  std::string id;
  /// Version-1 weights. The registry takes shared ownership.
  std::shared_ptr<models::RnnModel> model;
  /// Schema/meta source for the learner's trainer; must outlive the map
  /// (same contract as CohortRegistryMap::create()).
  const data::Dataset* dataset_meta = nullptr;

  storage::KvBackendSpec backend;  // local | sharded(n) | durable(dir)
  serving::StateCodec codec = serving::StateCodec::kFloat32;
  serving::ScorePrecision precision = serving::ScorePrecision::kFloat32;
  double threshold = 0.5;

  /// Joiner window (session length) and grace. window <= 0 means "use
  /// dataset_meta->session_length".
  std::int64_t window = 0;
  std::int64_t grace = 0;
  /// Day-bucketing epoch for OnlineMetrics; kUseDatasetStart means "use
  /// dataset_meta->start_time".
  static constexpr std::int64_t kUseDatasetStart =
      std::numeric_limits<std::int64_t>::min();
  std::int64_t metrics_start = kUseDatasetStart;

  /// Learner / replica / daemon wiring (cohort label is stamped with id).
  CohortConfig cohort;

  /// Feed joined sessions to the cohort's learner via the completion
  /// listener. false = frozen tenant: serve only, capture nothing.
  bool capture = true;
  /// When non-empty: load the learner's training state from this path at
  /// registration (missing file = fresh start, reported by
  /// ServingStack::resumed_from_checkpoint()). Periodic saves are the
  /// daemon's job — set cohort.daemon.checkpoint_path for that.
  std::string learner_checkpoint;
  /// When non-empty: capture goes journal-first through a ReplayJournal in
  /// this directory (created if missing), and registration replays any
  /// existing journal into the learner before serving starts.
  std::string replay_journal_dir;
  /// Start the cohort's update daemon before register_tenant returns.
  bool start_daemon = false;
};

/// A ready-to-serve tenant: every piece wired, addresses stable for the
/// owning CohortRegistryMap's lifetime.
class ServingStack {
 public:
  ~ServingStack();
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  const std::string& id() const { return id_; }
  storage::KvBackendKind backend_kind() const { return backend_kind_; }

  CohortRegistryMap::Cohort& cohort() { return *cohort_; }
  serving::KvStore& kv() { return *kv_; }
  serving::HiddenStateStore& hidden_store() { return *hidden_store_; }
  serving::RnnPolicy& policy() { return *policy_; }
  serving::PrecomputeService& service() { return *service_; }

  /// nullptr unless the spec named a replay_journal_dir.
  storage::ReplayJournal* journal() { return journal_.get(); }

  bool resumed_from_checkpoint() const { return resumed_from_checkpoint_; }
  std::size_t replayed_journal_sessions() const {
    return replayed_journal_sessions_;
  }

  /// Daemon lifecycle through the handle. start_daemon() is idempotent;
  /// stop_daemon() joins the background thread. The destructor (and the
  /// owning map's) stops a still-running daemon.
  void start_daemon();
  void stop_daemon();
  bool daemon_running() const { return daemon_started_; }

  /// Flushes the durable pieces (journal + durable KV) if present.
  void flush_durable();

 private:
  friend class CohortRegistryMap;
  ServingStack() = default;

  std::string id_;
  storage::KvBackendKind backend_kind_ = storage::KvBackendKind::kLocal;
  CohortRegistryMap::Cohort* cohort_ = nullptr;
  std::unique_ptr<serving::KvStore> kv_;
  std::unique_ptr<serving::HiddenStateStore> hidden_store_;
  std::unique_ptr<storage::ReplayJournal> journal_;
  std::unique_ptr<serving::RnnPolicy> policy_;
  std::unique_ptr<serving::PrecomputeService> service_;
  bool resumed_from_checkpoint_ = false;
  std::size_t replayed_journal_sessions_ = 0;
  bool daemon_started_ = false;
  /// Declared last so it is destroyed first: no scrape reads the stack
  /// once teardown begins.
  obs::MetricsRegistry::View view_;
};

}  // namespace pp::online
