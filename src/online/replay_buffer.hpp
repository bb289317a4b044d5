// Bounded session replay buffer — the capture half of the §10 "reusable
// models" loop. Completed labeled sessions flow out of the serving tier's
// stream joiner into this buffer; the OnlineLearner periodically compiles
// its contents into a Dataset snapshot and runs incremental fits on it.
//
// Retention under the default FIFO-with-recency admission is bounded by
// two caps:
//  * a per-user cap, so a heavy user's firehose cannot crowd the cohort
//    out of the buffer (their own oldest sessions go first), and
//  * a global capacity, evicting the globally oldest retained session
//    (across users) once exceeded.
// Both evictions drop from the *old* end, so the buffer always holds the
// most recent behaviour — what an online learner should be tracking.
//
// The alternative kReservoir admission targets heavy-tailed cohorts whose
// recent window is dominated by a bursty minority: Algorithm R keeps a
// uniform sample *over the whole observed stream* (each of the n observed
// sessions is retained with probability capacity/n, independent of arrival
// order or owner), trading recency for coverage. The sampler is seeded and
// fully deterministic for a given (seed, stream) pair.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "data/dataset.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"

namespace pp::online {

/// How `add` decides what the bounded buffer retains once full.
enum class AdmissionPolicy {
  /// Evict oldest-first (per-user cap + global capacity): the buffer
  /// tracks the most recent behaviour.
  kFifoRecency,
  /// Reservoir sampling (Algorithm R): a uniform sample over the entire
  /// observed stream. The per-user cap is NOT applied — it would bias the
  /// uniform-over-stream guarantee (heavy users are represented exactly in
  /// proportion to their share of the stream).
  kReservoir,
};

struct ReplayBufferConfig {
  /// Global bound on buffered sessions (the reservoir size in kReservoir).
  std::size_t capacity = 100000;
  /// Per-user bound (heavy users don't dominate the replay set). Ignored
  /// under kReservoir.
  std::size_t per_user_cap = 512;
  AdmissionPolicy admission = AdmissionPolicy::kFifoRecency;
  /// Seed for the kReservoir admission draws (deterministic replay).
  std::uint64_t admission_seed = 42;
};

struct ReplayBufferStats {
  std::size_t observed = 0;
  std::size_t evicted_user_cap = 0;
  std::size_t evicted_capacity = 0;
  /// kReservoir only: retained sessions replaced by a later admission.
  std::size_t evicted_reservoir = 0;
  /// kReservoir only: observed sessions the sampler never admitted.
  std::size_t rejected_reservoir = 0;

  /// Every field once, as f(name, value); exported as pp_replay_<name>.
  template <class F>
  void for_each_field(F&& f) const {
    f("observed", observed);
    f("evicted_user_cap", evicted_user_cap);
    f("evicted_capacity", evicted_capacity);
    f("evicted_reservoir", evicted_reservoir);
    f("rejected_reservoir", rejected_reservoir);
  }
};

/// Thread-safe: the serving tier adds from its completion callback while
/// the learner snapshots from an update thread; one internal mutex guards
/// everything (the add path is O(1) amortized).
class SessionReplayBuffer {
 public:
  explicit SessionReplayBuffer(ReplayBufferConfig config);

  /// Captures one completed (context, access) session.
  void add(std::uint64_t user_id, std::int64_t session_start,
           const std::array<std::uint32_t, data::kMaxContextFields>& context,
           bool access);

  std::size_t size() const;
  std::size_t user_count() const;
  /// Diagnostic: live arrival-FIFO length (compaction bounds it at ~2x
  /// capacity even when only the per-user cap is evicting).
  std::size_t arrival_entries() const;
  /// Largest session_start observed (not evicted-aware); 0 when empty.
  std::int64_t latest_time() const;
  ReplayBufferStats stats() const;

  /// Compiles the retained sessions with session_start < `until` (0 keeps
  /// all) into a Dataset: meta fields (schema, session length, latency,
  /// timeshift, peak) are copied from `meta`, start/end_time are the day
  /// bounds of the included sessions, and each user's log is ascending by
  /// timestamp. Users with no included sessions are omitted.
  data::Dataset snapshot(const data::Dataset& meta,
                         std::int64_t until = 0) const;

 private:
  struct Entry {
    data::Session session;
    std::uint64_t seq = 0;  // global arrival order
  };

  void evict_capacity_locked() PP_REQUIRES(mutex_);
  /// Drops arrival-FIFO entries already evicted by the per-user cap
  /// (bounds arrival_ at ~2x capacity).
  void compact_arrival_locked() PP_REQUIRES(mutex_);
  /// Algorithm R admission: below capacity every entry is retained; past
  /// it, observation n replaces a uniformly random retained slot with
  /// probability capacity/n.
  void add_reservoir_locked(std::uint64_t user_id, Entry entry)
      PP_REQUIRES(mutex_);

  ReplayBufferConfig config_;
  mutable Mutex mutex_;
  std::unordered_map<std::uint64_t, std::deque<Entry>> per_user_
      PP_GUARDED_BY(mutex_);
  /// Global arrival FIFO of (user_id, seq); entries already evicted by the
  /// per-user cap are skipped lazily when the capacity bound pops them.
  /// Unused under kReservoir.
  std::deque<std::pair<std::uint64_t, std::uint64_t>> arrival_
      PP_GUARDED_BY(mutex_);
  /// kReservoir only: the retained slots as (user_id, seq), replaceable in
  /// O(1) by a uniform index draw.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> reservoir_
      PP_GUARDED_BY(mutex_);
  Rng admission_rng_ PP_GUARDED_BY(mutex_){0};
  std::uint64_t next_seq_ PP_GUARDED_BY(mutex_) = 0;
  std::size_t total_ PP_GUARDED_BY(mutex_) = 0;
  std::int64_t latest_time_ PP_GUARDED_BY(mutex_) = 0;
  ReplayBufferStats stats_ PP_GUARDED_BY(mutex_);
};

}  // namespace pp::online
