// Shared declarations of the serving-loop benchmark.
//
// A run assembles the §9 stack by hand (KV backend -> HiddenStateStore ->
// RnnPolicy -> PrecomputeService), feeds it seeded ingest::LoadGenerator
// events in epochs, and checks its outputs. Layers are measured from
// outside: decorators over the public KvStore / PrecomputePolicy
// interfaces, timing of the bus and service calls the benchmark makes
// itself, and probes of the model layers at the workload's geometry.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.hpp"
#include "ingest/consumer.hpp"
#include "ingest/event_bus.hpp"
#include "ingest/load_gen.hpp"
#include "ingest/wire.hpp"
#include "models/rnn_model.hpp"
#include "serving/hidden_store.hpp"
#include "serving/kv_store.hpp"
#include "serving/precompute_service.hpp"

namespace perfbench {

namespace data = pp::data;
namespace ingest = pp::ingest;
namespace models = pp::models;
namespace serving = pp::serving;

/// Monotonic wall clock and process CPU (all threads), in nanoseconds.
std::int64_t now_ns();
std::int64_t process_cpu_ns();
/// Busy-waits until now_ns() reaches `due`, pausing between polls so a
/// sibling hardware thread keeps its share of the core.
void spin_until(std::int64_t due);

/// Exact nearest-rank quantile of `v` (sorted in place); 0 when empty.
double quantile(std::vector<std::int64_t>& v, double q);

enum class Loop {
  kClosedBus,  // unthrottled producers, kBlock bus, consumer scores inline
  kReplay,     // the benchmark calls the service directly, one thread
  kOpenBus,    // one pacer publishes on a fixed schedule
};

struct WorkloadSpec {
  const char* name;
  Loop loop;
  std::size_t hidden;
  std::size_t mlp;
  bool int8;
  bool durable;
  /// LoadGenerator lanes per epoch (bus lanes for the bus workloads).
  std::size_t lanes;
  std::size_t sessions_per_lane;  // per epoch
  std::size_t frames_per_chunk;
  std::size_t lane_capacity;
  std::size_t pool_workers;  // consumer scoring pool; 0 = inline
  double events_per_s;       // open loop only
  /// Wall time of one epoch on the reference host (BENCHMARK.json's
  /// host): a run of S seconds is round(S / epoch_seconds) timed epochs,
  /// a fixed amount of work, so a faster build finishes sooner instead of
  /// growing a bigger KV working set.
  double epoch_seconds;
};

/// Timed epochs of a run of `seconds` on the reference host (at least 3;
/// one more epoch warms up).
std::size_t timed_epochs(const WorkloadSpec& spec, double seconds);

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(std::string_view name);

inline constexpr std::uint64_t kUniverse = 1u << 20;  // users, Zipf(0.99)
inline constexpr std::size_t kBatchCapacity = 256;    // consumer default
inline constexpr double kThreshold = 0.5;
/// Decisions per latency window; its nearest-rank p99 is its largest
/// sample. A window spans ~7 ms of the open loop, so a host stall of a few
/// ms, which delays every decision queued behind it, spoils few windows.
inline constexpr std::size_t kLatencyWindow = 100;
/// Open-loop pacer lateness that marks a stall of the pacer itself: four
/// inter-arrival gaps at 20k events/s, while a running pacer's lateness p99
/// stays under 20 µs.
inline constexpr std::int64_t kPacerStallNs = 200000;

/// One slice of the event stream. Epoch e reads LoadGenerator lanes
/// [e*lanes, (e+1)*lanes) of one generator, so every epoch draws users from
/// the same Zipf universe, session ids never repeat, and event time is
/// shifted to continue where the previous epoch ended.
struct Epoch {
  std::size_t index = 0;
  std::vector<std::vector<ingest::Event>> lanes;  // publish order per lane
  std::vector<ingest::Event> merged;              // canonical (t, seq) order
  std::vector<std::uint8_t> origin;               // lane of merged[i]
  std::size_t contexts = 0;
};

class EventSource {
 public:
  static constexpr std::size_t kMaxEpochs = 4096;

  EventSource(const WorkloadSpec& spec, std::uint64_t seed,
              std::int64_t start_time, std::int64_t session_length);

  Epoch next();
  std::size_t sessions_per_epoch() const {
    return spec_.lanes * spec_.sessions_per_lane;
  }
  /// Dense index of `session_id` within epoch `epoch`, or npos when the id
  /// does not belong to that epoch.
  std::size_t slot(std::size_t epoch, std::uint64_t session_id) const;

 private:
  WorkloadSpec spec_;
  std::size_t lanes_total_;
  ingest::LoadGenerator gen_;
  std::int64_t start_time_;
  std::int64_t next_start_;
  std::size_t count_ = 0;
};

/// Per-epoch record of every context's decision, indexed by slot. Written
/// by the policy decorator (possibly from pool workers: each slot by the
/// one thread that scores its session) and by the event source's side
/// (due times).
struct DecisionLog {
  const EventSource* source = nullptr;
  std::size_t epoch = 0;
  std::vector<std::int64_t> due_ns;
  std::vector<std::int64_t> start_ns;  // score_sessions entry
  std::vector<std::int64_t> end_ns;    // score_sessions return
  std::vector<double> score;
  std::vector<std::uint8_t> scored;
  std::atomic<std::uint64_t> foreign{0};  // scored ids outside the epoch

  void reset(const EventSource& src, std::size_t e) {
    source = &src;
    epoch = e;
    const std::size_t n = src.sessions_per_epoch();
    due_ns.assign(n, 0);
    start_ns.assign(n, 0);
    end_ns.assign(n, 0);
    score.assign(n, 0.0);
    scored.assign(n, 0);
    foreign = 0;
  }
  std::size_t slot(std::uint64_t session_id) const {
    return source->slot(epoch, session_id);
  }
};

class Tracer;
class TracedKv;
class ObservedPolicy;

/// The hand-assembled serving stack of one workload. Member order is
/// teardown order reversed: the service goes first, the backend last.
struct Stack {
  Stack(const WorkloadSpec& spec, std::uint64_t seed, std::string durable_dir,
        Tracer* tracer);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  data::Dataset meta;
  std::shared_ptr<models::RnnModel> model;
  std::string durable_dir;
  std::unique_ptr<serving::KvStore> backend;
  std::unique_ptr<TracedKv> traced_kv;
  std::unique_ptr<serving::HiddenStateStore> states;
  std::unique_ptr<serving::RnnPolicy> policy;
  std::unique_ptr<ObservedPolicy> observed;
  std::unique_ptr<serving::PrecomputeService> service;
};

/// Everything a run's outputs must agree on when two runs see the same
/// events: decisions, online metrics, the cost ledger, joiner counts and
/// the final per-user states.
struct Outputs {
  std::uint64_t decisions_hash = 0;
  std::size_t predictions = 0;
  std::size_t prefetches = 0;
  std::size_t successful_prefetches = 0;
  std::size_t accesses = 0;
  std::vector<double> daily_pr_auc;
  std::size_t ledger_predictions = 0;
  std::size_t ledger_state_updates = 0;
  std::size_t ledger_model_flops = 0;
  std::size_t kv_lookups = 0;
  std::size_t kv_writes = 0;
  std::size_t kv_bytes_read = 0;
  std::size_t kv_bytes_written = 0;
  std::size_t joined = 0;
  std::uint64_t state_hash = 0;

  bool operator==(const Outputs&) const = default;
  std::string describe() const;
};

struct PassPlan {
  std::size_t epochs = 0;         // including warm-up epochs
  std::size_t warmup_epochs = 1;  // untimed epochs first
  /// Replay batch cut (the consumer's default); 1 replays event by event.
  std::size_t batch_capacity = kBatchCapacity;
  bool digest = false;            // fill PassResult::outputs.state_hash
};

struct PassResult {
  std::size_t epochs = 0;
  std::uint64_t events_attempted = 0;
  std::uint64_t contexts = 0;
  // Timed epochs only.
  std::uint64_t timed_contexts = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  // Throughput and CPU per session, one value per timed epoch, and
  // decision latency (due -> score return) quantiles per window of
  // kLatencyWindow consecutive decisions. A run reports medians over
  // epochs and windows, which keeps a stall of the host in a few of them
  // from moving the result; latency_all_ns keeps every sample for the
  // whole-run quantiles reported beside them.
  std::vector<std::int64_t> latency_all_ns;
  std::vector<double> epoch_sessions_per_s;
  std::vector<double> window_latency_p50_ns;
  std::vector<double> window_latency_p99_ns;
  std::vector<double> epoch_cpu_ns_per_session;
  std::vector<std::int64_t> hold_ns;     // due -> score call entry
  std::vector<std::int64_t> late_ns;     // open-loop pacer lateness
  std::uint64_t pacer_stalls = 0;        // schedule shifts (open loop)
  std::int64_t pacer_stall_ns = 0;       // time the schedule was shifted by
  std::int64_t service_ns = 0;           // bench-driven service calls
  std::uint64_t service_batches = 0;     // bench-driven on_session_starts
  std::uint64_t allocs = 0;              // operator new calls, traced only
  // Bus totals over every epoch.
  ingest::LaneStats bus;
  ingest::ConsumerStats consumer;
  // Failures: events lost or rejected, contexts not decided exactly once.
  std::uint64_t failed_events = 0;
  std::vector<std::string> check_failures;
  Outputs outputs;
  std::vector<std::uint64_t> users;  // distinct users, when digesting
  Epoch last_epoch;
};

PassResult run_pass(const WorkloadSpec& spec, Stack& stack,
                    EventSource& source, Epoch first, const PassPlan& plan,
                    Tracer* tracer);

/// FNV-1a over the stored state of every user in `users`.
std::uint64_t state_hash(Stack& stack, const std::vector<std::uint64_t>& users);

/// Shared by every workload: the small synthetic dataset whose schema
/// fixes the model's input layout.
data::Dataset make_meta();
models::RnnModelConfig model_config(const WorkloadSpec& spec,
                                    std::uint64_t seed);

}  // namespace perfbench
