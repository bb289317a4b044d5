// Workload table, event epochs, stack assembly and the three epoch
// loops (closed bus, direct replay, open-loop bus), plus the output
// checks every pass runs.
#include <algorithm>
#include <cmath>
#include <ctime>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "data/generators.hpp"
#include "storage/kv_factory.hpp"
#include "trace.hpp"
#include "util/thread.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

}  // namespace

std::int64_t now_ns() { return clock_ns(CLOCK_MONOTONIC); }
std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

void spin_until(std::int64_t due) {
  while (now_ns() < due) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

double quantile(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return static_cast<double>(v[rank]);
}

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> table = {
      // name, loop, d, mlp, int8, durable, lanes, sessions/lane/epoch,
      // frames/chunk, lane capacity, pool workers, events/s, epoch seconds
      {"ingest_saturate", Loop::kClosedBus, 16, 16, false, false, 3, 10000,
       32, 256, 0, 0.0, 0.13},
      {"replay_d128", Loop::kReplay, 128, 128, false, false, 4, 4000, 32, 256,
       0, 0.0, 0.235},
      {"open_d128", Loop::kOpenBus, 128, 128, false, false, 2, 1825, 1, 4096,
       2, 20000.0, 0.27},
      {"replay_int8_durable", Loop::kReplay, 128, 128, true, true, 4, 2500, 32,
       256, 0, 0.0, 0.21},
  };
  return table;
}

std::size_t timed_epochs(const WorkloadSpec& spec, double seconds) {
  const double epochs =
      std::clamp(std::round(seconds / spec.epoch_seconds), 3.0,
                 static_cast<double>(EventSource::kMaxEpochs - 1));
  return static_cast<std::size_t>(epochs);
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

data::Dataset make_meta() {
  data::MobileTabConfig config;
  config.num_users = 32;
  config.days = 2;
  return data::generate_mobile_tab(config);
}

models::RnnModelConfig model_config(const WorkloadSpec& spec,
                                    std::uint64_t seed) {
  models::RnnModelConfig config;
  config.hidden_size = spec.hidden;
  config.mlp_hidden = spec.mlp;
  config.seed = seed * 0x9E3779B97F4A7C15ull + 17;
  return config;
}

// ---------------------------------------------------------------- events

EventSource::EventSource(const WorkloadSpec& spec, std::uint64_t seed,
                         std::int64_t start_time, std::int64_t session_length)
    : spec_(spec),
      lanes_total_(spec.lanes * kMaxEpochs),
      gen_([&] {
        ingest::LoadGenConfig config;
        config.num_users = kUniverse;
        config.num_producers = spec.lanes * kMaxEpochs;
        config.sessions_per_producer = spec.sessions_per_lane;
        config.zipf_theta = 0.99;
        config.start_time = start_time;
        config.session_length = session_length;
        config.seed = seed ^ 0x5EEDF00Dull;
        config.frames_per_chunk = spec.frames_per_chunk;
        return config;
      }()),
      start_time_(start_time),
      next_start_(start_time) {}

Epoch EventSource::next() {
  if (count_ >= kMaxEpochs) throw std::length_error("EventSource: exhausted");
  Epoch ep;
  ep.index = count_;
  const std::int64_t shift = next_start_ - start_time_;
  std::int64_t max_t = next_start_;
  ep.lanes.resize(spec_.lanes);
  std::size_t total = 0;
  for (std::size_t p = 0; p < spec_.lanes; ++p) {
    ep.lanes[p] = gen_.lane_events(count_ * spec_.lanes + p);
    for (ingest::Event& ev : ep.lanes[p]) {
      ev.t += shift;
      max_t = std::max(max_t, ev.t);
      if (ev.kind == ingest::EventKind::kContext) ++ep.contexts;
    }
    total += ep.lanes[p].size();
  }
  std::vector<std::pair<const ingest::Event*, std::uint8_t>> order;
  order.reserve(total);
  for (std::size_t p = 0; p < spec_.lanes; ++p) {
    for (const ingest::Event& ev : ep.lanes[p]) {
      order.emplace_back(&ev, static_cast<std::uint8_t>(p));
    }
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.first->t != b.first->t ? a.first->t < b.first->t
                                    : a.first->seq < b.first->seq;
  });
  ep.merged.reserve(total);
  ep.origin.reserve(total);
  for (const auto& [ev, lane] : order) {
    ep.merged.push_back(*ev);
    ep.origin.push_back(lane);
  }
  next_start_ = max_t + 1;
  ++count_;
  return ep;
}

std::size_t EventSource::slot(std::size_t epoch,
                              std::uint64_t session_id) const {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  if (session_id == 0) return kNone;
  const std::uint64_t k = session_id - 1;
  const std::uint64_t s = k / lanes_total_;
  const std::uint64_t lane = k % lanes_total_;
  const std::uint64_t first = epoch * spec_.lanes;
  if (lane < first || lane >= first + spec_.lanes ||
      s >= spec_.sessions_per_lane) {
    return kNone;
  }
  return static_cast<std::size_t>(s * spec_.lanes + (lane - first));
}

// ----------------------------------------------------------------- stack

Stack::Stack(const WorkloadSpec& spec, std::uint64_t seed,
             std::string durable_dir_in, Tracer* tracer)
    : meta(make_meta()), durable_dir(std::move(durable_dir_in)) {
  model = std::make_shared<models::RnnModel>(meta, model_config(spec, seed));
  if (spec.int8) model->enable_quantized_serving();
  backend = pp::storage::make_kv_store(
      spec.durable ? pp::storage::KvBackendSpec::durable_dir(durable_dir)
                   : pp::storage::KvBackendSpec::sharded(8));
  serving::KvStore* kv = backend.get();
  if (tracer != nullptr) {
    traced_kv = std::make_unique<TracedKv>(*backend, *tracer);
    kv = traced_kv.get();
  }
  states = std::make_unique<serving::HiddenStateStore>(
      *kv, spec.int8 ? serving::StateCodec::kInt8
                     : serving::StateCodec::kFloat32);
  policy = std::make_unique<serving::RnnPolicy>(
      *model, *states,
      spec.int8 ? serving::ScorePrecision::kInt8
                : serving::ScorePrecision::kFloat32);
  observed = std::make_unique<ObservedPolicy>(*policy, tracer);
  service = std::make_unique<serving::PrecomputeService>(
      *observed, kThreshold, meta.session_length, /*grace=*/0,
      meta.start_time);
}

Stack::~Stack() = default;

// ---------------------------------------------------------------- digest

namespace {

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

void fnv(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
}

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;

}  // namespace

std::uint64_t state_hash(Stack& stack,
                         const std::vector<std::uint64_t>& users) {
  const pp::train::RnnNetwork& net = stack.model->network();
  const bool q8 = stack.states->codec() == serving::StateCodec::kInt8;
  std::uint64_t h = kFnvBasis;
  for (const std::uint64_t user : users) {
    fnv(h, &user, sizeof user);
    if (q8) {
      const auto s = stack.states->get_q8(user, net);
      if (!s) continue;
      const auto& hidden = s->state.hidden();
      const float scale = hidden.scale();
      fnv(h, hidden.data(), hidden.size());
      fnv(h, &scale, sizeof scale);
      fnv(h, &s->last_update_time, sizeof s->last_update_time);
      fnv(h, &s->updates, sizeof s->updates);
    } else {
      const auto s = stack.states->get(user, net);
      if (!s) continue;
      const auto& hidden = s->state.hidden();
      fnv(h, hidden.data(), hidden.size() * sizeof(float));
      fnv(h, &s->last_update_time, sizeof s->last_update_time);
      fnv(h, &s->updates, sizeof s->updates);
    }
  }
  return h;
}

std::string Outputs::describe() const {
  std::ostringstream os;
  os << "decisions=" << std::hex << decisions_hash << std::dec
     << " predictions=" << predictions << " prefetches=" << prefetches
     << " successful=" << successful_prefetches << " accesses=" << accesses
     << " days=" << daily_pr_auc.size()
     << " ledger(pred=" << ledger_predictions
     << " upd=" << ledger_state_updates << " macs=" << ledger_model_flops
     << " lookups=" << kv_lookups << " writes=" << kv_writes
     << " read=" << kv_bytes_read << " written=" << kv_bytes_written
     << ") joined=" << joined << " states=" << std::hex << state_hash;
  return os.str();
}

// ------------------------------------------------------------ epoch loops

namespace {

struct EpochWindow {
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::uint64_t failed_publish_frames = 0;
  bool has_consumer = false;
  ingest::ConsumerStats consumer;
  ingest::LaneStats bus;
};

void replay_epoch(Stack& st, const Epoch& ep, std::size_t batch_capacity,
                  DecisionLog& log, Tracer* tracer, PassResult& r, bool timed,
                  EpochWindow& w) {
  std::vector<serving::SessionStart> batch;
  std::vector<std::size_t> slots;
  batch.reserve(kBatchCapacity);
  slots.reserve(kBatchCapacity);
  auto timed_call = [&](std::int64_t t0, std::uint64_t session,
                        std::uint32_t count) {
    const std::int64_t t1 = now_ns();
    if (timed) r.service_ns += t1 - t0;
    if (tracer != nullptr) {
      tracer->record(Layer::kService, session, t0, t1 - t0, count);
    }
  };
  auto flush = [&] {
    if (batch.empty()) return;
    const std::int64_t t0 = now_ns();
    for (const std::size_t s : slots) {
      if (s != kNoSlot) log.due_ns[s] = t0;
    }
    st.service->on_session_starts(batch);
    timed_call(t0, batch.front().session_id,
               static_cast<std::uint32_t>(batch.size()));
    if (timed) ++r.service_batches;
    batch.clear();
    slots.clear();
  };
  const std::int64_t c0 = process_cpu_ns();
  const std::int64_t w0 = now_ns();
  for (const ingest::Event& ev : ep.merged) {
    if (ev.kind == ingest::EventKind::kContext) {
      batch.push_back(
          serving::SessionStart{ev.session_id, ev.user_id, ev.t, ev.context});
      slots.push_back(log.slot(ev.session_id));
      if (batch.size() >= batch_capacity) flush();
    } else {
      // Same cut as the consumer: the access must see every earlier start.
      flush();
      const std::int64_t t0 = now_ns();
      st.service->on_access(ev.session_id, ev.t);
      timed_call(t0, ev.session_id, 0);
    }
  }
  flush();
  w.wall_ns = now_ns() - w0;
  w.cpu_ns = process_cpu_ns() - c0;
}

/// Closed loop: one unthrottled producer thread per lane publishes its
/// lane's frames in chunks; kBlock backpressure throttles it to the
/// consumer. A context is due when the producer starts publishing the
/// chunk that carries it.
void closed_bus_epoch(const WorkloadSpec& spec, Stack& st, const Epoch& ep,
                      DecisionLog& log, Tracer* tracer, EpochWindow& w) {
  ingest::EventBusConfig bus_config;
  bus_config.num_lanes = spec.lanes;
  bus_config.lane_capacity = spec.lane_capacity;
  bus_config.backpressure = ingest::BackpressurePolicy::kBlock;
  ingest::EventBus bus(bus_config);
  ingest::ConsumerConfig consumer_config;
  consumer_config.batch_capacity = kBatchCapacity;
  ingest::IngestConsumer consumer(bus, *st.service, consumer_config);
  std::vector<std::uint64_t> failed(spec.lanes, 0);

  const std::int64_t c0 = process_cpu_ns();
  const std::int64_t w0 = now_ns();
  consumer.start();
  std::vector<pp::Thread> producers;
  producers.reserve(spec.lanes);
  for (std::size_t p = 0; p < spec.lanes; ++p) {
    producers.emplace_back([&, p] {
      const std::vector<ingest::Event>& events = ep.lanes[p];
      std::vector<std::uint8_t> chunk;
      std::vector<std::size_t> pending;
      std::size_t frames = 0;
      std::int64_t enc0 = 0;
      std::uint64_t first_session = 0;
      for (std::size_t i = 0; i < events.size(); ++i) {
        const ingest::Event& ev = events[i];
        if (frames == 0) {
          if (tracer != nullptr) enc0 = now_ns();
          first_session = ev.session_id;
        }
        ingest::encode_event(ev, &chunk);
        if (ev.kind == ingest::EventKind::kContext) {
          pending.push_back(log.slot(ev.session_id));
        }
        ++frames;
        if (frames < spec.frames_per_chunk && i + 1 < events.size()) continue;
        const std::int64_t t0 = now_ns();
        if (tracer != nullptr) {
          tracer->record(Layer::kEncode, first_session, enc0, t0 - enc0,
                         static_cast<std::uint32_t>(frames));
        }
        for (const std::size_t s : pending) {
          if (s != kNoSlot) log.due_ns[s] = t0;
        }
        const bool ok = bus.publish(p, std::move(chunk));
        if (tracer != nullptr) {
          tracer->record(Layer::kPublish, first_session, t0, now_ns() - t0,
                         static_cast<std::uint32_t>(frames));
        }
        if (!ok) failed[p] += frames;
        chunk = {};
        pending.clear();
        frames = 0;
      }
      bus.close(p);
    });
  }
  for (pp::Thread& t : producers) t.join();
  consumer.join();
  w.wall_ns = now_ns() - w0;
  w.cpu_ns = process_cpu_ns() - c0;
  for (const std::uint64_t f : failed) w.failed_publish_frames += f;
  w.has_consumer = true;
  w.consumer = consumer.stats();
  w.bus = bus.totals();
}

/// Open loop: the calling thread paces every event of the epoch onto its
/// origin lane as a one-frame chunk at spec.events_per_s, in (t, seq)
/// order, whatever the system does. It spins between due times; the CPU
/// it burns waiting is measured and excluded from the serving cost.
///
/// A pacer that finds itself kPacerStallNs or more behind its schedule was
/// descheduled (its publishes never block: the lanes hold far more than
/// the run ever queues, and a blocked publish is flagged). It then shifts
/// the rest of the schedule by its lateness instead of sending the missed
/// events in one burst, so a stall of the load generator neither counts as
/// decision latency nor queues a burst the program did not cause. The
/// lateness is still recorded, and the shifted time is left out of the
/// epoch's wall time.
void open_bus_epoch(const WorkloadSpec& spec, Stack& st, const Epoch& ep,
                    DecisionLog& log, Tracer* tracer, pp::ThreadPool* pool,
                    PassResult& r, bool timed, EpochWindow& w) {
  ingest::EventBusConfig bus_config;
  bus_config.num_lanes = spec.lanes;
  bus_config.lane_capacity = spec.lane_capacity;
  bus_config.backpressure = ingest::BackpressurePolicy::kBlock;
  ingest::EventBus bus(bus_config);
  ingest::ConsumerConfig consumer_config;
  consumer_config.batch_capacity = kBatchCapacity;
  consumer_config.pool = pool;
  ingest::IngestConsumer consumer(bus, *st.service, consumer_config);

  const double period_ns = 1e9 / spec.events_per_s;
  std::int64_t wait_cpu = 0;
  const std::int64_t c0 = process_cpu_ns();
  consumer.start();
  const std::int64_t start = now_ns() + 100000;  // first event due in 100µs
  std::int64_t shift = 0;
  for (std::size_t i = 0; i < ep.merged.size(); ++i) {
    const ingest::Event& ev = ep.merged[i];
    std::int64_t due = start + shift +
                       static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
    if (now_ns() < due) {
      const std::int64_t cpu0 = thread_cpu_ns();
      spin_until(due);
      wait_cpu += thread_cpu_ns() - cpu0;
    }
    const std::int64_t t0 = now_ns();
    if (timed) r.late_ns.push_back(t0 - due);
    if (t0 - due >= kPacerStallNs) {
      if (timed) {
        ++r.pacer_stalls;
        r.pacer_stall_ns += t0 - due;
      }
      shift += t0 - due;
      due = t0;
    }
    if (ev.kind == ingest::EventKind::kContext) {
      const std::size_t s = log.slot(ev.session_id);
      if (s != kNoSlot) log.due_ns[s] = due;
    }
    std::vector<std::uint8_t> chunk;
    ingest::encode_event(ev, &chunk);
    const std::int64_t t1 = now_ns();
    const bool ok = bus.publish(ep.origin[i], std::move(chunk));
    if (tracer != nullptr) {
      tracer->record(Layer::kEncode, ev.session_id, t0, t1 - t0, 1);
      tracer->record(Layer::kPublish, ev.session_id, t1, now_ns() - t1, 1);
    }
    if (!ok) ++w.failed_publish_frames;
  }
  bus.close_all();
  consumer.join();
  w.wall_ns = now_ns() - start - shift;
  w.cpu_ns = process_cpu_ns() - c0 - wait_cpu;
  w.has_consumer = true;
  w.consumer = consumer.stats();
  w.bus = bus.totals();
}

void accumulate(ingest::LaneStats& into, const ingest::LaneStats& s) {
  into.published += s.published;
  into.dropped += s.dropped;
  into.blocked += s.blocked;
  into.closed_rejects += s.closed_rejects;
  into.max_depth = std::max(into.max_depth, s.max_depth);
}

void accumulate(ingest::ConsumerStats& into, const ingest::ConsumerStats& s) {
  into.events += s.events;
  into.contexts += s.contexts;
  into.accesses += s.accesses;
  into.batches += s.batches;
  into.merge_rounds += s.merge_rounds;
  into.max_held = std::max(into.max_held, s.max_held);
  into.wire.frames_decoded += s.wire.frames_decoded;
  into.wire.crc_rejects += s.wire.crc_rejects;
  into.wire.header_rejects += s.wire.header_rejects;
  into.wire.resync_bytes += s.wire.resync_bytes;
}

void fail(PassResult& r, const std::string& what) {
  r.check_failures.push_back(what);
}

}  // namespace

// ------------------------------------------------------------------ pass

PassResult run_pass(const WorkloadSpec& spec, Stack& stack,
                    EventSource& source, Epoch first, const PassPlan& plan,
                    Tracer* tracer) {
  PassResult r;
  DecisionLog log;
  stack.observed->set_log(&log);
  std::unique_ptr<pp::ThreadPool> pool;
  if (spec.pool_workers > 0) {
    pool = std::make_unique<pp::ThreadPool>(spec.pool_workers);
  }
  std::uint64_t undecided = 0;
  std::uint64_t repeated = 0;
  std::uint64_t foreign = 0;
  std::uint64_t accesses = 0;
  std::uint64_t decisions_hash = kFnvBasis;
  Epoch ep = std::move(first);
  for (;;) {
    const bool timed = r.epochs >= plan.warmup_epochs;
    const bool traced = tracer != nullptr && timed;
    if (tracer != nullptr) tracer->set_active(timed);
    log.reset(source, ep.index);
    const std::uint64_t allocs0 = allocations();
    set_alloc_counting(traced);
    EpochWindow w;
    switch (spec.loop) {
      case Loop::kReplay:
        replay_epoch(stack, ep, plan.batch_capacity, log, tracer, r, timed, w);
        break;
      case Loop::kClosedBus:
        closed_bus_epoch(spec, stack, ep, log, tracer, w);
        break;
      case Loop::kOpenBus:
        open_bus_epoch(spec, stack, ep, log, tracer, pool.get(), r, timed, w);
        break;
    }
    set_alloc_counting(false);
    if (traced) r.allocs += allocations() - allocs0;
    if (tracer != nullptr) tracer->set_active(false);

    r.events_attempted += ep.merged.size();
    r.contexts += ep.contexts;
    accesses += ep.merged.size() - ep.contexts;
    r.failed_events += w.failed_publish_frames;
    if (w.has_consumer) {
      accumulate(r.consumer, w.consumer);
      accumulate(r.bus, w.bus);
      if (w.consumer.events != ep.merged.size()) {
        const std::uint64_t a = ep.merged.size();
        const std::uint64_t b = w.consumer.events;
        r.failed_events += a > b ? a - b : b - a;
        fail(r, "epoch " + std::to_string(ep.index) + ": consumed " +
                    std::to_string(b) + " of " + std::to_string(a) +
                    " events");
      }
    }
    foreign += log.foreign.load();
    const std::size_t n = log.scored.size();
    std::vector<std::int64_t> latency;
    if (timed) latency.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
      if (log.scored[s] == 0) {
        ++undecided;
        continue;
      }
      if (log.scored[s] > 1) ++repeated;
      fnv(decisions_hash, &ep.index, sizeof ep.index);
      fnv(decisions_hash, &s, sizeof s);
      fnv(decisions_hash, &log.score[s], sizeof(double));
      if (timed) {
        latency.push_back(log.end_ns[s] - log.due_ns[s]);
        if (tracer != nullptr) r.hold_ns.push_back(log.start_ns[s] - log.due_ns[s]);
      }
    }
    if (timed) {
      r.timed_contexts += ep.contexts;
      r.wall_ns += w.wall_ns;
      r.cpu_ns += w.cpu_ns;
      r.latency_all_ns.insert(r.latency_all_ns.end(), latency.begin(),
                              latency.end());
      r.epoch_sessions_per_s.push_back(static_cast<double>(ep.contexts) /
                                       (static_cast<double>(w.wall_ns) * 1e-9));
      // Slots run in event-time order, so each window is one stretch of
      // the epoch; a short tail joins the window before it.
      for (std::size_t i = 0; i + kLatencyWindow <= latency.size();
           i += kLatencyWindow) {
        const std::size_t end = latency.size() - i < 2 * kLatencyWindow
                                    ? latency.size()
                                    : i + kLatencyWindow;
        std::vector<std::int64_t> window(latency.begin() + i,
                                         latency.begin() + end);
        r.window_latency_p50_ns.push_back(quantile(window, 0.50));
        r.window_latency_p99_ns.push_back(quantile(window, 0.99));
      }
      r.epoch_cpu_ns_per_session.push_back(static_cast<double>(w.cpu_ns) /
                                           static_cast<double>(ep.contexts));
    }
    if (plan.digest) {
      for (const ingest::Event& ev : ep.merged) {
        if (ev.kind == ingest::EventKind::kContext) r.users.push_back(ev.user_id);
      }
    }
    ++r.epochs;
    if (r.epochs >= plan.epochs) break;
    ep = source.next();
  }
  r.last_epoch = std::move(ep);
  stack.service->flush();
  stack.observed->set_log(nullptr);

  // ---- output checks
  if (undecided > 0) {
    r.failed_events += undecided;
    fail(r, std::to_string(undecided) + " contexts never decided");
  }
  if (repeated > 0) fail(r, std::to_string(repeated) + " contexts decided twice");
  if (foreign > 0) fail(r, std::to_string(foreign) + " scored sessions not generated");
  if (r.bus.dropped > 0 || r.bus.closed_rejects > 0) {
    fail(r, "bus dropped " + std::to_string(r.bus.dropped) + " and rejected " +
                std::to_string(r.bus.closed_rejects) + " chunks under kBlock");
  }
  const std::uint64_t wire_rejects =
      r.consumer.wire.crc_rejects + r.consumer.wire.header_rejects;
  if (wire_rejects > 0 || r.consumer.wire.resync_bytes > 0) {
    r.failed_events += wire_rejects;
    fail(r, "wire rejects " + std::to_string(wire_rejects));
  }
  const serving::JoinerStats joiner = stack.service->joiner_stats();
  const serving::OnlineMetrics metrics = stack.service->metrics();
  const serving::ServingCostSummary ledger = stack.observed->cost_summary();
  if (joiner.contexts != r.contexts || joiner.joined != r.contexts) {
    fail(r, "joiner saw " + std::to_string(joiner.contexts) + " contexts and joined " +
                std::to_string(joiner.joined) + " of " + std::to_string(r.contexts));
  }
  if (joiner.accesses != accesses) {
    fail(r, "joiner saw " + std::to_string(joiner.accesses) + " of " +
                std::to_string(accesses) + " accesses");
  }
  if (metrics.predictions() != r.contexts) {
    fail(r, "online metrics recorded " + std::to_string(metrics.predictions()) +
                " of " + std::to_string(r.contexts) + " decisions");
  }
  if (ledger.predictions != r.contexts - undecided) {
    fail(r, "ledger predictions " + std::to_string(ledger.predictions) +
                " != sessions scored " + std::to_string(r.contexts - undecided));
  }
  if (ledger.state_updates != joiner.joined) {
    fail(r, "ledger state updates " + std::to_string(ledger.state_updates) +
                " != joined " + std::to_string(joiner.joined));
  }

  Outputs& o = r.outputs;
  o.decisions_hash = decisions_hash;
  o.predictions = metrics.predictions();
  o.prefetches = metrics.prefetches();
  o.successful_prefetches = metrics.successful_prefetches();
  o.accesses = metrics.accesses();
  o.daily_pr_auc = metrics.daily_pr_auc_series();
  o.ledger_predictions = ledger.predictions;
  o.ledger_state_updates = ledger.state_updates;
  o.ledger_model_flops = ledger.model_flops;
  o.kv_lookups = ledger.kv.lookups;
  o.kv_writes = ledger.kv.writes;
  o.kv_bytes_read = ledger.kv.bytes_read;
  o.kv_bytes_written = ledger.kv.bytes_written;
  o.joined = joiner.joined;
  if (plan.digest) {
    std::sort(r.users.begin(), r.users.end());
    r.users.erase(std::unique(r.users.begin(), r.users.end()), r.users.end());
    o.state_hash = state_hash(stack, r.users);
  }
  return r;
}

}  // namespace perfbench
