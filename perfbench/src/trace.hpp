// Outside-in tracing: spans recorded around calls into the public
// interfaces of each layer, kept in per-thread memory keyed by session_id
// and collected when the run ends. Nothing here reaches inside src/.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "util/mutex.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kService,   // PrecomputeService::on_session_starts / on_access
  kScore,     // PrecomputePolicy::score_sessions (count = sessions)
  kComplete,  // PrecomputePolicy::on_session_complete
  kKvGet,     // KvStore::get (count = bytes)
  kKvPut,     // KvStore::put (count = bytes)
  kEncode,    // encode_event over one chunk (count = frames)
  kPublish,   // EventBus::publish of one chunk (count = frames)
};
const char* layer_name(Layer layer);

struct Span {
  std::uint64_t session_id = 0;  // first session of a batched call
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint32_t count = 1;
  Layer layer = Layer::kService;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Spans are dropped while inactive (warm-up epochs, final flush).
  void set_active(bool active) { active_.store(active); }
  bool active() const { return active_.load(std::memory_order_relaxed); }

  void record(Layer layer, std::uint64_t session_id, std::int64_t start_ns,
              std::int64_t dur_ns, std::uint32_t count = 1);
  /// Merges every thread's spans. Call only while no thread records.
  std::vector<Span> collect() const;

 private:
  struct ThreadLog {
    std::vector<Span> spans;
  };
  ThreadLog& local();

  const std::uint64_t id_;
  std::atomic<bool> active_{false};
  mutable pp::Mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_ PP_GUARDED_BY(mu_);
};

/// Writes `spans` as TSV (session_id, layer, start_ns, dur_ns, count).
bool write_spans(const std::string& path, const std::vector<Span>& spans);

/// KvStore decorator: times get/put and attributes each call to the
/// session the calling thread is serving (set by ObservedPolicy).
class TracedKv final : public serving::KvStore {
 public:
  TracedKv(serving::KvStore& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::optional<std::vector<std::uint8_t>> get(const std::string& key)
      override;
  void put(const std::string& key, std::vector<std::uint8_t> value) override;
  bool erase(const std::string& key) override { return inner_.erase(key); }
  bool contains(const std::string& key) const override {
    return inner_.contains(key);
  }
  std::size_t size() const override { return inner_.size(); }
  std::size_t value_bytes() const override { return inner_.value_bytes(); }
  serving::KvStats stats() const override { return inner_.stats(); }
  void reset_stats() override { inner_.reset_stats(); }

 private:
  serving::KvStore& inner_;
  Tracer& tracer_;
};

/// PrecomputePolicy decorator. Untraced it only stamps each scored
/// session's return time and score into the epoch's DecisionLog (the
/// decision-latency clock and the exactly-once check); traced it also
/// records score/complete spans and the session context for TracedKv.
class ObservedPolicy final : public serving::PrecomputePolicy {
 public:
  ObservedPolicy(serving::PrecomputePolicy& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void set_log(DecisionLog* log) { log_ = log; }

  double score_session(std::uint64_t user_id, std::int64_t t,
                       std::span<const std::uint32_t> context) override {
    return inner_.score_session(user_id, t, context);
  }
  std::vector<double> score_sessions(
      std::span<const serving::SessionStart> sessions) override;
  void on_session_complete(const serving::JoinedSession& joined) override;
  void begin_batch() override PP_REQUIRES(serial_) {
    pp::SerialSection serial(inner_.serial_token());
    inner_.begin_batch();
  }
  bool concurrent_safe() const override { return inner_.concurrent_safe(); }
  serving::ServingCostSummary cost_summary() const override {
    return inner_.cost_summary();
  }
  const char* name() const override { return inner_.name(); }

 private:
  serving::PrecomputePolicy& inner_;
  Tracer* tracer_;
  DecisionLog* log_ = nullptr;
};

/// Global operator new counter (off unless enabled; one relaxed load per
/// allocation while off).
void set_alloc_counting(bool on);
std::uint64_t allocations();

}  // namespace perfbench
