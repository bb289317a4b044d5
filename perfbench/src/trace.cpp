#include "trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_next_tracer_id{1};

struct ThreadCache {
  std::uint64_t tracer_id = 0;
  void* log = nullptr;
};
thread_local ThreadCache t_cache;

/// Session context of the calling thread, for TracedKv attribution: a
/// score_sessions call makes one state lookup per session in batch order;
/// a completion reads and writes its own session's user.
struct SessionContext {
  std::span<const serving::SessionStart> batch;
  std::size_t next = 0;
  std::uint64_t session_id = 0;
};
thread_local SessionContext t_session;

std::uint64_t current_session() {
  SessionContext& c = t_session;
  if (c.next < c.batch.size()) return c.batch[c.next++].session_id;
  return c.session_id;
}

std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kService: return "service";
    case Layer::kScore: return "score";
    case Layer::kComplete: return "complete";
    case Layer::kKvGet: return "kv_get";
    case Layer::kKvPut: return "kv_put";
    case Layer::kEncode: return "encode";
    case Layer::kPublish: return "publish";
  }
  return "?";
}

Tracer::Tracer() : id_(g_next_tracer_id.fetch_add(1)) {}

Tracer::ThreadLog& Tracer::local() {
  if (t_cache.tracer_id != id_) {
    auto log = std::make_unique<ThreadLog>();
    log->spans.reserve(1 << 16);
    t_cache.log = log.get();
    t_cache.tracer_id = id_;
    pp::MutexLock lock(mu_);
    logs_.push_back(std::move(log));
  }
  return *static_cast<ThreadLog*>(t_cache.log);
}

void Tracer::record(Layer layer, std::uint64_t session_id,
                    std::int64_t start_ns, std::int64_t dur_ns,
                    std::uint32_t count) {
  if (!active()) return;
  local().spans.push_back(Span{session_id, start_ns, dur_ns, count, layer});
}

std::vector<Span> Tracer::collect() const {
  pp::MutexLock lock(mu_);
  std::vector<Span> all;
  for (const auto& log : logs_) {
    all.insert(all.end(), log->spans.begin(), log->spans.end());
  }
  return all;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "session_id\tlayer\tstart_ns\tdur_ns\tcount\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu\t%s\t%lld\t%lld\t%u\n",
                 static_cast<unsigned long long>(s.session_id),
                 layer_name(s.layer), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.dur_ns), s.count);
  }
  return std::fclose(f) == 0;
}

std::optional<std::vector<std::uint8_t>> TracedKv::get(
    const std::string& key) {
  const std::uint64_t session = current_session();
  const std::int64_t t0 = now_ns();
  std::optional<std::vector<std::uint8_t>> value = inner_.get(key);
  const std::int64_t t1 = now_ns();
  tracer_.record(Layer::kKvGet, session, t0, t1 - t0,
                 value ? static_cast<std::uint32_t>(value->size()) : 0);
  return value;
}

void TracedKv::put(const std::string& key, std::vector<std::uint8_t> value) {
  const std::uint64_t session = current_session();
  const auto bytes = static_cast<std::uint32_t>(value.size());
  const std::int64_t t0 = now_ns();
  inner_.put(key, std::move(value));
  const std::int64_t t1 = now_ns();
  tracer_.record(Layer::kKvPut, session, t0, t1 - t0, bytes);
}

std::vector<double> ObservedPolicy::score_sessions(
    std::span<const serving::SessionStart> sessions) {
  const std::int64_t t0 = now_ns();
  if (tracer_ != nullptr) t_session = SessionContext{sessions, 0, 0};
  std::vector<double> scores = inner_.score_sessions(sessions);
  const std::int64_t t1 = now_ns();
  if (tracer_ != nullptr) {
    t_session = SessionContext{};
    if (!sessions.empty()) {
      tracer_->record(Layer::kScore, sessions.front().session_id, t0, t1 - t0,
                      static_cast<std::uint32_t>(sessions.size()));
    }
  }
  if (log_ != nullptr) {
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const std::size_t slot = log_->slot(sessions[i].session_id);
      if (slot == static_cast<std::size_t>(-1)) {
        log_->foreign.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      log_->start_ns[slot] = t0;
      log_->end_ns[slot] = t1;
      log_->score[slot] = scores[i];
      ++log_->scored[slot];
    }
  }
  return scores;
}

void ObservedPolicy::on_session_complete(
    const serving::JoinedSession& joined) {
  if (tracer_ == nullptr) {
    inner_.on_session_complete(joined);
    return;
  }
  t_session = SessionContext{{}, 0, joined.session_id};
  const std::int64_t t0 = now_ns();
  inner_.on_session_complete(joined);
  const std::int64_t t1 = now_ns();
  t_session = SessionContext{};
  tracer_->record(Layer::kComplete, joined.session_id, t0, t1 - t0);
}

void set_alloc_counting(bool on) { g_count_allocs.store(on); }
std::uint64_t allocations() { return g_allocs.load(); }

}  // namespace perfbench

// Counting replacements of the global (non-aligned) allocation functions.
// Every form is replaced, so each new pairs with the matching free even
// when a sanitizer runtime supplies its own defaults.
void* operator new(std::size_t size) {
  if (perfbench::g_count_allocs.load(std::memory_order_relaxed)) {
    perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
