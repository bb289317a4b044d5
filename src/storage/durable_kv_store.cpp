#include "storage/durable_kv_store.hpp"

#include <utility>

#include "obs/metrics.hpp"

namespace pp::storage {

namespace {

/// Compaction duration.
obs::LatencyHistogram& compaction_ns() {
  static obs::LatencyHistogram& hist =
      obs::MetricsRegistry::global().histogram("pp_storage_compaction_ns");
  return hist;
}

}  // namespace

DurableKvStore::DurableKvStore(DurableKvConfig config)
    : config_(std::move(config)),
      log_(SegmentLogConfig{config_.dir, config_.segment_bytes,
                            config_.fsync_every_put}) {
  MutexLock lock(mutex_);
  log_.open([this](std::string_view key, std::span<const std::uint8_t> value,
                   std::uint32_t flags, const RecordLocation& loc) {
    // The scan callback runs synchronously inside log_.open() above, on
    // this thread, which holds mutex_ — invisible to the analysis across
    // the std::function boundary.
    mutex_.assert_held();
    recover_record(key, value, flags, loc);
  });
  // Dead bytes = everything on disk not reachable from the rebuilt index,
  // split by whether it sits in the (never-compacted) active segment.
  // Derived after the scan rather than tracked during it: active_id() is
  // not final until every manifest segment has been replayed.
  std::size_t live_active = 0;
  for (const auto& [key, loc] : index_) {
    if (loc.segment_id == log_.active_id()) live_active += loc.record_bytes;
  }
  const std::size_t active_size =
      static_cast<std::size_t>(log_.disk_bytes() - log_.sealed_bytes());
  const std::size_t live_sealed = live_record_bytes_ - live_active;
  dead_bytes_active_ = active_size - live_active;
  dead_bytes_sealed_ =
      static_cast<std::size_t>(log_.sealed_bytes()) - live_sealed;
  if (config_.background_compaction) {
    compaction_thread_ = Thread([this] { compaction_thread_main(); });
  }
}

DurableKvStore::~DurableKvStore() {
  if (compaction_thread_.joinable()) {
    {
      MutexLock lock(mutex_);
      stop_ = true;
    }
    compaction_cv_.notify_all();
    compaction_thread_.join();
  }
}

void DurableKvStore::recover_record(std::string_view key,
                                    std::span<const std::uint8_t> value,
                                    std::uint32_t flags,
                                    const RecordLocation& loc) {
  (void)value;  // the index stores locations, not payloads
  if ((flags & kFlagTombstone) != 0) {
    auto it = index_.find(std::string(key));
    if (it != index_.end()) {
      live_value_bytes_ -= it->second.value_len;
      live_record_bytes_ -= it->second.record_bytes;
      index_.erase(it);
    }
    return;
  }
  auto it = index_.find(std::string(key));
  if (it != index_.end()) {
    live_value_bytes_ -= it->second.value_len;
    live_record_bytes_ -= it->second.record_bytes;
    it->second = loc;
  } else {
    index_.emplace(std::string(key), loc);
  }
  live_value_bytes_ += loc.value_len;
  live_record_bytes_ += loc.record_bytes;
}

void DurableKvStore::account_overwrite(const RecordLocation& old) {
  if (old.segment_id == log_.active_id()) {
    dead_bytes_active_ += old.record_bytes;
  } else {
    dead_bytes_sealed_ += old.record_bytes;
  }
}

std::optional<std::vector<std::uint8_t>> DurableKvStore::get(
    const std::string& key) {
  MutexLock lock(mutex_);
  ++stats_.lookups;
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  ++stats_.hits;
  std::vector<std::uint8_t> value = log_.read_value(it->second);
  stats_.bytes_read += value.size();
  return value;
}

void DurableKvStore::put(const std::string& key,
                         std::vector<std::uint8_t> value) {
  MutexLock lock(mutex_);
  ++stats_.writes;
  stats_.bytes_written += value.size();
  const std::uint64_t active_before = log_.active_id();
  const RecordLocation loc = log_.append(key, value, 0);
  if (log_.active_id() != active_before) {
    // Rotation sealed the old active segment: its dead bytes are now
    // compaction candidates.
    dead_bytes_sealed_ += dead_bytes_active_;
    dead_bytes_active_ = 0;
  }
  auto it = index_.find(key);
  if (it != index_.end()) {
    account_overwrite(it->second);
    live_value_bytes_ -= it->second.value_len;
    live_record_bytes_ -= it->second.record_bytes;
    it->second = loc;
  } else {
    index_.emplace(key, loc);
  }
  live_value_bytes_ += loc.value_len;
  live_record_bytes_ += loc.record_bytes;
  maybe_trigger_compaction();
}

bool DurableKvStore::erase(const std::string& key) {
  MutexLock lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) return false;
  ++stats_.deletes;
  const std::uint64_t active_before = log_.active_id();
  const RecordLocation tomb = log_.append(key, {}, kFlagTombstone);
  if (log_.active_id() != active_before) {
    dead_bytes_sealed_ += dead_bytes_active_;
    dead_bytes_active_ = 0;
  }
  account_overwrite(it->second);
  live_value_bytes_ -= it->second.value_len;
  live_record_bytes_ -= it->second.record_bytes;
  index_.erase(it);
  // The tombstone is dead on arrival — it only exists to shadow sealed
  // records until compaction drops both. It always lands in the active
  // segment (appends go nowhere else).
  dead_bytes_active_ += tomb.record_bytes;
  maybe_trigger_compaction();
  return true;
}

bool DurableKvStore::contains(const std::string& key) const {
  MutexLock lock(mutex_);
  return index_.find(key) != index_.end();
}

std::size_t DurableKvStore::size() const {
  MutexLock lock(mutex_);
  return index_.size();
}

std::size_t DurableKvStore::value_bytes() const {
  MutexLock lock(mutex_);
  return live_value_bytes_;
}

serving::KvStats DurableKvStore::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void DurableKvStore::reset_stats() {
  MutexLock lock(mutex_);
  stats_ = serving::KvStats{};
}

void DurableKvStore::flush() {
  MutexLock lock(mutex_);
  log_.sync();
}

void DurableKvStore::compact() {
  MutexLock lock(mutex_);
  compact_locked();
}

void DurableKvStore::compact_locked() {
  if (log_.segment_count() <= 1) return;
  obs::ScopedTimer compaction_timer(&compaction_ns());
  // Stream every live record that sits in a sealed segment into the
  // compacted output; records already in the active segment keep their
  // location. Index updates are staged and applied only after the commit
  // (the emitted locations are not valid before the manifest swap).
  std::vector<std::pair<const std::string*, RecordLocation>> moved;
  const std::uint64_t active = log_.active_id();
  const std::uint64_t reclaimed =
      log_.compact_sealed([&](const SegmentLog::EmitFn& emit) {
        for (const auto& [key, loc] : index_) {
          if (loc.segment_id == active) continue;
          const std::vector<std::uint8_t> value = log_.read_value(loc);
          moved.emplace_back(&key, emit(key, value, 0));
        }
      });
  for (const auto& [key, loc] : moved) {
    index_[*key] = loc;
  }
  dead_bytes_sealed_ = 0;
  ++compactions_;
  reclaimed_bytes_ += reclaimed;
}

bool DurableKvStore::compaction_due() const {
  if (config_.compact_dead_ratio <= 0.0) return false;
  if (dead_bytes_sealed_ < config_.compact_min_bytes) return false;
  const std::uint64_t sealed = log_.sealed_bytes();
  if (sealed == 0) return false;
  return static_cast<double>(dead_bytes_sealed_) >=
         config_.compact_dead_ratio * static_cast<double>(sealed);
}

void DurableKvStore::maybe_trigger_compaction() {
  if (!compaction_due()) return;
  if (config_.background_compaction) {
    compaction_requested_ = true;
    compaction_cv_.notify_one();
  } else {
    compact_locked();
  }
}

void DurableKvStore::compaction_thread_main() {
  MutexLock lock(mutex_);
  while (!stop_) {
    if (!compaction_requested_) {
      compaction_cv_.wait(mutex_);
      continue;
    }
    compaction_requested_ = false;
    compact_locked();
  }
}

DurableKvStats DurableKvStore::durable_stats() const {
  MutexLock lock(mutex_);
  const SegmentLogStats& ls = log_.stats();
  DurableKvStats s;
  s.segments = log_.segment_count();
  s.disk_bytes = static_cast<std::size_t>(log_.disk_bytes());
  s.live_record_bytes = live_record_bytes_;
  s.dead_bytes_sealed = dead_bytes_sealed_;
  s.dead_bytes_active = dead_bytes_active_;
  s.compactions = compactions_;
  s.compacted_bytes_reclaimed = reclaimed_bytes_;
  s.recovered_records = ls.recovered_records;
  s.torn_bytes_dropped = ls.torn_bytes_dropped;
  s.crc_rejects = ls.crc_rejects;
  s.orphans_removed = ls.orphans_removed;
  s.rotations = ls.rotations;
  return s;
}

}  // namespace pp::storage
