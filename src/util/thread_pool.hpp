// Fixed-size thread pool for parallelism at the level of whole users (the
// paper's "custom parallelism", §7.1): per-user trainer replicas, per-user
// scoring in score_users and example building, and the user-affine group
// fan-out in PrecomputeService.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <vector>

#include "util/mutex.hpp"
#include "util/stopwatch.hpp"
#include "util/thread.hpp"

namespace pp::obs {
class Gauge;
class LatencyHistogram;
}  // namespace pp::obs

namespace pp {

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (defaults to hardware
  /// concurrency, at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; the returned future observes its completion (and
  /// propagates exceptions).
  template <typename F>
  std::future<void> submit(F&& task) {
    auto packaged =
        std::make_shared<std::packaged_task<void()>>(std::forward<F>(task));
    std::future<void> result = packaged->get_future();
    push_task([packaged] { (*packaged)(); });
    return result;
  }

  /// Runs fn(i) for i in [0, count), blocking until all are done. Work is
  /// dealt in contiguous chunks to limit scheduling overhead.
  ///
  /// Re-entrancy: when called from one of this pool's own workers (a task
  /// fanning its own work out over the pool it runs on) the chunks run
  /// inline on the caller (caller-runs). Submitting them would deadlock —
  /// the worker would block on futures that only the occupied workers
  /// could ever schedule.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const { return current_pool_ == this; }

  /// Waits for every future, then rethrows the first captured error.
  /// Bailing on the first get() would destroy locals the still-running
  /// tasks reference — always drain before unwinding.
  static void wait_all(std::vector<std::future<void>>& futures);

 private:
  /// One queued unit of work plus its wait-time clock (armed only when obs
  /// timing is on: the stopwatch starts at enqueue, the worker records the
  /// elapsed wait when it dequeues).
  struct Task {
    std::function<void()> fn;
    Stopwatch waited{Stopwatch::Unstarted{}};
    bool timed = false;
  };

  /// Non-template enqueue path (defined in the .cpp so the header needs no
  /// obs dependency): queue push under the mutex + depth/wait bookkeeping.
  void push_task(std::function<void()> fn);

  void worker_loop();

  static thread_local const ThreadPool* current_pool_;

  std::vector<Thread> workers_;
  std::queue<Task> tasks_ PP_GUARDED_BY(mutex_);
  Mutex mutex_;
  CondVar cv_;
  bool stop_ PP_GUARDED_BY(mutex_) = false;
  // Process-global instruments (shared by all pools), resolved once in the
  // constructor. Observe-only: queue depth + how long tasks sat queued.
  obs::Gauge* obs_queue_depth_ = nullptr;
  obs::LatencyHistogram* obs_task_wait_ = nullptr;
};

}  // namespace pp
