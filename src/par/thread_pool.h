#ifndef TPR_PAR_THREAD_POOL_H_
#define TPR_PAR_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace tpr::par {

/// Worker slot of the calling thread: 0 for a pool's caller thread (and
/// any thread outside a pool), 1..num_threads-1 for pool workers. Stable
/// for the lifetime of the thread, so callers can index per-worker
/// scratch state (e.g. per-worker partial sums) without locks.
int WorkerIndex();

/// Thread count requested via the TPR_THREADS environment variable,
/// falling back to std::thread::hardware_concurrency() when it is unset,
/// malformed or out of range. Always >= 1.
int ConfiguredThreads();

/// A fixed-size FIFO thread pool (no work stealing). `num_threads`
/// counts the caller: a pool of size N spawns N-1 background workers and
/// the caller participates in ParallelFor. A ParallelFor called from
/// inside a pool task fans out like a top-level one, so an outer loop
/// over a few large items leaves no worker idle; a Submit from inside a
/// pool task runs inline.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn(i) for every i in [0, n) across the pool and blocks until
  /// all iterations finish. The caller executes iterations too. Indices
  /// are claimed dynamically; each runs exactly once on exactly one
  /// thread. Exceptions from fn never reach std::terminate: the loop
  /// stops claiming new iterations, every participant joins, and the
  /// smallest-index exception among those that fired is rethrown HERE on
  /// the calling thread (deterministic when a single index throws).
  ///
  /// Called from inside a pool task it works the same way: it enqueues
  /// min(num_threads - 1, n - 1) helpers, claims indices itself, then
  /// waits for its own loop only. That wait never runs a job: every
  /// unfinished index is then running on another thread, so nesting
  /// cannot deadlock, and the caller never runs another loop's
  /// iterations. At any depth, fn must not rely on the caller's
  /// thread-local state (no-grad depth, gradient redirect, kernel pin,
  /// fault scope): any index may run on another thread.
  void ParallelFor(int n, const std::function<void(int)>& fn);

  /// Runs fn(worker_index) exactly once on EVERY thread of the pool —
  /// each background worker plus the calling thread — and blocks until
  /// all have finished. Unlike ParallelFor, placement is by thread, not
  /// by dynamic index claim, so this is the tool for maintaining
  /// per-thread state (trimming thread-local arenas, flushing caches).
  /// The workers rendezvous inside the call, so it must not run
  /// concurrently with other pool work. Called from inside a pool task
  /// it degrades to fn(WorkerIndex()) on the current thread only.
  void RunOnAllWorkers(const std::function<void(int)>& fn);

  /// Enqueues a task and returns its future. When called from inside a
  /// pool worker the task runs inline (nested-submit safety) and the
  /// returned future is already ready.
  template <typename F>
  auto Submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    if (InsidePool()) {
      (*task)();
    } else {
      Enqueue([task] { (*task)(); });
    }
    return fut;
  }

 private:
  struct ForState;

  /// True when the current thread is one of this pool's workers.
  bool InsidePool() const;
  void Enqueue(std::function<void()> job);
  void WorkerLoop(int worker_index);
  static void RunForChunk(const std::shared_ptr<ForState>& state);

  int num_threads_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// The process-wide pool, lazily created with ConfiguredThreads()
/// workers. All library parallel loops run on this pool so that one
/// TPR_THREADS setting governs the whole process.
ThreadPool& DefaultPool();

/// Rebuilds the default pool with the given thread count. Test-only:
/// must not race with running work on the old pool.
void SetDefaultThreads(int num_threads);

}  // namespace tpr::par

#endif  // TPR_PAR_THREAD_POOL_H_
