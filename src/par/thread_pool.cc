#include "par/thread_pool.h"

#include <atomic>
#include <chrono>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/env.h"
#include "util/logging.h"

namespace tpr::par {
namespace {

// Identity of the current thread inside a pool. The caller of a pool (or
// any thread that never entered one) has index 0 and a null pool.
thread_local const ThreadPool* t_pool = nullptr;
thread_local int t_worker_index = 0;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Per-worker busy/idle accounting, accumulated in microsecond counters
// (par.worker<i>.busy_us / .idle_us). Guarded on MetricsEnabled so the
// disabled path never reads the clock or builds a name.
void AddWorkerTime(int worker_index, const char* kind, double seconds) {
  obs::GetCounter("par.worker" + std::to_string(worker_index) + "." + kind)
      .Add(static_cast<uint64_t>(seconds * 1e6));
}

}  // namespace

int WorkerIndex() { return t_worker_index; }

int ConfiguredThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return EnvNumber("TPR_THREADS", hc == 0 ? 1 : static_cast<int>(hc), 1);
}

struct ThreadPool::ForState {
  int n = 0;
  const std::function<void(int)>* fn = nullptr;
  std::atomic<int> next{0};
  std::atomic<bool> abort{false};
  std::mutex m;
  std::condition_variable done_cv;
  int done = 0;  // iterations finished or skipped, guarded by m
  // The propagated exception: among all iterations that threw before the
  // abort flag stopped the loop, the one with the smallest index wins.
  // With a single failing index this makes the rethrown exception
  // deterministic at any thread count. Guarded by m.
  std::exception_ptr error;
  int error_index = -1;
};

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads) {
  workers_.reserve(num_threads_ - 1);
  for (int w = 1; w < num_threads_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

bool ThreadPool::InsidePool() const { return t_pool == this; }

void ThreadPool::Enqueue(std::function<void()> job) {
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
    depth = queue_.size();
  }
  cv_.notify_one();
  if (obs::MetricsEnabled()) {
    obs::GetGauge("par.queue_depth").Set(static_cast<double>(depth));
  }
  obs::TraceCounter("par.queue_depth", static_cast<double>(depth));
}

void ThreadPool::WorkerLoop(int worker_index) {
  t_pool = this;
  t_worker_index = worker_index;
  obs::SetTraceThreadName("par.worker " + std::to_string(worker_index));
  for (;;) {
    std::function<void()> job;
    const bool observe = obs::MetricsEnabled();
    const double wait_start = observe ? NowSeconds() : 0.0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (observe) {
          AddWorkerTime(worker_index, "idle_us", NowSeconds() - wait_start);
        }
        return;  // stop_ set and queue drained
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    const double job_start = observe ? NowSeconds() : 0.0;
    try {
      obs::ScopedSpan span("par.task");
      job();
    } catch (...) {
      // Jobs enqueued by Submit/ParallelFor capture their own exceptions;
      // anything arriving here escaped that wrapping (an instrumentation
      // allocation failure, a raw Enqueue) and would otherwise
      // std::terminate the process from a worker thread. Contain it: the
      // pool survives, the job is reported lost.
      obs::GetCounter("par.worker_job_crashes").Add(1);
      TPR_LOG(Error) << "thread-pool worker " << worker_index
                     << " caught an exception that escaped its job; "
                        "dropping the job and continuing";
    }
    if (observe) {
      const double job_end = NowSeconds();
      AddWorkerTime(worker_index, "idle_us", job_start - wait_start);
      AddWorkerTime(worker_index, "busy_us", job_end - job_start);
      obs::GetCounter("par.tasks").Add();
      obs::GetHistogram("par.task_seconds").Observe(job_end - job_start);
    }
  }
}

void ThreadPool::RunForChunk(const std::shared_ptr<ForState>& state) {
  int finished = 0;
  std::exception_ptr error;
  int error_index = -1;
  for (;;) {
    const int i = state->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= state->n) break;
    if (!state->abort.load(std::memory_order_relaxed)) {
      try {
        (*state->fn)(i);
      } catch (...) {
        // Indices are claimed in ascending order, so this participant's
        // first error is also its smallest-index one.
        if (!error) {
          error = std::current_exception();
          error_index = i;
        }
        state->abort.store(true, std::memory_order_relaxed);
      }
    }
    ++finished;
  }
  // Iterations claimed by this participant: the spread across
  // participants is the shard-imbalance signal.
  if (obs::MetricsEnabled()) {
    obs::GetHistogram("par.for_iters_per_worker",
                      {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                       256.0, 1024.0, 4096.0})
        .Observe(static_cast<double>(finished));
  }
  if (finished > 0 || error) {
    std::lock_guard<std::mutex> lock(state->m);
    state->done += finished;
    if (error &&
        (!state->error || error_index < state->error_index)) {
      // Hand the reference over: this thread must not release the
      // exception object after the caller may be reading it.
      state->error = std::move(error);
      state->error_index = error_index;
    }
    if (state->done == state->n) state->done_cv.notify_all();
  }
}

void ThreadPool::RunOnAllWorkers(const std::function<void(int)>& fn) {
  if (InsidePool() || num_threads_ == 1) {
    fn(WorkerIndex());
    return;
  }
  // Each worker claims one slot, then waits until every worker has one:
  // the rendezvous guarantees no worker runs fn twice even though the
  // queue does not address threads directly.
  struct Rendezvous {
    std::mutex m;
    std::condition_variable cv;
    int arrived = 0;
    int expected = 0;
  };
  auto rv = std::make_shared<Rendezvous>();
  rv->expected = num_threads_ - 1;
  // Workers hold their own copy of fn so a caller-side exception can
  // never leave them with a dangling reference.
  auto shared_fn = std::make_shared<const std::function<void(int)>>(fn);
  std::vector<std::future<void>> futs;
  futs.reserve(rv->expected);
  for (int w = 0; w < rv->expected; ++w) {
    futs.push_back(Submit([rv, shared_fn] {
      {
        std::unique_lock<std::mutex> lock(rv->m);
        if (++rv->arrived == rv->expected) {
          rv->cv.notify_all();
        } else {
          rv->cv.wait(lock, [&] { return rv->arrived == rv->expected; });
        }
      }
      (*shared_fn)(WorkerIndex());
    }));
  }
  std::exception_ptr caller_error;
  try {
    fn(0);  // the caller participates as slot 0
  } catch (...) {
    caller_error = std::current_exception();
  }
  for (auto& f : futs) f.get();
  if (caller_error) std::rethrow_exception(caller_error);
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  obs::ScopedSpan span("par.parallel_for", "n", n);
  if (num_threads_ == 1 || n == 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  auto state = std::make_shared<ForState>();
  state->n = n;
  state->fn = &fn;
  const int helpers = std::min(num_threads_ - 1, n - 1);
  for (int h = 0; h < helpers; ++h) {
    Enqueue([state] { RunForChunk(state); });
  }
  // The caller works too. When it runs out of indices, every unfinished
  // one is running on another thread, so the wait below takes no job
  // and cannot deadlock, also inside a pool task.
  RunForChunk(state);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(state->m);
    state->done_cv.wait(lock, [&] { return state->done == state->n; });
    // Take the exception out under the lock as well: a helper may still
    // hold the last ForState reference.
    error = std::move(state->error);
  }
  if (error) std::rethrow_exception(error);
}

namespace {

std::mutex g_default_pool_mu;
std::unique_ptr<ThreadPool> g_default_pool;

}  // namespace

ThreadPool& DefaultPool() {
  std::lock_guard<std::mutex> lock(g_default_pool_mu);
  if (!g_default_pool) {
    g_default_pool = std::make_unique<ThreadPool>(ConfiguredThreads());
  }
  return *g_default_pool;
}

void SetDefaultThreads(int num_threads) {
  std::lock_guard<std::mutex> lock(g_default_pool_mu);
  g_default_pool.reset();
  g_default_pool = std::make_unique<ThreadPool>(num_threads);
}

}  // namespace tpr::par
