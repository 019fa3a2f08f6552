//===----------------------------------------------------------------------===//
//
// Part of the SWIFT hybrid-analysis reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool used by the bottom-up relational solver
/// to dispatch call-graph SCCs as a wavefront over the SCC DAG. Tasks may
/// submit further tasks (a finishing SCC enqueues the SCCs it unblocks);
/// wait() blocks — no spinning — until every task, including ones enqueued
/// by running tasks, has finished.
///
/// Robustness contracts:
///  * A task that throws never deadlocks wait(): the worker catches the
///    exception, still decrements the pending count, and wait() rethrows
///    the first captured exception once the queue has drained.
///  * A worker that fails to start (std::thread throwing, or the
///    pool.worker.start failpoint) does not leak the workers already
///    running: the constructor joins them and rethrows.
///
/// Fault injection: pool.worker.start fires per worker construction and
/// makes it throw; pool.task fires per dequeued task and replaces its
/// body with a thrown injected fault (surfaced by the next wait()).
///
/// Observability (src/obs): when enabled, the pool maintains a
/// "pool.queue_depth" gauge + counter-event track, a
/// "pool.task_latency_us" histogram (submit-to-dequeue latency), and a
/// "pool.task" span around each executed task body. All of it reduces to
/// one relaxed atomic load per site when tracing/metrics are off.
///
//===----------------------------------------------------------------------===//

#ifndef SWIFT_SUPPORT_THREADPOOL_H
#define SWIFT_SUPPORT_THREADPOOL_H

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/FailPoint.h"

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace swift {

class ThreadPool {
public:
  explicit ThreadPool(unsigned NumThreads) {
    if (NumThreads == 0)
      NumThreads = 1;
    Workers.reserve(NumThreads);
    try {
      for (unsigned I = 0; I != NumThreads; ++I) {
        if (SWIFT_FAILPOINT("pool.worker.start"))
          throw std::runtime_error(
              "injected worker startup failure (pool.worker.start)");
        Workers.emplace_back([this] { workerLoop(); });
      }
    } catch (...) {
      // Don't leak the workers that did start: joining here (instead of
      // letting ~vector destroy joinable threads) turns a startup fault
      // into an ordinary exception rather than std::terminate.
      shutdownAndJoin();
      throw;
    }
  }

  /// Drains the queue (every submitted task runs), then joins. A pending
  /// task exception that was never observed via wait() is swallowed —
  /// destructors must not throw.
  ~ThreadPool() { shutdownAndJoin(); }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Task. Safe to call from within a running task.
  void submit(std::function<void()> Task) {
    // Timestamp only when someone is watching; 0 means "not sampled" to
    // the dequeue side.
    uint64_t EnqueuedUs =
        (obs::metricsEnabled() || obs::tracingEnabled()) ? obs::nowMicros()
                                                         : 0;
    size_t Depth;
    {
      std::lock_guard<std::mutex> L(M);
      Queue.push_back({std::move(Task), EnqueuedUs});
      ++Pending;
      Depth = Queue.size();
    }
    if (EnqueuedUs) {
      QueueDepth->set(Depth);
      obs::counterEvent("pool.queue_depth", "depth", Depth);
    }
    HasWork.notify_one();
  }

  /// Blocks until every submitted task — including tasks submitted by
  /// other tasks after this call — has completed. Rethrows the first
  /// exception any task threw since the last wait(); the queue is fully
  /// drained either way.
  void wait() {
    std::unique_lock<std::mutex> L(M);
    Idle.wait(L, [this] { return Pending == 0; });
    if (FirstError)
      std::rethrow_exception(std::exchange(FirstError, nullptr));
  }

  unsigned size() const { return static_cast<unsigned>(Workers.size()); }

private:
  void shutdownAndJoin() {
    {
      std::lock_guard<std::mutex> L(M);
      Stopping = true;
    }
    HasWork.notify_all();
    for (std::thread &W : Workers)
      W.join();
    Workers.clear();
  }

  void workerLoop() {
    std::unique_lock<std::mutex> L(M);
    for (;;) {
      HasWork.wait(L, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained.
      Item It = std::move(Queue.front());
      Queue.pop_front();
      L.unlock();
      if (It.EnqueuedUs && obs::metricsEnabled())
        TaskLatency->record(obs::nowMicros() - It.EnqueuedUs);
      { // The span ends before the lock is retaken.
        obs::TraceSpan Span("pool", "pool.task");
        try {
          if (SWIFT_FAILPOINT("pool.task"))
            throw std::runtime_error(
                "injected task failure (pool.task)");
          It.Fn();
        } catch (...) {
          std::lock_guard<std::mutex> EL(M);
          if (!FirstError)
            FirstError = std::current_exception();
        }
      }
      L.lock();
      if (--Pending == 0)
        Idle.notify_all();
    }
  }

  /// A queued task plus its enqueue timestamp (0 when observability was
  /// off at submit time).
  struct Item {
    std::function<void()> Fn;
    uint64_t EnqueuedUs = 0;
  };

  std::mutex M;
  std::condition_variable HasWork;
  std::condition_variable Idle;
  std::deque<Item> Queue;
  std::vector<std::thread> Workers;
  /// Resolved once here (interning takes the registry lock); sampled
  /// lock-free afterwards.
  obs::Gauge *QueueDepth =
      obs::MetricsRegistry::instance().gauge("pool.queue_depth");
  obs::Histogram *TaskLatency =
      obs::MetricsRegistry::instance().histogram("pool.task_latency_us");
  std::exception_ptr FirstError; ///< First task exception; guarded by M.
  size_t Pending = 0;            ///< Queued plus running tasks.
  bool Stopping = false;
};

} // namespace swift

#endif // SWIFT_SUPPORT_THREADPOOL_H
