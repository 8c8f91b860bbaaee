// A small fixed-size thread pool for fanning independent work items out
// across cores.
//
// The engine's data structures (Universe, Instance, ResourceGuard, the
// finders) are deliberately NOT thread-safe: parallel callers give every
// work item its own scratch state and merge results sequentially in a
// deterministic order afterwards (see core/certain.cc for the pattern).
// The pool itself therefore stays minimal: submit closures, wait for
// quiescence, join on destruction.

#ifndef TDX_COMMON_THREAD_POOL_H_
#define TDX_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tdx {

class ThreadPool {
 public:
  /// Spawns max(1, threads) workers.
  explicit ThreadPool(unsigned threads);
  /// Waits for pending tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw: there is no channel to report
  /// an exception, so failures travel through captured result slots.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished. The pool is
  /// reusable afterwards.
  void Wait();

  unsigned thread_count() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// max(1, std::thread::hardware_concurrency()) — the default for a
  /// "--jobs=0 means auto" flag.
  static unsigned HardwareJobs();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_ready_;   // signals workers: task or shutdown
  std::condition_variable all_done_;     // signals Wait(): in_flight hit 0
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  // queued + currently executing
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(0..count-1), spreading the calls over up to `jobs` pool workers.
/// Runs inline (no threads) when jobs <= 1 or count <= 1, so callers can
/// unconditionally route through this and let the flag decide. `fn` must be
/// safe to call concurrently for distinct indexes and must not throw.
///
/// Returns true when every call ran. False means the thread-pool/dispatch
/// fault site dropped a task (a stand-in for a killed worker): some result
/// slots were never filled, and the caller must abort rather than use them.
[[nodiscard]] bool ParallelFor(unsigned jobs, std::size_t count,
                               const std::function<void(std::size_t)>& fn);

}  // namespace tdx

#endif  // TDX_COMMON_THREAD_POOL_H_
