#pragma once
/// \file thread_pool.hpp
/// Fixed-size worker pool with a simple MPMC task queue and a self-claiming
/// fork-join primitive.
///
/// This is the concurrency substrate of the whole repo: callers submit
/// arbitrary callables and receive futures; exceptions thrown inside a task
/// surface through the future (never terminate a worker). Shutdown is
/// *draining*: the destructor lets already-queued tasks finish before
/// joining, so every future obtained from submit() eventually becomes ready
/// and no task is silently dropped — the property the batch planner's
/// determinism rests on.
///
/// run_all() is a nesting-safe fork-join: the calling thread *claims and
/// runs tasks itself* alongside the pool's workers, so a task already
/// running on the pool may call run_all() on the same pool without
/// deadlock — even on a pool of one worker, the caller simply executes
/// everything. The planner itself is sequential: its four concurrent
/// quadrant kernels are a property of the accelerator hardware
/// (hw::AcceleratorConfig::quadrant_pathways), not a software fan-out.
///
/// Determinism note: the pool itself makes no ordering promises — tasks may
/// run in any order on any worker. Deterministic results come from the layer
/// above (per-shot derived seeds, per-slot writes, and barriers like
/// run_all), not from scheduling.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <condition_variable>

namespace qrm {

class ThreadPool {
 public:
  /// Spawn `workers` threads; 0 selects std::thread::hardware_concurrency()
  /// (at least 1). The pool size is fixed for the pool's lifetime.
  explicit ThreadPool(std::uint32_t workers = 0);

  /// Drains the queue (queued tasks still run), then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::uint32_t worker_count() const noexcept {
    return static_cast<std::uint32_t>(workers_.size());
  }

  /// Tasks accepted but not yet picked up by a worker.
  [[nodiscard]] std::size_t pending() const;

  /// Enqueue a callable; its result (or exception) arrives via the future.
  template <typename Fn>
  [[nodiscard]] auto submit(Fn&& fn) -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    using Result = std::invoke_result_t<std::decay_t<Fn>>;
    // packaged_task is move-only but std::function requires copyable
    // callables, so the task rides in a shared_ptr.
    auto task = std::make_shared<std::packaged_task<Result()>>(std::forward<Fn>(fn));
    std::future<Result> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

  /// Run every task and return once all have finished (a barrier). The
  /// calling thread claims tasks from the same shared counter as the pool's
  /// workers, so:
  ///  - calling from inside a pooled task cannot deadlock (the caller makes
  ///    progress on its own, workers only help), for any pool size;
  ///  - at most worker_count() helper slots are enqueued, so nested calls
  ///    never oversubscribe the pool.
  /// If tasks throw, the first exception (in completion order) is rethrown
  /// after every task has finished; the rest are swallowed.
  void run_all(std::vector<std::function<void()>> tasks);

  /// Resolve a requested worker count: 0 -> hardware_concurrency, floor 1.
  [[nodiscard]] static std::uint32_t resolve_workers(std::uint32_t requested) noexcept;

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace qrm
