// Work-queue thread pool powering every parallel evaluation path in the
// library (NSGA-II fitness batches, the dense Markov-table builds of
// ClrMappingProblem, per-type tDSE fan-out).
//
// Design constraints, in priority order:
//  1. Determinism — parallel_for(n, body) runs body(i) exactly once per
//     index; callers write per-index slots, so results are bit-identical to
//     a serial loop regardless of the thread count or scheduling.
//  2. Safety under nesting — a body that itself calls parallel_for (on any
//     pool) degrades to an inline serial loop instead of deadlocking.
//  3. A single process-wide configuration point: set_thread_count() (the
//     --threads flag) overrides the CLREARLY_THREADS environment variable,
//     which overrides hardware concurrency. 0 at any level means "use the
//     hardware concurrency".
//
// stream_for is the one primitive: the calling thread produces the items
// in index order while the workers already run body(i) on the ones it has
// published (the NSGA-II engine evaluates offspring while variation is still
// making the rest). parallel_for is the stream whose items are all ready
// from the start.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace clrearly::util {

class ThreadPool {
 public:
  /// `threads` is the total concurrency including the calling thread
  /// (a pool of 4 spawns 3 workers; the caller participates in every
  /// parallel_for). 0 picks std::thread::hardware_concurrency(). A pool of
  /// 1 spawns nothing and runs every parallel_for inline.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (workers + calling thread).
  std::size_t thread_count() const noexcept;

  /// Run body(0) .. body(n-1), each exactly once, and block until all have
  /// finished. Indices are claimed dynamically by the workers and the
  /// calling thread; the body must confine its writes to per-index state
  /// (slot i of a result array) — under that contract the outcome is
  /// bit-identical to the serial loop. The first exception thrown by any
  /// index is rethrown here after the batch drains. Nested invocations from
  /// inside a body run serially inline. Concurrent top-level calls from
  /// different threads are safe and share the workers.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  /// Called as produce(ready) with the number of items published so far;
  /// makes at least one more item ready, in index order, and returns the new
  /// total (at most n).
  using Producer = std::function<std::size_t(std::size_t ready)>;

  /// parallel_for over items that the calling thread is still producing.
  /// The caller runs `produce` until all n items are ready, publishing each
  /// new total; a worker that claims index i waits for item i (spinning for
  /// a bounded time, then yielding — no syscall per item) and runs body(i).
  /// Then the caller joins in on the remaining indices. `produce` runs only
  /// on the calling thread, so it may own state the bodies never touch
  /// (an RNG). A producer that throws, or publishes no new item, releases
  /// every waiting worker; its exception (else the first body exception) is
  /// rethrown here once every participant has checked in. Nested calls and
  /// 1-thread pools run inline: produce, then consume what it published, in
  /// index order.
  void stream_for(std::size_t n, const Producer& produce,
                  const std::function<void(std::size_t)>& body);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

namespace detail {

/// Parse a CLREARLY_THREADS-style value: nullptr, empty, unparsable,
/// negative or trailing garbage all yield 0 ("defer to hardware"). Exposed
/// so the rejection rules are directly testable — strtoul would otherwise
/// happily wrap "-1" to ~2^64 threads.
std::size_t parse_thread_env(const char* text) noexcept;

}  // namespace detail

/// Override the global thread count (the --threads flag). 0 = hardware
/// concurrency. Takes effect on the next global_pool() access; call it at
/// startup or between runs, never while parallel work is in flight.
void set_thread_count(std::size_t threads);

/// The thread count the global pool (re)builds with: set_thread_count()
/// override if any, else CLREARLY_THREADS, else hardware concurrency.
std::size_t effective_thread_count();

/// Lazily-built process-wide pool at effective_thread_count(); rebuilt when
/// the configured count changes.
ThreadPool& global_pool();

/// parallel_for on the global pool.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

/// stream_for on the global pool.
void stream_for(std::size_t n, const ThreadPool::Producer& produce,
                const std::function<void(std::size_t)>& body);

}  // namespace clrearly::util
