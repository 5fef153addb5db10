#include "util/thread_pool.hpp"

#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/metrics.hpp"

namespace clrearly::util {

namespace detail {

std::size_t parse_thread_env(const char* text) noexcept {
  // from_chars is deliberately strict: no leading whitespace, no sign
  // (strtoul would wrap "-1" to ULONG_MAX and silently ask for ~2^64
  // threads), no trailing garbage, no locale dependence.
  if (text == nullptr || *text == '\0') return 0;
  std::size_t value = 0;
  const char* last = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, last, value);
  if (ec != std::errc{} || ptr != last) return 0;
  return value;
}

}  // namespace detail

namespace {

/// Set while this thread executes a parallel_for body or a stream_for
/// producer; nested calls then run inline instead of re-entering the queue
/// (which could deadlock once every worker waits on work only it could
/// execute).
thread_local bool tls_inside_parallel = false;

/// Marks the current thread as inside a parallel region for its lifetime.
class InsideParallel {
 public:
  InsideParallel() noexcept : was_inside_(tls_inside_parallel) {
    tls_inside_parallel = true;
  }
  ~InsideParallel() { tls_inside_parallel = was_inside_; }
  InsideParallel(const InsideParallel&) = delete;
  InsideParallel& operator=(const InsideParallel&) = delete;

 private:
  const bool was_inside_;
};

/// Pause instructions a worker spends waiting for an unpublished item before
/// it starts yielding: a few to tens of microseconds, longer than the
/// producer usually needs for the next item.
constexpr unsigned kSpinsBeforeYield = 1024;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// One producer call, checked: it must publish at least one new item and no
/// more than n.
std::size_t produce_more(const ThreadPool::Producer& produce,
                         std::size_t ready, std::size_t n) {
  const std::size_t more = produce(ready);
  if (more <= ready || more > n) {
    throw std::logic_error(
        "ThreadPool::stream_for: a producer call must publish at least one "
        "more item and at most n");
  }
  return more;
}

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t env_threads() {
  return detail::parse_thread_env(std::getenv("CLREARLY_THREADS"));
}

}  // namespace

struct ThreadPool::Impl {
  std::size_t total = 1;
  std::vector<std::thread> workers;

  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<std::function<void()>> queue;
  bool stopping = false;

  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(queue_mutex);
        queue_cv.wait(lock, [&] { return stopping || !queue.empty(); });
        // Drain the queue even when stopping: a queued batch chunk must
        // check in or its issuer would wait forever.
        if (queue.empty()) return;
        task = std::move(queue.front());
        queue.pop_front();
      }
      task();
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads) : impl_(std::make_unique<Impl>()) {
  impl_->total = threads == 0 ? hardware_threads() : threads;
  const std::size_t workers = impl_->total - 1;
  impl_->workers.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    impl_->workers.emplace_back([impl = impl_.get()] { impl->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->queue_mutex);
    impl_->stopping = true;
  }
  impl_->queue_cv.notify_all();
  for (std::thread& worker : impl_->workers) worker.join();
}

std::size_t ThreadPool::thread_count() const noexcept { return impl_->total; }

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  stream_for(n, nullptr, body);
}

void ThreadPool::stream_for(std::size_t n, const Producer& produce,
                            const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (n == 1 || impl_->total <= 1 || tls_inside_parallel) {
    const InsideParallel inside;
    std::size_t ready = produce ? 0 : n;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == ready) ready = produce_more(produce, ready, n);
      body(i);
    }
    return;
  }

  // Per-call state, held by the queued chunks via shared_ptr. The caller
  // always waits for every chunk to check in before returning, which keeps
  // the `body` reference alive for chunks that start late.
  struct CallState {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> ready{0};   ///< items published so far
    std::atomic<bool> aborted{false};    ///< the producer failed
    std::size_t n = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::size_t pending = 0;
    std::exception_ptr error;

    /// Wait until item i is published; false when the producer failed
    /// first.
    bool wait_ready(std::size_t i) const {
      for (unsigned spins = 0; ready.load(std::memory_order_acquire) <= i;
           ++spins) {
        if (aborted.load(std::memory_order_acquire)) return false;
        if (spins < kSpinsBeforeYield) {
          cpu_relax();
        } else {
          std::this_thread::yield();
        }
      }
      return true;
    }
  };
  auto state = std::make_shared<CallState>();
  state->n = n;
  state->body = &body;
  state->ready.store(produce ? 0 : n, std::memory_order_relaxed);
  const std::size_t participants = std::min(impl_->total, n);
  state->pending = participants;

  // One registry lookup per process; per call the metrics cost is two
  // striped adds and a gauge store — per *index* it is zero.
  static Counter& submitted_metric = metric_counter("pool.tasks_submitted");
  static Counter& executed_metric = metric_counter("pool.tasks_executed");
  static Gauge& queue_depth_metric = metric_gauge("pool.queue_depth");

  // The one chunk loop: claim the next index, wait until it is published,
  // run it.
  auto chunk = [state] {
    std::exception_ptr first;
    {
      const InsideParallel inside;
      for (;;) {
        const std::size_t i =
            state->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= state->n || !state->wait_ready(i)) break;
        try {
          (*state->body)(i);
        } catch (...) {
          if (!first) first = std::current_exception();
        }
      }
    }
    executed_metric.add();
    std::lock_guard<std::mutex> lock(state->done_mutex);
    if (first && !state->error) state->error = first;
    if (--state->pending == 0) state->done_cv.notify_all();
  };

  {
    std::lock_guard<std::mutex> lock(impl_->queue_mutex);
    for (std::size_t i = 0; i + 1 < participants; ++i) {
      impl_->queue.push_back(chunk);
    }
    submitted_metric.add(participants - 1);
    queue_depth_metric.set(static_cast<double>(impl_->queue.size()));
  }
  impl_->queue_cv.notify_all();

  if (produce) {
    try {
      // Nested calls from the producer run inline: queued behind workers
      // that wait on this very producer, they could never start.
      const InsideParallel inside;
      for (std::size_t ready = 0; ready < n;) {
        ready = produce_more(produce, ready, n);
        state->ready.store(ready, std::memory_order_release);
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(state->done_mutex);
        state->error = std::current_exception();
      }
      state->aborted.store(true, std::memory_order_release);
    }
  }
  chunk();  // the caller participates

  std::unique_lock<std::mutex> lock(state->done_mutex);
  state->done_cv.wait(lock, [&] { return state->pending == 0; });
  if (state->error) std::rethrow_exception(state->error);
}

namespace {

struct GlobalPoolState {
  std::mutex mutex;
  std::optional<std::size_t> override_threads;
  std::unique_ptr<ThreadPool> pool;
  std::size_t pool_threads = 0;

  std::size_t resolve_locked() const {
    std::size_t n =
        override_threads.has_value() ? *override_threads : env_threads();
    if (n == 0) n = hardware_threads();
    return n;
  }
};

GlobalPoolState& global_state() {
  static GlobalPoolState state;
  return state;
}

}  // namespace

void set_thread_count(std::size_t threads) {
  GlobalPoolState& state = global_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.override_threads = threads;
}

std::size_t effective_thread_count() {
  GlobalPoolState& state = global_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.resolve_locked();
}

ThreadPool& global_pool() {
  GlobalPoolState& state = global_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  const std::size_t want = state.resolve_locked();
  if (!state.pool || state.pool_threads != want) {
    state.pool.reset();  // join the old workers before replacing
    state.pool = std::make_unique<ThreadPool>(want);
    state.pool_threads = want;
  }
  return *state.pool;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  global_pool().parallel_for(n, body);
}

void stream_for(std::size_t n, const ThreadPool::Producer& produce,
                const std::function<void(std::size_t)>& body) {
  global_pool().stream_for(n, produce, body);
}

}  // namespace clrearly::util
