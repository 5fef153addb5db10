#include "server/job_queue.hpp"

#include <algorithm>
#include <utility>

#include "util/metrics.hpp"

namespace clrearly::server {

namespace {

void set_depth_gauge(std::size_t depth) {
  static util::Gauge& gauge = util::metric_gauge("server.queue_depth");
  gauge.set(static_cast<double>(depth));
}

}  // namespace

JobQueue::JobQueue(std::size_t workers, std::size_t max_depth, Runner runner)
    : max_depth_(max_depth == 0 ? 1 : max_depth), runner_(std::move(runner)) {
  const std::size_t count = workers == 0 ? 1 : workers;
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

JobQueue::~JobQueue() { shutdown(true); }

std::optional<std::size_t> JobQueue::submit(std::shared_ptr<JobRecord> job,
                                            bool force) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ || (!force && waiting_locked() >= max_depth_)) {
      static util::Counter& rejected =
          util::metric_counter("server.jobs.rejected");
      rejected.add();
      return std::nullopt;
    }
    const JobPriority priority = job->priority();
    // Dequeue position across both levels: a high-priority job jumps the
    // whole normal deque; a normal job waits behind everything.
    const std::size_t position = priority == JobPriority::kHigh
                                     ? high_.size()
                                     : waiting_locked();
    deque_for(priority).push_back(job);
    all_.push_back(job);
    by_id_[job->id()] = std::move(job);
    set_depth_gauge(waiting_locked());
    static util::Counter& submitted =
        util::metric_counter("server.jobs.submitted");
    submitted.add();
    cv_.notify_one();
    return position;
  }
}

std::shared_ptr<JobRecord> JobQueue::find(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<JobRecord>> JobQueue::jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return all_;
}

bool JobQueue::cancel(const std::string& id) {
  std::shared_ptr<JobRecord> job;
  bool was_waiting = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = by_id_.find(id);
    if (it == by_id_.end()) return false;
    job = it->second;
    if (is_terminal(job->state())) return false;
    // Remove from the waiting deque and cancel under the same lock the
    // workers pop under: either this thread takes the job (immediate
    // cancel, never runs) or a worker already has it (cooperative only) —
    // no window where both believe they own it.
    for (auto* level : {&high_, &normal_}) {
      const auto pos = std::find(level->begin(), level->end(), job);
      if (pos != level->end()) {
        level->erase(pos);
        was_waiting = true;
        break;
      }
    }
    job->request_cancel();
    if (was_waiting) {
      job->cancel();
      retire_locked(job);
      set_depth_gauge(waiting_locked());
      static util::Counter& cancelled =
          util::metric_counter("server.jobs.cancelled");
      cancelled.add();
    }
  }
  return true;
}

std::size_t JobQueue::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return waiting_locked();
}

void JobQueue::shutdown(bool cancel_pending) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    if (cancel_pending) {
      for (auto* level : {&high_, &normal_}) {
        for (const auto& job : *level) {
          if (!is_terminal(job->state())) job->cancel();
        }
        level->clear();
      }
      set_depth_gauge(0);
    }
    cv_.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

void JobQueue::worker_loop() {
  for (;;) {
    std::shared_ptr<JobRecord> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || waiting_locked() > 0; });
      if (waiting_locked() == 0) return;  // stopping, queue drained
      auto& level = high_.empty() ? normal_ : high_;
      job = std::move(level.front());
      level.pop_front();
      set_depth_gauge(waiting_locked());
    }
    // Cancelled-while-queued jobs never reach here (cancel() removes them
    // from the deque); a cooperative cancel latched after the pop is
    // honoured by the runner's progress hook.
    runner_(*job);
    std::lock_guard<std::mutex> lock(mutex_);
    if (is_terminal(job->state())) retire_locked(job);
  }
}

void JobQueue::retire_locked(const std::shared_ptr<JobRecord>& job) {
  finished_.push_back(job);
  while (finished_.size() > kMaxFinishedJobs) {
    const std::shared_ptr<JobRecord> old = std::move(finished_.front());
    finished_.pop_front();
    const auto it = by_id_.find(old->id());
    if (it != by_id_.end() && it->second == old) by_id_.erase(it);
    all_.erase(std::find(all_.begin(), all_.end(), old));
  }
}

}  // namespace clrearly::server
