// Two-level priority job queue with a fixed worker pool and bounded
// admission.
//
// Submission is admission-controlled: at most `max_depth` jobs may be
// waiting; beyond that submit() refuses (the HTTP layer turns that into
// 429 Too Many Requests) so an overloaded daemon degrades by shedding load
// instead of growing an unbounded backlog. Jobs carry a JobPriority; workers
// always drain the high-priority deque before the normal one, and within a
// level strictly FIFO. Workers are plain std::threads (not the
// util::ThreadPool — they block on a condition variable between jobs, and
// each job's GA internally fans out through the pool already).
//
// Cancellation is race-free: the waiting deques are searched and the queued
// job flipped to cancelled under the same mutex the workers pop under, so a
// cancel can never report "cancelled while queued" for a job a worker is
// about to (or already did) start. Jobs already popped get the cooperative
// cancel request only.
//
// Finished jobs stay addressable, but only the newest kMaxFinishedJobs of
// them: a finished job holds its result and progress events, so a daemon
// that kept every one would grow for as long as it runs. The oldest to
// finish is forgotten first; queued and running jobs never are.
//
// The runner is injected so tests can exercise queueing, admission and
// cancellation with a stub instead of a full DSE run.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "server/job.hpp"

namespace clrearly::server {

class JobQueue {
 public:
  using Runner = std::function<void(JobRecord&)>;

  /// Terminal jobs kept addressable; the id of an older one answers like an
  /// unknown id. At about 95 KB per finished proposed-flow job (result and
  /// progress events) that is about 25 MB.
  static constexpr std::size_t kMaxFinishedJobs = 256;

  /// Starts `workers` threads immediately. `max_depth` bounds *waiting*
  /// jobs (running ones don't count against it).
  JobQueue(std::size_t workers, std::size_t max_depth, Runner runner);
  ~JobQueue();
  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Enqueue into the deque matching `job->priority()`; returns the 0-based
  /// dequeue position across both levels, or nullopt when the queue is full
  /// or shutting down (caller decides the status code). `force` bypasses
  /// the depth bound — journal replay must re-admit every interrupted job
  /// even when there are more of them than a live client could submit.
  std::optional<std::size_t> submit(std::shared_ptr<JobRecord> job,
                                    bool force = false);

  /// Look a job up by id: every queued or running job, and the newest
  /// kMaxFinishedJobs terminal ones. A holder of the returned pointer (an
  /// open SSE stream) keeps the record alive after it is forgotten here.
  std::shared_ptr<JobRecord> find(const std::string& id) const;

  /// Snapshot of every job find() knows, submission order.
  std::vector<std::shared_ptr<JobRecord>> jobs() const;

  /// Cancel by id. Still-waiting jobs are removed from their deque and flip
  /// to cancelled immediately — atomically with respect to worker pops, so
  /// the reported state is truthful. Running jobs get a cooperative cancel
  /// request. False when the id is unknown or the job already reached a
  /// terminal state.
  bool cancel(const std::string& id);

  std::size_t depth() const;  ///< currently waiting jobs (both levels)

  /// Stop accepting work and join the workers. Running jobs are always
  /// drained to completion; queued jobs are cancelled when `cancel_pending`,
  /// otherwise executed first. The jobs cancelled here are never forgotten,
  /// so the caller can still journal their final states. Idempotent.
  void shutdown(bool cancel_pending);

 private:
  void worker_loop();
  /// Record that `job` reached a terminal state, forgetting the oldest
  /// finished job beyond kMaxFinishedJobs.
  void retire_locked(const std::shared_ptr<JobRecord>& job);
  std::size_t waiting_locked() const {
    return high_.size() + normal_.size();
  }
  std::deque<std::shared_ptr<JobRecord>>& deque_for(JobPriority priority) {
    return priority == JobPriority::kHigh ? high_ : normal_;
  }

  const std::size_t max_depth_;
  const Runner runner_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::deque<std::shared_ptr<JobRecord>> high_;
  std::deque<std::shared_ptr<JobRecord>> normal_;
  std::vector<std::shared_ptr<JobRecord>> all_;
  std::map<std::string, std::shared_ptr<JobRecord>> by_id_;
  std::deque<std::shared_ptr<JobRecord>> finished_;  ///< oldest first
  std::vector<std::thread> workers_;
};

}  // namespace clrearly::server
