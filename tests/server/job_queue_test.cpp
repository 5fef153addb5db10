// JobQueue tests with a stub runner: FIFO order, bounded admission,
// state machine, cancellation of queued and running jobs, drain semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/job.hpp"
#include "server/job_queue.hpp"

namespace clrearly::server {
namespace {

io::JobSpec tiny_spec() {
  io::JobSpec spec;
  spec.application = io::resolve_application("synthetic:4:1");
  spec.architecture = io::resolve_architecture("default");
  spec.ga.population_size = 4;
  spec.ga.generations = 1;
  return spec;
}

std::shared_ptr<JobRecord> make_job(const std::string& id) {
  return std::make_shared<JobRecord>(id, tiny_spec());
}

TEST(JobQueueTest, RunsJobsInSubmissionOrder) {
  std::mutex mutex;
  std::vector<std::string> ran;
  JobQueue queue(/*workers=*/1, /*max_depth=*/8, [&](JobRecord& job) {
    if (!job.try_start()) return;
    {
      std::lock_guard<std::mutex> lock(mutex);
      ran.push_back(job.id());
    }
    job.finish(JobResult{});
  });
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.submit(make_job("j" + std::to_string(i))).has_value());
  }
  queue.shutdown(/*cancel_pending=*/false);  // drain everything first
  EXPECT_EQ(ran, (std::vector<std::string>{"j0", "j1", "j2", "j3"}));
  EXPECT_EQ(queue.find("j2")->state(), JobState::kDone);
}

TEST(JobQueueTest, BoundedAdmissionRejectsWhenFull) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  JobQueue queue(/*workers=*/1, /*max_depth=*/2, [&](JobRecord& job) {
    if (!job.try_start()) return;
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
    job.finish(JobResult{});
  });
  // First job occupies the worker (blocked on the gate); wait until it
  // leaves the queue so the depth bound applies to the two that follow.
  ASSERT_TRUE(queue.submit(make_job("running")).has_value());
  while (queue.depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(queue.submit(make_job("q1")), std::optional<std::size_t>(0));
  EXPECT_EQ(queue.submit(make_job("q2")), std::optional<std::size_t>(1));
  // Queue full -> admission refused; the job is still addressable? No:
  // rejected jobs are never registered.
  EXPECT_FALSE(queue.submit(make_job("q3")).has_value());
  EXPECT_EQ(queue.find("q3"), nullptr);
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
    gate_cv.notify_all();
  }
  queue.shutdown(/*cancel_pending=*/false);
  EXPECT_EQ(queue.find("q2")->state(), JobState::kDone);
}

TEST(JobQueueTest, CancelQueuedJobIsImmediateAndSkipped) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> executed{0};
  JobQueue queue(/*workers=*/1, /*max_depth=*/8, [&](JobRecord& job) {
    if (!job.try_start()) return;
    ++executed;
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
    job.finish(JobResult{});
  });
  ASSERT_TRUE(queue.submit(make_job("running")).has_value());
  while (queue.depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(queue.submit(make_job("victim")).has_value());
  EXPECT_TRUE(queue.cancel("victim"));
  EXPECT_EQ(queue.find("victim")->state(), JobState::kCancelled);
  EXPECT_FALSE(queue.cancel("victim"));  // already terminal
  EXPECT_FALSE(queue.cancel("no-such-job"));
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
    gate_cv.notify_all();
  }
  queue.shutdown(/*cancel_pending=*/false);
  EXPECT_EQ(executed.load(), 1);  // the victim never ran
}

TEST(JobQueueTest, CancelRunningJobSetsCooperativeFlag) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  JobQueue queue(/*workers=*/1, /*max_depth=*/8, [&](JobRecord& job) {
    if (!job.try_start()) return;
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
    // A real runner polls the flag between generations.
    if (job.cancel_requested()) {
      job.cancel();
    } else {
      job.finish(JobResult{});
    }
  });
  auto job = make_job("running");
  ASSERT_TRUE(queue.submit(job).has_value());
  while (job->state() != JobState::kRunning) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(queue.cancel("running"));
  EXPECT_TRUE(job->cancel_requested());
  EXPECT_EQ(job->state(), JobState::kRunning);  // cooperative, not preemptive
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
    gate_cv.notify_all();
  }
  queue.shutdown(/*cancel_pending=*/false);
  EXPECT_EQ(job->state(), JobState::kCancelled);
}

TEST(JobQueueTest, ShutdownCancelPendingDropsQueueButDrainsRunning) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  JobQueue queue(/*workers=*/1, /*max_depth=*/8, [&](JobRecord& job) {
    if (!job.try_start()) return;
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
    job.finish(JobResult{});
  });
  auto running = make_job("running");
  ASSERT_TRUE(queue.submit(running).has_value());
  while (queue.depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto queued = make_job("queued");
  ASSERT_TRUE(queue.submit(queued).has_value());

  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
    gate_cv.notify_all();
  });
  queue.shutdown(/*cancel_pending=*/true);
  releaser.join();
  EXPECT_EQ(running->state(), JobState::kDone);       // drained
  EXPECT_EQ(queued->state(), JobState::kCancelled);   // dropped
  // Post-shutdown submissions are refused.
  EXPECT_FALSE(queue.submit(make_job("late")).has_value());
}

TEST(JobQueueTest, HighPriorityJobsDequeueFirst) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::mutex order_mutex;
  std::vector<std::string> ran;
  JobQueue queue(/*workers=*/1, /*max_depth=*/8, [&](JobRecord& job) {
    if (!job.try_start()) return;
    {
      std::unique_lock<std::mutex> lock(gate_mutex);
      gate_cv.wait(lock, [&] { return gate_open; });
    }
    {
      std::lock_guard<std::mutex> lock(order_mutex);
      ran.push_back(job.id());
    }
    job.finish(JobResult{});
  });
  // Occupy the worker, then interleave priorities while everything waits.
  ASSERT_TRUE(queue.submit(make_job("running")).has_value());
  while (queue.depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(queue.submit(make_job("n1")).has_value());
  auto urgent = std::make_shared<JobRecord>("h1", tiny_spec(),
                                            JobPriority::kHigh);
  // A high-priority job jumps the whole normal backlog: position 0.
  EXPECT_EQ(queue.submit(urgent), std::optional<std::size_t>(0));
  EXPECT_EQ(queue.submit(make_job("n2")), std::optional<std::size_t>(2));
  EXPECT_EQ(queue.depth(), 3u);
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
    gate_cv.notify_all();
  }
  queue.shutdown(/*cancel_pending=*/false);
  EXPECT_EQ(ran,
            (std::vector<std::string>{"running", "h1", "n1", "n2"}));
}

TEST(JobQueueTest, ForcedSubmitBypassesTheDepthBound) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  JobQueue queue(/*workers=*/1, /*max_depth=*/1, [&](JobRecord& job) {
    if (!job.try_start()) return;
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
    job.finish(JobResult{});
  });
  ASSERT_TRUE(queue.submit(make_job("running")).has_value());
  while (queue.depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(queue.submit(make_job("q1")).has_value());
  EXPECT_FALSE(queue.submit(make_job("refused")).has_value());
  // Journal replay re-admits past the bound: acked work is never shed.
  EXPECT_TRUE(queue.submit(make_job("replayed"), /*force=*/true).has_value());
  EXPECT_EQ(queue.depth(), 2u);
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
    gate_cv.notify_all();
  }
  queue.shutdown(/*cancel_pending=*/false);
  EXPECT_EQ(queue.find("replayed")->state(), JobState::kDone);
}

TEST(JobQueueTest, CancelNeverReportsCancelledForACompletedJob) {
  // Race the canceller against the worker on a queue that pops as fast as
  // it can: whatever interleaving happens, a job that reports kCancelled
  // must never have run to completion, and a job that ran must report
  // kDone. Before cancel() was closed under the queue mutex, the
  // lookup-then-flip window allowed a job to be reported cancelled while
  // the worker ran it to done (or the done state to win and the cancel to
  // be acked anyway with completed=true).
  std::atomic<int> completed{0};
  JobQueue queue(/*workers=*/2, /*max_depth=*/256, [&](JobRecord& job) {
    if (!job.try_start()) return;
    ++completed;
    job.finish(JobResult{});
  });
  std::vector<std::shared_ptr<JobRecord>> jobs;
  for (int i = 0; i < 200; ++i) {
    auto job = make_job("race-" + std::to_string(i));
    if (queue.submit(job).has_value()) {
      jobs.push_back(std::move(job));
      // Cancel from this thread while workers pop concurrently.
      queue.cancel(jobs.back()->id());
    }
  }
  queue.shutdown(/*cancel_pending=*/false);
  int cancelled = 0, done = 0;
  for (const auto& job : jobs) {
    const JobState state = job->state();
    ASSERT_TRUE(state == JobState::kCancelled || state == JobState::kDone)
        << job->id() << " ended " << to_string(state);
    (state == JobState::kCancelled ? cancelled : done) += 1;
  }
  // The invariant under test: every completed execution reports kDone, so
  // the cancelled + done split exactly accounts for the executed count.
  EXPECT_EQ(done, completed.load());
  EXPECT_EQ(cancelled + done, static_cast<int>(jobs.size()));
}

std::string finished_id(std::size_t i) {
  std::string id = "f";
  id += std::to_string(i);
  return id;
}

TEST(JobQueueTest, ForgetsTheOldestFinishedJobsBeyondTheCap) {
  // One worker holds the first job running behind a gate while the other
  // finishes cap + 10 jobs in submission order: the ten that finished first
  // are forgotten, the newest cap stay, and the older running job stays too.
  constexpr std::size_t kCap = JobQueue::kMaxFinishedJobs;
  constexpr std::size_t kFinished = kCap + 10;
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  JobQueue queue(/*workers=*/2, /*max_depth=*/kFinished, [&](JobRecord& job) {
    if (!job.try_start()) return;
    if (job.id() == "running") {
      std::unique_lock<std::mutex> lock(gate_mutex);
      gate_cv.wait(lock, [&] { return gate_open; });
    }
    job.finish(JobResult{});
  });
  auto running = make_job("running");
  ASSERT_TRUE(queue.submit(running).has_value());
  while (running->state() != JobState::kRunning) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::size_t i = 0; i < kFinished; ++i) {
    ASSERT_TRUE(queue.submit(make_job(finished_id(i))).has_value());
  }
  // The last job to finish forgets f9, the tenth-oldest.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (queue.find("f9") != nullptr &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::size_t i = 0; i < kFinished; ++i) {
    const std::shared_ptr<JobRecord> job = queue.find(finished_id(i));
    if (i < kFinished - kCap) {
      EXPECT_EQ(job, nullptr) << "f" << i << " should be forgotten";
    } else {
      ASSERT_NE(job, nullptr) << "f" << i << " should be kept";
      EXPECT_EQ(job->state(), JobState::kDone);
    }
  }
  EXPECT_EQ(queue.find("running"), running);
  EXPECT_EQ(running->state(), JobState::kRunning);
  const auto jobs = queue.jobs();
  ASSERT_EQ(jobs.size(), kCap + 1);
  EXPECT_EQ(jobs.front(), running);  // submission order
  EXPECT_EQ(jobs.back()->id(), finished_id(kFinished - 1));

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
    gate_cv.notify_all();
  }
  queue.shutdown(/*cancel_pending=*/false);
  // Finishing last, the once-running job displaces the oldest kept one.
  EXPECT_EQ(running->state(), JobState::kDone);
  EXPECT_EQ(queue.find("running"), running);
  EXPECT_EQ(queue.find(finished_id(kFinished - kCap)), nullptr);
  EXPECT_EQ(queue.jobs().size(), kCap);
}

TEST(JobQueueTest, RecordStateMachineRejectsBadTransitions) {
  auto job = make_job("sm");
  EXPECT_EQ(job->state(), JobState::kQueued);
  EXPECT_TRUE(job->try_start());
  EXPECT_FALSE(job->try_start());  // already running
  job->finish(JobResult{});
  EXPECT_EQ(job->state(), JobState::kDone);
  job->cancel();  // terminal states are sticky
  EXPECT_EQ(job->state(), JobState::kDone);
  job->fail("nope");
  EXPECT_EQ(job->state(), JobState::kDone);

  auto cancelled = make_job("cancelled-while-queued");
  cancelled->cancel();
  EXPECT_FALSE(cancelled->try_start());
  EXPECT_EQ(cancelled->state(), JobState::kCancelled);
}

}  // namespace
}  // namespace clrearly::server
