// Job model of the serve daemon: one JobRecord per submitted JobSpec, one
// ModelSession per distinct model key, and the runner that executes a job
// against its session.
//
// Sessions are the cross-request sharing mechanism. A ModelSession owns a
// DseMethodology plus lazily built fcCLR/pfCLR problem instances; every job
// whose JobSpec::model_key() matches runs over the *same* problem objects,
// so the metric tables and the tDSE run behind them are built once per
// model, not once per request (a rebuild after eviction still finds its
// chain solves in the process-wide chain-solve cache). Because fitness is a
// pure function of the genome and the flows take the identical code path as
// the offline CLI, shared sessions change throughput, never results — an
// HTTP job is bit-identical to `clrearly dse` with the same spec and seed.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dse.hpp"
#include "io/serialize.hpp"
#include "util/json.hpp"

namespace clrearly::server {

/// Thrown out of the per-generation progress hook to abort a running GA —
/// the sanctioned early-termination path (see moea::ProgressHook).
struct JobCancelled : std::runtime_error {
  JobCancelled() : std::runtime_error("job cancelled") {}
};

enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

const char* to_string(JobState state) noexcept;
bool is_terminal(JobState state) noexcept;
/// Inverse of to_string; throws std::invalid_argument on an unknown tag
/// (the journal replayer wants loud failures, not silent defaults).
JobState job_state_from_string(const std::string& name);

/// Two-level scheduling class, chosen per request via the X-Priority
/// header: high-priority jobs always dequeue before normal ones.
enum class JobPriority { kHigh, kNormal };

const char* to_string(JobPriority priority) noexcept;
JobPriority priority_from_string(const std::string& name);

/// One per-generation progress sample (mirrors moea::GenerationProgress,
/// plus which GA stage of a multi-stage flow produced it).
struct ProgressEvent {
  std::size_t sequence = 0;     ///< 0-based event index within the job
  std::string stage;            ///< "fcclr" | "pfclr" | "tdse" | ...
  std::size_t generation = 0;
  std::size_t generations = 0;
  std::size_t evaluations = 0;
  std::size_t front_size = 0;
  double hv_proxy = 0.0;
};

util::JsonValue to_json(const ProgressEvent& event);

/// Hit/miss deltas of the chain-solve cache over one job's execution,
/// measured from reliability::chain_cache_stats(). Under concurrent jobs the
/// deltas include the neighbours' traffic (the counters are process-wide);
/// they are reported for observability, and the smoke tests that assert on
/// them run jobs back-to-back where the attribution is exact.
struct CacheDelta {
  std::uint64_t chain_hits = 0;
  std::uint64_t chain_misses = 0;
};

util::JsonValue to_json(const CacheDelta& delta);

/// Snapshot the chain cache's current totals (for delta computation).
CacheDelta cache_counters_now();

/// Everything a finished job reports.
struct JobResult {
  core::DseOutcome outcome;
  CacheDelta cache;          ///< counter deltas over this job's execution
  double wall_seconds = 0.0;
};

/// One submitted job. Mutable state (state machine, progress events, result,
/// error) is guarded by an internal mutex; the spec is immutable after
/// construction. Cancellation is cooperative: request_cancel() latches a
/// flag that the runner's progress hook polls between generations.
class JobRecord {
 public:
  JobRecord(std::string id, io::JobSpec spec,
            JobPriority priority = JobPriority::kNormal);

  const std::string& id() const noexcept { return id_; }
  const io::JobSpec& spec() const noexcept { return spec_; }
  JobPriority priority() const noexcept { return priority_; }

  JobState state() const;
  /// Queued -> running; returns false (no-op) if the job is no longer
  /// queued (e.g. it was cancelled while waiting).
  bool try_start();
  void finish(JobResult result);              ///< running -> done
  void fail(const std::string& error);        ///< running/queued -> failed
  void cancel();                              ///< any non-terminal -> cancelled

  void request_cancel() noexcept { cancel_requested_.store(true); }
  bool cancel_requested() const noexcept { return cancel_requested_.load(); }

  void push_event(ProgressEvent event);
  /// Events with sequence >= `from` (bounded copy).
  std::vector<ProgressEvent> events_since(std::size_t from) const;
  std::size_t event_count() const;

  /// Status document for GET /v1/jobs/{id}: id, state, latest progress,
  /// error (when failed), cache/wall stats (when done).
  util::JsonValue status_json() const;
  /// Result document for GET /v1/jobs/{id}/result; throws std::logic_error
  /// unless the job is done.
  util::JsonValue result_json() const;

 private:
  const std::string id_;
  const io::JobSpec spec_;
  const JobPriority priority_;

  mutable std::mutex mutex_;
  JobState state_ = JobState::kQueued;
  std::vector<ProgressEvent> events_;
  std::optional<JobResult> result_;
  std::string error_;
  std::atomic<bool> cancel_requested_{false};
};

/// Lazily built per-model execution context shared by all jobs with the
/// same model key. Problem construction is serialized by an internal mutex;
/// the problems themselves are internally synchronized (their caches are
/// thread-safe) so concurrent jobs may evaluate against one instance.
class ModelSession {
 public:
  /// `spec` donates the model half (application, architecture, scenario,
  /// objectives, QoS, tDSE ladder). Jobs routed here must share the model
  /// key, so any of them describes the same session.
  explicit ModelSession(const io::JobSpec& spec);

  const core::DseMethodology& methodology() const noexcept {
    return methodology_;
  }

  /// The shared problems (built on first use; pf runs tDSE once).
  const core::ClrMappingProblem& fc_problem();
  const core::ClrMappingProblem& pf_problem();
  /// k-resilient problem for the kresilient flow. The resilience spec is
  /// part of the model key, so every job routed here asks for the same one.
  const core::ResilientProblem& resilient_problem();

  /// LRU bookkeeping for SessionCache.
  std::uint64_t last_used() const noexcept { return last_used_.load(); }
  void touch(std::uint64_t tick) noexcept { last_used_.store(tick); }

  /// Pin refcount: a session with active jobs must never be evicted from
  /// the SessionCache index — a same-key job submitted meanwhile would
  /// otherwise build a second copy of the same tables (and tDSE run) beside
  /// the one still in use.
  void pin() noexcept { pins_.fetch_add(1, std::memory_order_relaxed); }
  void unpin() noexcept { pins_.fetch_sub(1, std::memory_order_relaxed); }
  int pins() const noexcept { return pins_.load(std::memory_order_relaxed); }

 private:
  core::DseOptions model_options_;  ///< model half only; seed/ga unused
  core::DseMethodology methodology_;

  std::mutex mutex_;
  std::optional<core::ClrMappingProblem> fc_;
  std::optional<core::ClrMappingProblem> pf_;
  std::optional<core::ResilientProblem> resilient_;
  std::atomic<std::uint64_t> last_used_{0};
  std::atomic<int> pins_{0};
};

/// Bounded model-key -> ModelSession map with LRU eviction. Sessions are
/// handed out as pinned leases: while any job holds a lease, the session
/// stays in the index (eviction considers only unpinned sessions, growing
/// past max_sessions transiently when every session is busy), so a running
/// job's session is never rebuilt mid-run and same-key jobs keep sharing
/// one set of built problems.
class SessionCache {
 public:
  /// RAII pin on a session. Movable; releases the pin on destruction.
  class Lease {
   public:
    Lease() = default;
    explicit Lease(std::shared_ptr<ModelSession> session)
        : session_(std::move(session)) {}
    Lease(Lease&& other) noexcept : session_(std::move(other.session_)) {}
    Lease& operator=(Lease&& other) noexcept {
      release();
      session_ = std::move(other.session_);
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    ModelSession* get() const noexcept { return session_.get(); }
    ModelSession& operator*() const noexcept { return *session_; }
    ModelSession* operator->() const noexcept { return session_.get(); }
    explicit operator bool() const noexcept { return session_ != nullptr; }

   private:
    void release() noexcept {
      if (session_ != nullptr) session_->unpin();
      session_.reset();
    }
    std::shared_ptr<ModelSession> session_;
  };

  explicit SessionCache(std::size_t max_sessions);

  /// Pinned session for `spec`'s model key, creating (and possibly evicting
  /// an *unpinned* LRU session) as needed.
  Lease acquire(const io::JobSpec& spec);

  std::size_t size() const;

 private:
  const std::size_t max_sessions_;
  mutable std::mutex mutex_;
  std::uint64_t tick_ = 0;
  std::vector<std::pair<std::string, std::shared_ptr<ModelSession>>> sessions_;
};

/// Execute `job` against `session`: flow dispatch, progress events,
/// cooperative cancellation, cache-delta accounting, state transitions.
/// Never throws — failures land in the record as kFailed/kCancelled.
void run_job(JobRecord& job, ModelSession& session);

}  // namespace clrearly::server
