#include "server/job.hpp"

#include <chrono>
#include <utility>

#include "core/scenario.hpp"
#include "reliability/clr_chain_builder.hpp"
#include "util/metrics.hpp"

namespace clrearly::server {

const char* to_string(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

bool is_terminal(JobState state) noexcept {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

JobState job_state_from_string(const std::string& name) {
  if (name == "queued") return JobState::kQueued;
  if (name == "running") return JobState::kRunning;
  if (name == "done") return JobState::kDone;
  if (name == "failed") return JobState::kFailed;
  if (name == "cancelled") return JobState::kCancelled;
  throw std::invalid_argument("unknown job state: " + name);
}

const char* to_string(JobPriority priority) noexcept {
  return priority == JobPriority::kHigh ? "high" : "normal";
}

JobPriority priority_from_string(const std::string& name) {
  if (name == "high") return JobPriority::kHigh;
  if (name == "normal") return JobPriority::kNormal;
  throw std::invalid_argument("unknown job priority: " + name);
}

util::JsonValue to_json(const ProgressEvent& event) {
  return util::JsonValue(util::JsonObject{
      {"sequence", event.sequence},
      {"stage", event.stage},
      {"generation", event.generation},
      {"generations", event.generations},
      {"evaluations", event.evaluations},
      {"front_size", event.front_size},
      {"hv_proxy", event.hv_proxy}});
}

util::JsonValue to_json(const CacheDelta& delta) {
  return util::JsonValue(util::JsonObject{
      {"chain_hits", static_cast<double>(delta.chain_hits)},
      {"chain_misses", static_cast<double>(delta.chain_misses)}});
}

CacheDelta cache_counters_now() {
  const util::CacheStats stats = reliability::chain_cache_stats();
  return CacheDelta{stats.hits, stats.misses};
}

// ------------------------------------------------------------------ record

JobRecord::JobRecord(std::string id, io::JobSpec spec, JobPriority priority)
    : id_(std::move(id)), spec_(std::move(spec)), priority_(priority) {}

JobState JobRecord::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

bool JobRecord::try_start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != JobState::kQueued) return false;
  state_ = JobState::kRunning;
  return true;
}

void JobRecord::finish(JobResult result) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (is_terminal(state_)) return;
  state_ = JobState::kDone;
  result_ = std::move(result);
}

void JobRecord::fail(const std::string& error) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (is_terminal(state_)) return;
  state_ = JobState::kFailed;
  error_ = error;
}

void JobRecord::cancel() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (is_terminal(state_)) return;
  state_ = JobState::kCancelled;
}

void JobRecord::push_event(ProgressEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  event.sequence = events_.size();
  events_.push_back(std::move(event));
}

std::vector<ProgressEvent> JobRecord::events_since(std::size_t from) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (from >= events_.size()) return {};
  return std::vector<ProgressEvent>(events_.begin() +
                                        static_cast<std::ptrdiff_t>(from),
                                    events_.end());
}

std::size_t JobRecord::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

util::JsonValue JobRecord::status_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  util::JsonObject status{{"id", id_},
                          {"state", to_string(state_)},
                          {"flow", spec_.flow},
                          {"seed", spec_.seed},
                          {"priority", to_string(priority_)},
                          {"events", events_.size()}};
  if (!spec_.name.empty()) status.emplace("name", spec_.name);
  if (!events_.empty()) status.emplace("progress", to_json(events_.back()));
  if (state_ == JobState::kFailed) status.emplace("error", error_);
  if (result_.has_value()) {
    status.emplace("front_size", result_->outcome.front.size());
    status.emplace("evaluations", result_->outcome.evaluations);
    status.emplace("wall_seconds", result_->wall_seconds);
    status.emplace("cache", to_json(result_->cache));
  }
  return util::JsonValue(std::move(status));
}

util::JsonValue JobRecord::result_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != JobState::kDone || !result_.has_value()) {
    throw std::logic_error("JobRecord::result_json: job not done");
  }
  util::JsonArray front;
  for (const moea::Objectives& point : result_->outcome.front) {
    util::JsonArray values;
    for (double v : point) values.push_back(util::JsonValue(v));
    front.push_back(util::JsonValue(std::move(values)));
  }
  util::JsonArray genomes;
  for (const core::MappingGenome& genome : result_->outcome.front_genomes) {
    util::JsonArray order;
    for (std::size_t t : genome.order) order.push_back(util::JsonValue(t));
    util::JsonArray genes;
    for (auto g : genome.genes) {
      genes.push_back(util::JsonValue(static_cast<std::size_t>(g)));
    }
    genomes.push_back(util::JsonValue(
        util::JsonObject{{"order", std::move(order)},
                         {"genes", std::move(genes)}}));
  }
  return util::JsonValue(util::JsonObject{
      {"id", id_},
      {"state", to_string(state_)},
      {"flow", spec_.flow},
      {"seed", spec_.seed},
      {"format_version", spec_.format_version},
      {"front", std::move(front)},
      {"front_genomes", std::move(genomes)},
      {"evaluations", result_->outcome.evaluations},
      {"wall_seconds", result_->wall_seconds},
      {"cache", to_json(result_->cache)}});
}

// ----------------------------------------------------------------- session

namespace {

core::DseOptions model_half(const io::JobSpec& spec) {
  core::DseOptions options;
  options.objectives = spec.objectives;
  options.spec = spec.spec;
  options.tdse_objectives = spec.tdse_objectives;
  options.resilience = spec.resilience;
  return options;
}

}  // namespace

ModelSession::ModelSession(const io::JobSpec& spec)
    : model_options_(model_half(spec)),
      methodology_(spec.application, spec.architecture,
                   core::make_condition_analyzer(
                       spec.scenario.environment_factor)) {}

const core::ClrMappingProblem& ModelSession::fc_problem() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!fc_.has_value()) {
    fc_.emplace(methodology_.build_fcclr_problem(model_options_));
  }
  return *fc_;
}

const core::ResilientProblem& ModelSession::resilient_problem() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!resilient_.has_value()) {
    resilient_.emplace(methodology_.build_resilient_problem(model_options_));
  }
  return *resilient_;
}

const core::ClrMappingProblem& ModelSession::pf_problem() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!pf_.has_value()) {
    pf_.emplace(methodology_.build_pfclr_problem(
        model_options_, methodology_.run_tdse(model_options_)));
  }
  return *pf_;
}

SessionCache::SessionCache(std::size_t max_sessions)
    : max_sessions_(max_sessions == 0 ? 1 : max_sessions) {}

SessionCache::Lease SessionCache::acquire(const io::JobSpec& spec) {
  const std::string key = spec.model_key();
  std::lock_guard<std::mutex> lock(mutex_);
  ++tick_;
  for (auto& [session_key, session] : sessions_) {
    if (session_key == key) {
      session->touch(tick_);
      session->pin();
      static util::Counter& hits =
          util::metric_counter("server.sessions.hits");
      hits.add();
      return Lease(session);
    }
  }
  // Evict LRU sessions down to the bound — but only unpinned ones: a
  // session some job still runs against must stay addressable so same-key
  // jobs keep reusing its problems. When every session is pinned the
  // pool grows past max_sessions_ transiently and shrinks on later
  // acquires.
  while (sessions_.size() >= max_sessions_) {
    std::size_t oldest = sessions_.size();
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      if (sessions_[i].second->pins() > 0) continue;
      if (oldest == sessions_.size() ||
          sessions_[i].second->last_used() <
              sessions_[oldest].second->last_used()) {
        oldest = i;
      }
    }
    if (oldest == sessions_.size()) break;  // all pinned: grow instead
    sessions_.erase(sessions_.begin() + static_cast<std::ptrdiff_t>(oldest));
    static util::Counter& evictions =
        util::metric_counter("server.sessions.evictions");
    evictions.add();
  }
  auto session = std::make_shared<ModelSession>(spec);
  session->touch(tick_);
  session->pin();
  sessions_.emplace_back(key, session);
  static util::Counter& misses = util::metric_counter("server.sessions.misses");
  misses.add();
  return Lease(session);
}

std::size_t SessionCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

// ------------------------------------------------------------------ runner

void run_job(JobRecord& job, ModelSession& session) {
  if (!job.try_start()) return;  // cancelled while queued
  const auto start = std::chrono::steady_clock::now();
  const CacheDelta before = cache_counters_now();
  try {
    core::DseOptions options = job.spec().options();
    const std::string stage = job.spec().flow;
    // For island jobs (spec.islands.count > 1) this hook fires once per
    // migration epoch over the merged front rather than once per generation,
    // so progress events and cancellation both land at epoch granularity
    // (docs/SCALING.md).
    options.ga.on_generation = [&job, stage](
                                   const moea::GenerationProgress& progress) {
      if (job.cancel_requested()) throw JobCancelled();
      ProgressEvent event;
      event.stage = stage;
      event.generation = progress.generation;
      event.generations = progress.generations;
      event.evaluations = progress.evaluations;
      event.front_size = progress.front_size;
      event.hv_proxy = progress.hv_proxy;
      job.push_event(std::move(event));
    };

    const core::DseMethodology& methodology = session.methodology();
    core::DseOutcome outcome;
    if (job.spec().flow == "fcclr") {
      outcome = methodology.run_fcclr(options, session.fc_problem());
    } else if (job.spec().flow == "pfclr") {
      outcome = methodology.run_pfclr(options, session.pf_problem());
    } else if (job.spec().flow == "kresilient") {
      outcome = methodology.run_kresilient(options, session.resilient_problem());
    } else {
      // Build order fixed (pf before fc) so cache warm-up is deterministic.
      const core::ClrMappingProblem& pf = session.pf_problem();
      const core::ClrMappingProblem& fc = session.fc_problem();
      outcome = methodology.run_proposed(options, pf, fc);
    }

    JobResult result;
    result.outcome = std::move(outcome);
    const CacheDelta after = cache_counters_now();
    result.cache.chain_hits = after.chain_hits - before.chain_hits;
    result.cache.chain_misses = after.chain_misses - before.chain_misses;
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    util::observe_seconds("server.job_seconds", result.wall_seconds);
    job.finish(std::move(result));
    static util::Counter& completed =
        util::metric_counter("server.jobs.completed");
    completed.add();
  } catch (const JobCancelled&) {
    job.cancel();
    static util::Counter& cancelled =
        util::metric_counter("server.jobs.cancelled");
    cancelled.add();
  } catch (const std::exception& e) {
    job.fail(e.what());
    static util::Counter& failed = util::metric_counter("server.jobs.failed");
    failed.add();
  }
}

}  // namespace clrearly::server
