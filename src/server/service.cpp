#include "server/service.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "util/log.hpp"
#include "util/metrics.hpp"

namespace clrearly::server {

namespace {

std::string error_body(const std::string& message) {
  return util::json_serialize(util::JsonValue(
      util::JsonObject{{"error", message}}));
}

std::string body_of(const util::JsonValue& value) {
  return util::json_serialize(value);
}

/// json_serialize is multi-line; SSE `data:` payloads must be one line.
std::string flatten(const std::string& json) {
  std::string flat;
  flat.reserve(json.size());
  for (char c : json) {
    if (c != '\n') flat.push_back(c);
  }
  return flat;
}

/// "/v1/jobs/job-000001/result" -> {"job-000001", "result"}; the tail is
/// empty for "/v1/jobs/job-000001".
struct JobPath {
  std::string id;
  std::string tail;
};

JobPath split_job_path(const std::string& path) {
  constexpr const char* kPrefix = "/v1/jobs/";
  JobPath out;
  std::string rest = path.substr(std::string(kPrefix).size());
  const std::size_t slash = rest.find('/');
  out.id = rest.substr(0, slash);
  if (slash != std::string::npos) out.tail = rest.substr(slash + 1);
  return out;
}

/// An event cursor (`from`, Last-Event-Id): decimal digits only.
/// std::from_chars takes no sign, whitespace or trailing bytes, where
/// std::stoul would read "-1" as 2^64 - 1 and "5abc" as 5.
std::optional<std::size_t> parse_event_cursor(const std::string& text) {
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

DseService::DseService(ServiceOptions options)
    : options_(std::move(options)),
      sessions_(options_.max_sessions),
      queue_(options_.workers, options_.queue_depth,
             [this](JobRecord& job) { run_one(job); }) {
  if (!options_.spool_dir.empty()) {
    std::filesystem::create_directories(options_.spool_dir);
    replay_journal();
  }
}

void DseService::replay_journal() {
  const std::string path = options_.spool_dir + "/journal.jsonl";
  std::vector<JournalEntry> entries = JobJournal::replay(path, &replay_stats_);
  journal_ = std::make_unique<JobJournal>(path, options_.journal_compact_bytes);
  journal_->seed(entries);

  // The id counter must resume past every journaled id, terminal or not,
  // or a fresh submission would collide with (and overwrite) an old job.
  std::uint64_t max_id = 0;
  for (const JournalEntry& entry : entries) {
    unsigned long long numeric = 0;
    if (std::sscanf(entry.id.c_str(), "job-%llu", &numeric) == 1) {
      max_id = std::max(max_id, static_cast<std::uint64_t>(numeric));
    }
  }
  next_id_.store(max_id);

  static util::Counter& replayed =
      util::metric_counter("server.journal.replayed");
  std::size_t requeued = 0;
  for (JournalEntry& entry : entries) {
    if (is_terminal(entry.last_state)) continue;
    // Re-admit in original submission order (replay() sorts by seq); the
    // journal already holds these jobs' admission records, so no
    // record_submitted here. `force` bypasses the depth bound — shedding
    // load the previous incarnation already acked would lose acked work.
    auto job = std::make_shared<JobRecord>(entry.id, std::move(entry.spec),
                                           entry.priority);
    if (queue_.submit(std::move(job), /*force=*/true).has_value()) {
      ++requeued;
      replayed.add();
    }
  }
  if (requeued > 0 || replay_stats_.dropped_torn > 0) {
    util::log_info() << "serve: journal replayed " << replay_stats_.records
                     << " records, re-enqueued " << requeued
                     << " interrupted jobs (torn: "
                     << replay_stats_.dropped_torn << ")";
  }
}

void DseService::run_one(JobRecord& job) {
  if (journal_ != nullptr) {
    journal_->record_state(job.id(), JobState::kRunning);
  }
  // Session acquisition happens on the worker, not at admission, so LRU
  // order follows execution order and a queued-then-cancelled job never
  // instantiates a session at all. The lease pins the session for the whole
  // run: the cache may not evict it while the job executes against it.
  SessionCache::Lease session;
  try {
    session = sessions_.acquire(job.spec());
  } catch (const std::exception& e) {
    job.fail(e.what());
    if (journal_ != nullptr) journal_->record_state(job.id(), job.state());
    return;
  }
  run_job(job, *session);
  if (job.state() == JobState::kDone) spool_result(job);
  if (journal_ != nullptr) journal_->record_state(job.id(), job.state());
}

void DseService::shutdown(bool cancel_pending) {
  queue_.shutdown(cancel_pending);
  // Queued jobs cancelled inside the queue's shutdown bypass run_one();
  // record their final states here (record_state is idempotent) so the
  // next incarnation does not resurrect them.
  if (journal_ != nullptr) {
    for (const auto& job : queue_.jobs()) {
      if (is_terminal(job->state())) {
        journal_->record_state(job->id(), job->state());
      }
    }
  }
}

HttpResponse DseService::handle(const HttpRequest& request) {
  try {
    const std::string& path = request.path;
    if (path == "/v1/healthz" && request.method == "GET") {
      return HttpResponse::json(
          200, body_of(util::JsonValue(util::JsonObject{{"status", "ok"}})));
    }
    if (path == "/v1/metrics" && request.method == "GET") return metrics();
    if (path == "/v1/shutdown" && request.method == "POST") {
      request_shutdown();
      return HttpResponse::json(
          200, body_of(util::JsonValue(
                   util::JsonObject{{"state", "shutting_down"}})));
    }
    if (path == "/v1/jobs") {
      if (request.method == "POST") return submit(request);
      if (request.method == "GET") return list_jobs();
      return HttpResponse::json(405, error_body("method not allowed"));
    }
    if (path.rfind("/v1/jobs/", 0) == 0) {
      const JobPath job_path = split_job_path(path);
      if (job_path.id.empty()) {
        return HttpResponse::json(404, error_body("missing job id"));
      }
      if (job_path.tail.empty()) {
        if (request.method != "GET") {
          return HttpResponse::json(405, error_body("method not allowed"));
        }
        return job_status(job_path.id);
      }
      if (job_path.tail == "events" && request.method == "GET") {
        return job_events(request, job_path.id);
      }
      if (job_path.tail == "result" && request.method == "GET") {
        return job_result(job_path.id);
      }
      if (job_path.tail == "cancel" && request.method == "POST") {
        return job_cancel(job_path.id);
      }
      return HttpResponse::json(404, error_body("no such endpoint"));
    }
    return HttpResponse::json(404, error_body("no such endpoint"));
  } catch (const std::exception& e) {
    return HttpResponse::json(500, error_body(e.what()));
  }
}

std::optional<int> DseService::quota_retry_after(const std::string& client) {
  if (options_.quota_rate <= 0.0) return std::nullopt;
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(quota_mutex_);
  auto [it, inserted] = quota_.try_emplace(client);
  QuotaBucket& bucket = it->second;
  if (inserted) {
    bucket.tokens = options_.quota_burst;
    bucket.last_refill = now;
  }
  const double elapsed =
      std::chrono::duration<double>(now - bucket.last_refill).count();
  bucket.tokens = std::min(options_.quota_burst,
                           bucket.tokens + elapsed * options_.quota_rate);
  bucket.last_refill = now;
  if (bucket.tokens >= 1.0) {
    bucket.tokens -= 1.0;
    return std::nullopt;
  }
  static util::Counter& rejected =
      util::metric_counter("server.quota.rejected");
  rejected.add();
  const double wait = (1.0 - bucket.tokens) / options_.quota_rate;
  return std::max(1, static_cast<int>(std::ceil(wait)));
}

HttpResponse DseService::submit(const HttpRequest& request) {
  io::JobSpec spec;
  try {
    spec = io::job_spec_from_json(util::json_parse(request.body));
  } catch (const std::exception& e) {
    return HttpResponse::json(400, error_body(e.what()));
  }

  JobPriority priority = JobPriority::kNormal;
  if (const std::string* header = request.header("x-priority")) {
    try {
      priority = priority_from_string(*header);
    } catch (const std::exception& e) {
      return HttpResponse::json(400, error_body(e.what()));
    }
  }

  const std::string* client_header = request.header("x-client-key");
  const std::string client =
      client_header != nullptr ? *client_header : "default";
  if (const std::optional<int> retry_after = quota_retry_after(client)) {
    HttpResponse response = HttpResponse::json(
        429, error_body("client '" + client + "' over submission quota (" +
                        std::to_string(options_.quota_rate) +
                        "/s); retry later"));
    response.with_header("Retry-After", std::to_string(*retry_after));
    return response;
  }

  char id_buf[32];
  std::snprintf(id_buf, sizeof id_buf, "job-%06llu",
                static_cast<unsigned long long>(
                    next_id_.fetch_add(1) + 1));
  auto job = std::make_shared<JobRecord>(id_buf, std::move(spec), priority);
  const std::optional<std::size_t> position = queue_.submit(job);
  if (!position.has_value()) {
    HttpResponse response = HttpResponse::json(
        429, error_body("queue full (depth " +
                        std::to_string(options_.queue_depth) +
                        "); retry later"));
    response.with_header("Retry-After", "1");
    return response;
  }
  // Journal after admission (a refused job needs no recovery) but before
  // the 202: once the client holds an accepted id, the job must survive a
  // crash.
  if (journal_ != nullptr) journal_->record_submitted(*job, priority, client);
  util::log_info() << "serve: accepted " << job->id() << " flow "
                   << job->spec().flow << " seed " << job->spec().seed;
  return HttpResponse::json(
      202, body_of(util::JsonValue(util::JsonObject{
               {"id", job->id()},
               {"state", to_string(job->state())},
               {"priority", to_string(job->priority())},
               {"queue_position", *position}})));
}

HttpResponse DseService::job_status(const std::string& id) const {
  const std::shared_ptr<JobRecord> job = queue_.find(id);
  if (job == nullptr) {
    return HttpResponse::json(404, error_body("no such job: " + id));
  }
  return HttpResponse::json(200, body_of(job->status_json()));
}

HttpResponse DseService::job_events(const HttpRequest& request,
                                    const std::string& id) const {
  const std::shared_ptr<JobRecord> job = queue_.find(id);
  if (job == nullptr) {
    return HttpResponse::json(404, error_body("no such job: " + id));
  }
  std::size_t from = 0;
  if (const auto param = request.query_param("from")) {
    const std::optional<std::size_t> cursor = parse_event_cursor(*param);
    if (!cursor) {
      return HttpResponse::json(400, error_body("bad 'from' parameter"));
    }
    from = *cursor;
  }
  util::JsonArray events;
  for (const ProgressEvent& event : job->events_since(from)) {
    events.push_back(to_json(event));
  }
  return HttpResponse::json(
      200, body_of(util::JsonValue(util::JsonObject{
               {"id", id},
               {"state", to_string(job->state())},
               {"events", std::move(events)},
               {"next", job->event_count()}})));
}

bool DseService::wants_sse(const HttpRequest& request) {
  if (request.method != "GET") return false;
  if (request.path.rfind("/v1/jobs/", 0) != 0) return false;
  if (split_job_path(request.path).tail != "events") return false;
  const std::string* accept = request.header("accept");
  return accept != nullptr &&
         accept->find("text/event-stream") != std::string::npos;
}

std::optional<HttpResponse> DseService::stream_events_sse(
    const HttpRequest& request, const EventSink& sink,
    const std::atomic<bool>* stop) {
  const JobPath job_path = split_job_path(request.path);
  const std::shared_ptr<JobRecord> job = queue_.find(job_path.id);
  if (job == nullptr) {
    return HttpResponse::json(404, error_body("no such job: " + job_path.id));
  }
  std::size_t from = 0;
  if (const auto param = request.query_param("from")) {
    const std::optional<std::size_t> cursor = parse_event_cursor(*param);
    if (!cursor) {
      return HttpResponse::json(400, error_body("bad 'from' parameter"));
    }
    from = *cursor;
  } else if (const std::string* last = request.header("last-event-id")) {
    // SSE reconnect: the browser replays the last id it saw; resume after.
    const std::optional<std::size_t> seen = parse_event_cursor(*last);
    if (!seen || *seen == std::numeric_limits<std::size_t>::max()) {
      return HttpResponse::json(400, error_body("bad Last-Event-Id header"));
    }
    from = *seen + 1;
  }

  static util::Counter& streams = util::metric_counter("server.sse.streams");
  static util::Counter& sent = util::metric_counter("server.sse.events");
  streams.add();

  // Poll fast (the GA emits events per generation); heartbeat comments keep
  // idle connections visibly alive through proxies and dead-peer detection.
  constexpr int kPollMs = 25;
  constexpr int kHeartbeatMs = 2000;
  int since_heartbeat = 0;
  for (;;) {
    // Read the state *before* draining events: events are published before
    // the terminal transition, so a terminal state read here guarantees the
    // drain below saw every event.
    const JobState state = job->state();
    bool client_gone = false;
    for (const ProgressEvent& event : job->events_since(from)) {
      std::string frame = "id: " + std::to_string(event.sequence) +
                          "\nevent: progress\ndata: " +
                          flatten(util::json_serialize(to_json(event))) +
                          "\n\n";
      if (!sink(frame)) {
        client_gone = true;
        break;
      }
      from = event.sequence + 1;
      sent.add();
      since_heartbeat = 0;
    }
    if (client_gone) break;
    if (is_terminal(state)) {
      const std::string frame =
          "event: state\ndata: " +
          flatten(util::json_serialize(job->status_json())) + "\n\n";
      sink(frame);
      break;
    }
    // Drain: close streams cooperatively.
    if (shutdown_requested() ||
        (stop != nullptr && stop->load(std::memory_order_relaxed))) {
      break;
    }
    if (since_heartbeat >= kHeartbeatMs) {
      if (!sink(": heartbeat\n\n")) break;
      since_heartbeat = 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
    since_heartbeat += kPollMs;
  }
  return std::nullopt;
}

HttpResponse DseService::job_result(const std::string& id) const {
  const std::shared_ptr<JobRecord> job = queue_.find(id);
  if (job == nullptr) {
    return HttpResponse::json(404, error_body("no such job: " + id));
  }
  const JobState state = job->state();
  if (state != JobState::kDone) {
    return HttpResponse::json(
        409, error_body("job " + id + " is " + to_string(state) +
                        ", result not available"));
  }
  return HttpResponse::json(200, body_of(job->result_json()));
}

HttpResponse DseService::job_cancel(const std::string& id) {
  const std::shared_ptr<JobRecord> job = queue_.find(id);
  if (job == nullptr) {
    return HttpResponse::json(404, error_body("no such job: " + id));
  }
  const bool accepted = queue_.cancel(id);
  // A queued job cancels immediately inside the queue (never reaching
  // run_one), so journal its terminal state here.
  if (journal_ != nullptr && is_terminal(job->state())) {
    journal_->record_state(id, job->state());
  }
  return HttpResponse::json(
      200, body_of(util::JsonValue(util::JsonObject{
               {"id", id},
               {"cancelled", accepted},
               {"state", to_string(job->state())}})));
}

HttpResponse DseService::list_jobs() const {
  util::JsonArray jobs;
  for (const auto& job : queue_.jobs()) {
    jobs.push_back(util::JsonValue(util::JsonObject{
        {"id", job->id()},
        {"state", to_string(job->state())},
        {"flow", job->spec().flow},
        {"seed", job->spec().seed}}));
  }
  return HttpResponse::json(
      200, body_of(util::JsonValue(util::JsonObject{
               {"jobs", std::move(jobs)},
               {"queue_depth", queue_.depth()},
               {"sessions", sessions_.size()}})));
}

HttpResponse DseService::metrics() const {
  return HttpResponse::json(
      200, body_of(util::JsonValue(util::metrics_snapshot())));
}

void DseService::spool_result(const JobRecord& job) const {
  if (options_.spool_dir.empty()) return;
  const std::string path =
      options_.spool_dir + "/" + job.id() + ".result.json";
  try {
    // The GET /result body plus the resolved spec: a finished job replays
    // offline from this one file once the journal has compacted it away.
    util::JsonValue result = job.result_json();
    result.as_object().emplace("spec", io::to_json(job.spec()));
    std::ofstream out(path);
    out << util::json_serialize(result) << '\n';
  } catch (const std::exception& e) {
    util::log_warn() << "serve: spooling result of " << job.id()
                     << " failed: " << e.what();
  }
}

}  // namespace clrearly::server
