// DseService tests, driving the routing layer in process (no sockets):
// submit -> poll -> result, bit-identical equivalence with the offline flow
// entry points, cross-request session sharing, spool replay, admission
// control and the error paths.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>

#include "core/dse.hpp"
#include "core/scenario.hpp"
#include "io/serialize.hpp"
#include "server/service.hpp"
#include "util/json.hpp"
#include "util/memo_cache.hpp"
#include "util/metrics.hpp"

namespace clrearly::server {
namespace {

HttpRequest make_request(std::string method, std::string path,
                         std::string body = "", std::string query = "") {
  HttpRequest request;
  request.method = std::move(method);
  request.path = std::move(path);
  request.body = std::move(body);
  request.query = std::move(query);
  return request;
}

util::JsonValue body_json(const HttpResponse& response) {
  return util::json_parse(response.body);
}

std::string small_job_body(const std::string& flow, int seed,
                           int generations = 4) {
  return std::string(R"({
    "format_version": 1,
    "flow": ")") +
         flow + R"(",
    "seed": )" +
         std::to_string(seed) + R"(,
    "ga": {"population_size": 16, "generations": )" +
         std::to_string(generations) + R"(},
    "application": "sobel"
  })";
}

/// Submit and wait for a terminal state; returns the job id.
std::string run_to_completion(DseService& service, const std::string& body) {
  const HttpResponse submitted =
      service.handle(make_request("POST", "/v1/jobs", body));
  EXPECT_EQ(submitted.status, 202) << submitted.body;
  const std::string id = body_json(submitted).at("id").as_string();
  for (int i = 0; i < 600; ++i) {
    const HttpResponse status =
        service.handle(make_request("GET", "/v1/jobs/" + id));
    const std::string state = body_json(status).at("state").as_string();
    if (state == "done" || state == "failed" || state == "cancelled") {
      EXPECT_EQ(state, "done") << status.body;
      return id;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ADD_FAILURE() << "job " << id << " did not finish";
  return id;
}

util::JsonValue fetch_result(DseService& service, const std::string& id) {
  const HttpResponse response =
      service.handle(make_request("GET", "/v1/jobs/" + id + "/result"));
  EXPECT_EQ(response.status, 200) << response.body;
  return body_json(response);
}

std::uint64_t cache_field(const util::JsonValue& result, const char* key) {
  return static_cast<std::uint64_t>(result.at("cache").at(key).as_number());
}

TEST(ServiceTest, JobResultMatchesOfflineFlowBitForBit) {
  ServiceOptions options;
  options.workers = 1;
  DseService service(options);
  const std::string id =
      run_to_completion(service, small_job_body("proposed", 1));
  const util::JsonValue result = fetch_result(service, id);

  // The same spec executed through the offline entry points (what
  // `clrearly dse --app sobel --flow proposed --seed 1` runs).
  const io::JobSpec spec = io::job_spec_from_json(
      util::json_parse(small_job_body("proposed", 1)));
  const core::DseMethodology dse(
      spec.application, spec.architecture,
      core::make_condition_analyzer(spec.scenario.environment_factor));
  const core::DseOutcome offline = dse.run_proposed(spec.options());

  const util::JsonArray& front = result.at("front").as_array();
  ASSERT_EQ(front.size(), offline.front.size());
  for (std::size_t i = 0; i < front.size(); ++i) {
    const util::JsonArray& point = front[i].as_array();
    ASSERT_EQ(point.size(), offline.front[i].size());
    for (std::size_t k = 0; k < point.size(); ++k) {
      // Exact equality: JSON doubles are shortest-round-trip.
      EXPECT_EQ(point[k].as_number(), offline.front[i][k])
          << "front[" << i << "][" << k << "]";
    }
  }
  EXPECT_EQ(static_cast<std::size_t>(result.at("evaluations").as_number()),
            offline.evaluations);
}

TEST(ServiceTest, KResilientJobMatchesOfflineFlowBitForBit) {
  const std::string body = R"({
    "format_version": 1,
    "flow": "kresilient",
    "seed": 3,
    "ga": {"population_size": 16, "generations": 4},
    "resilience": {"max_failures": 1, "mission_hours": 15000},
    "application": "sobel"
  })";
  ServiceOptions options;
  options.workers = 1;
  DseService service(options);
  const std::string id = run_to_completion(service, body);
  const util::JsonValue result = fetch_result(service, id);

  // The same spec through the offline entry points (what
  // `clrearly dse --app sobel --flow kresilient --k 1 ...` runs).
  const io::JobSpec spec = io::job_spec_from_json(util::json_parse(body));
  const core::DseMethodology dse(
      spec.application, spec.architecture,
      core::make_condition_analyzer(spec.scenario.environment_factor));
  const core::DseOutcome offline = dse.run_kresilient(spec.options());

  const util::JsonArray& front = result.at("front").as_array();
  ASSERT_FALSE(front.empty());
  ASSERT_EQ(front.size(), offline.front.size());
  for (std::size_t i = 0; i < front.size(); ++i) {
    const util::JsonArray& point = front[i].as_array();
    ASSERT_EQ(point.size(), offline.front[i].size());
    for (std::size_t k = 0; k < point.size(); ++k) {
      EXPECT_EQ(point[k].as_number(), offline.front[i][k])
          << "front[" << i << "][" << k << "]";
    }
  }
  EXPECT_EQ(static_cast<std::size_t>(result.at("evaluations").as_number()),
            offline.evaluations);

  // A second identical submission reuses the session's resilient problem
  // and reproduces the front.
  const std::string again = run_to_completion(service, body);
  const util::JsonValue r2 = fetch_result(service, again);
  EXPECT_EQ(r2.at("front"), result.at("front"));
  EXPECT_EQ(r2.at("front_genomes"), result.at("front_genomes"));
}

TEST(ServiceTest, SecondIdenticalJobReusesItsSessionBitForBit) {
  ServiceOptions options;
  options.workers = 1;
  DseService service(options);
  const util::Counter& session_hits =
      util::metric_counter("server.sessions.hits");
  const std::string first =
      run_to_completion(service, small_job_body("pfclr", 1));
  const std::uint64_t hits_before = session_hits.value();
  const std::string second =
      run_to_completion(service, small_job_body("pfclr", 1));
  const util::JsonValue r1 = fetch_result(service, first);
  const util::JsonValue r2 = fetch_result(service, second);

  // Identical spec: the same session, and the same front bit for bit.
  EXPECT_EQ(session_hits.value() - hits_before, 1u);
  EXPECT_EQ(r1.at("front"), r2.at("front"));
  EXPECT_EQ(r1.at("front_genomes"), r2.at("front_genomes"));

  // A different seed shares the session but explores new genomes.
  const std::string third =
      run_to_completion(service, small_job_body("pfclr", 2));
  const util::JsonValue r3 = fetch_result(service, third);
  EXPECT_NE(r1.at("front"), r3.at("front"));
}

TEST(ServiceTest, SessionRebuildHitsTheChainCache) {
  // The assertions below are about cache *reuse*; with the process-wide
  // caches disabled (CLREARLY_CACHE=0) there is nothing to reuse.
  if (util::cache_capacity() == 0) {
    GTEST_SKIP() << "caches disabled";
  }
  ServiceOptions options;
  options.workers = 1;
  options.max_sessions = 1;  // force eviction on every model switch
  DseService service(options);

  const std::string cold =
      run_to_completion(service, small_job_body("fcclr", 1));
  (void)fetch_result(service, cold);

  // A different model key (tighter QoS) evicts the sobel session...
  const std::string other_model = R"({
    "format_version": 1, "flow": "fcclr", "seed": 1,
    "ga": {"population_size": 8, "generations": 2},
    "qos": {"max_makespan_us": 100000000},
    "application": "sobel"
  })";
  run_to_completion(service, other_model);
  EXPECT_EQ(service.sessions().size(), 1u);

  // ...so this job rebuilds the sobel problem from scratch, and every
  // absorbing-chain solve of the table build hits the process-wide chain
  // cache.
  const std::string rebuilt =
      run_to_completion(service, small_job_body("fcclr", 1));
  const util::JsonValue r = fetch_result(service, rebuilt);
  EXPECT_GT(cache_field(r, "chain_hits"), 0u);
  EXPECT_EQ(cache_field(r, "chain_misses"), 0u);

  // Same bits as the never-evicted run.
  EXPECT_EQ(fetch_result(service, cold).at("front"), r.at("front"));
}

TEST(ServiceTest, SpooledSpecReplaysToTheSpooledResult) {
  ServiceOptions options;
  options.workers = 1;
  options.spool_dir = ::testing::TempDir() + "/service_spool";
  std::filesystem::remove_all(options.spool_dir);
  DseService service(options);
  const std::string id =
      run_to_completion(service, small_job_body("proposed", 7));
  const util::JsonValue result = fetch_result(service, id);

  // The worker spools the result file after the job turns done; joining
  // the workers orders that write before the reads below. No spec file:
  // the result file carries the resolved spec.
  service.shutdown(/*cancel_pending=*/false);
  EXPECT_FALSE(std::filesystem::exists(options.spool_dir + "/" + id +
                                       ".spec.json"));
  std::ifstream spooled(options.spool_dir + "/" + id + ".result.json");
  ASSERT_TRUE(spooled.good());
  const util::JsonValue spooled_result = util::json_parse(
      std::string(std::istreambuf_iterator<char>(spooled), {}));
  EXPECT_EQ(spooled_result.at("front"), result.at("front"));
  const io::JobSpec replay =
      io::job_spec_from_json(spooled_result.at("spec"));
  const core::DseMethodology dse(
      replay.application, replay.architecture,
      core::make_condition_analyzer(replay.scenario.environment_factor));
  const core::DseOutcome offline = dse.run_proposed(replay.options());
  const util::JsonArray& front = result.at("front").as_array();
  ASSERT_EQ(front.size(), offline.front.size());
  for (std::size_t i = 0; i < front.size(); ++i) {
    const util::JsonArray& point = front[i].as_array();
    for (std::size_t k = 0; k < point.size(); ++k) {
      EXPECT_EQ(point[k].as_number(), offline.front[i][k]);
    }
  }
}

TEST(ServiceTest, ProgressEventsStreamPerGeneration) {
  ServiceOptions options;
  options.workers = 1;
  DseService service(options);
  const std::string id =
      run_to_completion(service, small_job_body("fcclr", 1, /*generations=*/4));
  const HttpResponse all = service.handle(
      make_request("GET", "/v1/jobs/" + id + "/events"));
  EXPECT_EQ(all.status, 200);
  const util::JsonValue events = body_json(all);
  // One event per generation plus the final-front event.
  ASSERT_EQ(events.at("events").as_array().size(), 5u);
  EXPECT_EQ(events.at("next").as_number(), 5.0);
  const util::JsonValue& last = events.at("events").as_array().back();
  EXPECT_EQ(last.at("generation").as_number(), 4.0);
  EXPECT_EQ(last.at("stage").as_string(), "fcclr");
  EXPECT_GT(last.at("hv_proxy").as_number(), 0.0);

  const HttpResponse tail = service.handle(
      make_request("GET", "/v1/jobs/" + id + "/events", "", "from=3"));
  EXPECT_EQ(body_json(tail).at("events").as_array().size(), 2u);
}

TEST(ServiceTest, AdmissionControlRejectsBeyondQueueDepth) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_depth = 1;
  DseService service(options);
  // A deliberately long job to occupy the single worker.
  const std::string slow = small_job_body("fcclr", 1, /*generations=*/300);
  const HttpResponse a =
      service.handle(make_request("POST", "/v1/jobs", slow));
  ASSERT_EQ(a.status, 202);
  // Wait until it leaves the queue (is running) so the next submit queues.
  while (service.queue().depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const HttpResponse b =
      service.handle(make_request("POST", "/v1/jobs", slow));
  EXPECT_EQ(b.status, 202);
  const HttpResponse c =
      service.handle(make_request("POST", "/v1/jobs", slow));
  EXPECT_EQ(c.status, 429);

  // The queued job's result is not available yet.
  const std::string queued_id = body_json(b).at("id").as_string();
  const HttpResponse premature = service.handle(
      make_request("GET", "/v1/jobs/" + queued_id + "/result"));
  EXPECT_EQ(premature.status, 409);

  // Cancel everything and let shutdown drain the runner.
  const std::string running_id = body_json(a).at("id").as_string();
  EXPECT_EQ(service
                .handle(make_request("POST",
                                     "/v1/jobs/" + queued_id + "/cancel"))
                .status,
            200);
  EXPECT_EQ(service
                .handle(make_request("POST",
                                     "/v1/jobs/" + running_id + "/cancel"))
                .status,
            200);
  service.shutdown(/*cancel_pending=*/true);
  EXPECT_EQ(service.queue().find(queued_id)->state(), JobState::kCancelled);
  EXPECT_EQ(service.queue().find(running_id)->state(), JobState::kCancelled);
}

const std::string* find_header(const HttpResponse& response,
                               const std::string& name) {
  for (const auto& [header, value] : response.headers) {
    if (header == name) return &value;
  }
  return nullptr;
}

TEST(ServiceTest, QueueFull429CarriesRetryAfter) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_depth = 1;
  DseService service(options);
  const std::string slow = small_job_body("fcclr", 1, /*generations=*/300);
  ASSERT_EQ(service.handle(make_request("POST", "/v1/jobs", slow)).status,
            202);
  while (service.queue().depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.handle(make_request("POST", "/v1/jobs", slow)).status,
            202);
  const HttpResponse rejected =
      service.handle(make_request("POST", "/v1/jobs", slow));
  ASSERT_EQ(rejected.status, 429);
  const std::string* retry_after = find_header(rejected, "Retry-After");
  ASSERT_NE(retry_after, nullptr) << "429 without Retry-After";
  EXPECT_GE(std::stoi(*retry_after), 1);
  service.shutdown(/*cancel_pending=*/true);
}

TEST(ServiceTest, QuotaRejectsOverRateClientPerKey) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_depth = 16;
  options.quota_rate = 0.001;  // effectively no refill during the test
  options.quota_burst = 2;
  DseService service(options);

  HttpRequest alice = make_request("POST", "/v1/jobs",
                                   small_job_body("fcclr", 1, 300));
  alice.headers["x-client-key"] = "alice";
  EXPECT_EQ(service.handle(alice).status, 202);
  EXPECT_EQ(service.handle(alice).status, 202);  // burst exhausted
  const HttpResponse rejected = service.handle(alice);
  ASSERT_EQ(rejected.status, 429) << rejected.body;
  const std::string* retry_after = find_header(rejected, "Retry-After");
  ASSERT_NE(retry_after, nullptr);
  EXPECT_GE(std::stoi(*retry_after), 1);

  // Quotas are per client key: bob's bucket is untouched by alice's burst.
  HttpRequest bob = alice;
  bob.headers["x-client-key"] = "bob";
  EXPECT_EQ(service.handle(bob).status, 202);

  // An invalid X-Priority is a client error, not a crash.
  HttpRequest bad = bob;
  bad.headers["x-priority"] = "urgent";
  EXPECT_EQ(service.handle(bad).status, 400);

  service.shutdown(/*cancel_pending=*/true);
}

TEST(ServiceTest, SessionLeasePinsAgainstEviction) {
  const io::JobSpec sobel = io::job_spec_from_json(
      util::json_parse(small_job_body("fcclr", 1)));
  const io::JobSpec qos_variant = io::job_spec_from_json(util::json_parse(R"({
    "format_version": 1, "flow": "fcclr", "seed": 1,
    "ga": {"population_size": 8, "generations": 2},
    "qos": {"max_makespan_us": 100000000},
    "application": "sobel"
  })"));
  const io::JobSpec third = io::job_spec_from_json(util::json_parse(R"({
    "format_version": 1, "flow": "fcclr", "seed": 1,
    "ga": {"population_size": 8, "generations": 2},
    "application": "synthetic:5:1"
  })"));
  ASSERT_NE(sobel.model_key(), qos_variant.model_key());
  ASSERT_NE(sobel.model_key(), third.model_key());

  SessionCache cache(/*max_sessions=*/1);
  SessionCache::Lease lease = cache.acquire(sobel);
  ASSERT_TRUE(lease);
  EXPECT_EQ(lease->pins(), 1);

  {
    // Re-acquiring the same model key while pinned shares the session (and
    // its built problems) instead of rebuilding it.
    SessionCache::Lease again = cache.acquire(sobel);
    EXPECT_EQ(again.get(), lease.get());
    EXPECT_EQ(lease->pins(), 2);
  }
  EXPECT_EQ(lease->pins(), 1);  // inner lease released its pin

  // A different model key with the cache bound at 1: the pinned session
  // must NOT be evicted out from under its running job — the cache grows
  // past the bound instead.
  SessionCache::Lease other = cache.acquire(qos_variant);
  EXPECT_EQ(cache.size(), 2u);

  // Release the first lease; with an unpinned LRU victim available, the
  // next distinct key evicts it and the cache shrinks back to the bound.
  lease = SessionCache::Lease();
  SessionCache::Lease replacement = cache.acquire(third);
  EXPECT_EQ(cache.size(), 2u);  // sobel evicted, `other` still pinned

  // The still-pinned session survived the eviction pass (size stayed at 2,
  // so the victim must have been the unpinned sobel session).
  SessionCache::Lease other_again = cache.acquire(qos_variant);
  EXPECT_EQ(other_again.get(), other.get());
}

TEST(ServiceTest, SseSinkStreamsProgressAndFinalState) {
  ServiceOptions options;
  options.workers = 1;
  DseService service(options);
  const std::string id =
      run_to_completion(service, small_job_body("fcclr", 1, /*generations=*/4));

  HttpRequest request =
      make_request("GET", "/v1/jobs/" + id + "/events", "", "from=0");
  request.headers["accept"] = "text/event-stream";
  ASSERT_TRUE(DseService::wants_sse(request));
  std::vector<std::string> frames;
  const auto sink = [&frames](const std::string& frame) {
    frames.push_back(frame);
    return true;
  };
  EXPECT_EQ(service.stream_events_sse(request, sink), std::nullopt);
  // 5 progress frames (4 generations + final front) plus the state frame.
  ASSERT_EQ(frames.size(), 6u);
  EXPECT_NE(frames[0].find("id: 0"), std::string::npos) << frames[0];
  EXPECT_NE(frames[0].find("event: progress"), std::string::npos);
  EXPECT_NE(frames[4].find("id: 4"), std::string::npos);
  EXPECT_NE(frames.back().find("event: state"), std::string::npos);
  EXPECT_NE(frames.back().find("\"state\": \"done\""), std::string::npos);

  // The id lines are resume cursors: from=3 replays only the tail.
  HttpRequest resume =
      make_request("GET", "/v1/jobs/" + id + "/events", "", "from=3");
  resume.headers["accept"] = "text/event-stream";
  frames.clear();
  EXPECT_EQ(service.stream_events_sse(resume, sink), std::nullopt);
  EXPECT_EQ(frames.size(), 3u);  // events 3, 4 + state
  EXPECT_NE(frames[0].find("id: 3"), std::string::npos);

  // Last-Event-ID (the SSE reconnect header) resumes after the given id.
  HttpRequest reconnect = make_request("GET", "/v1/jobs/" + id + "/events");
  reconnect.headers["accept"] = "text/event-stream";
  reconnect.headers["last-event-id"] = "2";
  frames.clear();
  EXPECT_EQ(service.stream_events_sse(reconnect, sink), std::nullopt);
  EXPECT_EQ(frames.size(), 3u);

  // A dead client stops the stream without error.
  frames.clear();
  const auto dead = [](const std::string&) { return false; };
  EXPECT_EQ(service.stream_events_sse(request, dead), std::nullopt);

  // Non-streamable requests return a plain response before any frame.
  HttpRequest missing = make_request("GET", "/v1/jobs/job-999999/events");
  missing.headers["accept"] = "text/event-stream";
  const auto error = service.stream_events_sse(missing, sink);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->status, 404);
  EXPECT_TRUE(frames.empty());
}

TEST(ServiceTest, OutOfRangeTaskTypeIs400AndTheDaemonKeepsServing) {
  // An inline application whose task type is -1 is refused at admission,
  // before a worker could run the DSE on it; the next valid job completes.
  ServiceOptions options;
  options.workers = 1;
  DseService service(options);
  util::JsonValue application = io::to_json(io::resolve_application("sobel"));
  application.as_object()["tasks"].as_array()[0].as_object()["type"] =
      util::JsonValue(-1.0);
  const util::JsonValue body(util::JsonObject{
      {"format_version", 1},
      {"flow", "fcclr"},
      {"ga", util::JsonObject{{"population_size", 16}, {"generations", 2}}},
      {"application", std::move(application)}});
  const HttpResponse rejected = service.handle(
      make_request("POST", "/v1/jobs", util::json_serialize(body)));
  EXPECT_EQ(rejected.status, 400) << rejected.body;
  EXPECT_NE(rejected.body.find("tasks[].type"), std::string::npos)
      << rejected.body;

  const std::string id =
      run_to_completion(service, small_job_body("fcclr", 3, 2));
  EXPECT_FALSE(fetch_result(service, id).at("front").as_array().empty());
}

TEST(ServiceTest, DeeplyNestedBodyIs400AndTheDaemonKeepsServing) {
  // 200,000 '[' once overflowed the recursive JSON parser's stack and killed
  // the daemon; the parser's depth limit turns it into a parse error.
  ServiceOptions options;
  options.workers = 1;
  DseService service(options);
  const HttpResponse rejected = service.handle(
      make_request("POST", "/v1/jobs", std::string(200000, '[')));
  EXPECT_EQ(rejected.status, 400) << rejected.body;
  EXPECT_NE(rejected.body.find("nesting deeper than"), std::string::npos)
      << rejected.body;

  const std::string id =
      run_to_completion(service, small_job_body("fcclr", 3, 2));
  EXPECT_FALSE(fetch_result(service, id).at("front").as_array().empty());
}

TEST(ServiceTest, ForgottenFinishedJobIs404) {
  // The job table keeps only the newest JobQueue::kMaxFinishedJobs terminal
  // jobs. A long job holds the only worker, so each job submitted behind it
  // is cancelled while queued; kMaxFinishedJobs of them push the first,
  // finished job out of the table.
  ServiceOptions options;
  options.workers = 1;
  DseService service(options);
  const std::string first =
      run_to_completion(service, small_job_body("fcclr", 1, 1));

  const HttpResponse long_job = service.handle(make_request("POST", "/v1/jobs",
      R"({"format_version": 1, "flow": "fcclr", "seed": 1,
          "ga": {"population_size": 16, "generations": 1000000},
          "application": "synthetic:20:1"})"));
  ASSERT_EQ(long_job.status, 202) << long_job.body;
  const std::string running = body_json(long_job).at("id").as_string();
  // However the test exits, cancel the long job before the service is torn
  // down, or the teardown would wait out its million generations.
  struct CancelOnExit {
    DseService& service;
    std::string id;
    ~CancelOnExit() {
      service.handle(make_request("POST", "/v1/jobs/" + id + "/cancel"));
    }
  };
  const CancelOnExit cancel_on_exit{service, running};
  for (int i = 0; i < 500; ++i) {
    const HttpResponse status =
        service.handle(make_request("GET", "/v1/jobs/" + running));
    if (body_json(status).at("state").as_string() == "running") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  for (std::size_t i = 0; i < JobQueue::kMaxFinishedJobs; ++i) {
    const HttpResponse submitted = service.handle(
        make_request("POST", "/v1/jobs", small_job_body("fcclr", 2, 1)));
    ASSERT_EQ(submitted.status, 202) << submitted.body;
    const std::string id = body_json(submitted).at("id").as_string();
    const HttpResponse cancelled =
        service.handle(make_request("POST", "/v1/jobs/" + id + "/cancel"));
    ASSERT_EQ(body_json(cancelled).at("state").as_string(), "cancelled");
  }

  EXPECT_EQ(service.handle(make_request("GET", "/v1/jobs/" + first)).status,
            404);
  EXPECT_EQ(
      service.handle(make_request("GET", "/v1/jobs/" + first + "/result"))
          .status,
      404);
  const util::JsonValue listed =
      body_json(service.handle(make_request("GET", "/v1/jobs")));
  EXPECT_EQ(listed.at("jobs").as_array().size(),
            JobQueue::kMaxFinishedJobs + 1);  // the cap plus the running job
  EXPECT_EQ(service.handle(make_request("GET", "/v1/jobs/" + running)).status,
            200);
}

TEST(ServiceTest, ErrorPaths) {
  ServiceOptions options;
  options.workers = 1;
  DseService service(options);
  EXPECT_EQ(service.handle(make_request("POST", "/v1/jobs", "not json")).status,
            400);
  EXPECT_EQ(service
                .handle(make_request("POST", "/v1/jobs",
                                     R"({"format_version": 9,
                                         "application": "sobel"})"))
                .status,
            400);
  // The island model is gone: only the v1 single-population object parses.
  EXPECT_EQ(service
                .handle(make_request("POST", "/v1/jobs",
                                     R"({"format_version": 1,
                                         "islands": {"count": 2},
                                         "application": "sobel"})"))
                .status,
            400);
  EXPECT_EQ(service.handle(make_request("GET", "/v1/jobs/job-999999")).status,
            404);
  EXPECT_EQ(
      service.handle(make_request("GET", "/v1/jobs/job-999999/result")).status,
      404);
  EXPECT_EQ(service.handle(make_request("GET", "/v1/nope")).status, 404);
  EXPECT_EQ(service.handle(make_request("DELETE", "/v1/jobs")).status, 405);

  const HttpResponse health = service.handle(make_request("GET", "/v1/healthz"));
  EXPECT_EQ(health.status, 200);
  const HttpResponse metrics = service.handle(make_request("GET", "/v1/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_TRUE(body_json(metrics).find("counters") != nullptr);

  EXPECT_FALSE(service.shutdown_requested());
  EXPECT_EQ(service.handle(make_request("POST", "/v1/shutdown")).status, 200);
  EXPECT_TRUE(service.shutdown_requested());
}

}  // namespace
}  // namespace clrearly::server
