// JobJournal tests: record round-tripping, torn-tail tolerance, version
// skipping, compaction, and the headline crash-safety property — a daemon
// SIGKILL'd with admitted jobs still pending resumes them after restart and
// produces bit-identical results.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "server/journal.hpp"
#include "server/service.hpp"
#include "util/json.hpp"

namespace clrearly::server {
namespace {

io::JobSpec tiny_spec(int seed) {
  io::JobSpec spec;
  spec.application = io::resolve_application("synthetic:4:1");
  spec.architecture = io::resolve_architecture("default");
  spec.seed = static_cast<std::uint64_t>(seed);
  spec.ga.population_size = 8;
  spec.ga.generations = 2;
  return spec;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

HttpRequest make_request(std::string method, std::string path,
                         std::string body = "") {
  HttpRequest request;
  request.method = std::move(method);
  request.path = std::move(path);
  request.body = std::move(body);
  return request;
}

std::string job_body(int seed, int generations) {
  return std::string(R"({
    "format_version": 1, "flow": "pfclr", "seed": )") +
         std::to_string(seed) +
         R"(, "ga": {"population_size": 16, "generations": )" +
         std::to_string(generations) + R"(},
    "application": "synthetic:6:2"
  })";
}

/// Poll a service until `id` reaches a terminal state; returns that state.
std::string wait_terminal(DseService& service, const std::string& id) {
  for (int i = 0; i < 3000; ++i) {
    const HttpResponse status =
        service.handle(make_request("GET", "/v1/jobs/" + id));
    if (status.status != 200) return "missing";
    const std::string state =
        util::json_parse(status.body).at("state").as_string();
    if (state == "done" || state == "failed" || state == "cancelled") {
      return state;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return "timeout";
}

util::JsonValue fetch_front(DseService& service, const std::string& id) {
  const HttpResponse response =
      service.handle(make_request("GET", "/v1/jobs/" + id + "/result"));
  EXPECT_EQ(response.status, 200) << response.body;
  return util::json_parse(response.body).at("front");
}

TEST(JournalTest, RecordsRoundTripWithPriorityAndClient) {
  const std::string dir = fresh_dir("journal_roundtrip");
  const std::string path = dir + "/journal.jsonl";
  {
    JobJournal journal(path, /*compact_bytes=*/0);
    JobRecord high("job-000001", tiny_spec(1), JobPriority::kHigh);
    JobRecord normal("job-000002", tiny_spec(2));
    journal.record_submitted(high, JobPriority::kHigh, "alice");
    journal.record_submitted(normal, JobPriority::kNormal, "default");
    journal.record_state("job-000001", JobState::kRunning);
    journal.record_state("job-000002", JobState::kDone);
  }
  JournalReplayStats stats;
  const std::vector<JournalEntry> entries = JobJournal::replay(path, &stats);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(stats.dropped_torn, 0u);
  EXPECT_EQ(entries[0].id, "job-000001");
  EXPECT_EQ(entries[0].priority, JobPriority::kHigh);
  EXPECT_EQ(entries[0].client, "alice");
  EXPECT_EQ(entries[0].last_state, JobState::kRunning);
  EXPECT_EQ(entries[0].spec.seed, 1u);
  EXPECT_EQ(entries[0].spec.model_key(), tiny_spec(1).model_key());
  EXPECT_EQ(entries[1].last_state, JobState::kDone);
  EXPECT_LT(entries[0].seq, entries[1].seq);
}

TEST(JournalTest, TornTrailingRecordIsDropped) {
  const std::string dir = fresh_dir("journal_torn");
  const std::string path = dir + "/journal.jsonl";
  {
    JobJournal journal(path, /*compact_bytes=*/0);
    journal.record_submitted(JobRecord("job-000001", tiny_spec(1)),
                             JobPriority::kNormal, "default");
    journal.record_submitted(JobRecord("job-000002", tiny_spec(2)),
                             JobPriority::kNormal, "default");
  }
  // Simulate a crash mid-append: cut the file inside the last record.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 25);

  JournalReplayStats stats;
  const std::vector<JournalEntry> entries = JobJournal::replay(path, &stats);
  ASSERT_EQ(entries.size(), 1u);  // everything before the tear replays
  EXPECT_EQ(entries[0].id, "job-000001");
  EXPECT_EQ(stats.dropped_torn, 1u);
}

TEST(JournalTest, UnknownVersionRecordsAreSkippedNotFatal) {
  const std::string dir = fresh_dir("journal_version");
  const std::string path = dir + "/journal.jsonl";
  {
    JobJournal journal(path, /*compact_bytes=*/0);
    journal.record_submitted(JobRecord("job-000001", tiny_spec(1)),
                             JobPriority::kNormal, "default");
  }
  {
    // A hypothetical future writer's record plus an orphan state line.
    std::ofstream out(path, std::ios::app);
    out << R"({"v": 2,"type": "submit","id": "job-000009","seq": 9})" << "\n";
    out << R"({"v": 1,"type": "state","id": "job-000404","state": "done"})"
        << "\n";
  }
  JournalReplayStats stats;
  const std::vector<JournalEntry> entries = JobJournal::replay(path, &stats);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].id, "job-000001");
  EXPECT_EQ(stats.skipped_version, 1u);
  EXPECT_EQ(stats.skipped_orphan, 1u);
  EXPECT_EQ(stats.dropped_torn, 0u);
}

TEST(JournalTest, GarbledSeqOrVersionRecordsAreSkipped) {
  const std::string dir = fresh_dir("journal_garbled");
  const std::string path = dir + "/journal.jsonl";
  {
    JobJournal journal(path, /*compact_bytes=*/0);
    journal.record_submitted(JobRecord("job-000001", tiny_spec(1)),
                             JobPriority::kNormal, "default");
  }
  std::string line;
  {
    std::ifstream in(path);
    std::getline(in, line);
  }
  const util::JsonValue good = util::json_parse(line);
  // Copies of that record with a negative, fractional or out-of-range seq
  // or v are malformed records (never cast), followed by one valid record.
  const auto append = [&](const char* id, const char* key, double value) {
    util::JsonValue record = good;
    record.as_object()["id"] = util::JsonValue(id);
    record.as_object()[key] = util::JsonValue(value);
    std::string flat;
    for (char c : util::json_serialize(record)) {
      if (c != '\n') flat.push_back(c);
    }
    std::ofstream(path, std::ios::app) << flat << "\n";
  };
  append("job-000091", "seq", -1.0);
  append("job-000092", "seq", 0.5);
  append("job-000093", "seq", 1e300);
  append("job-000094", "v", -1.0);
  append("job-000095", "v", 1.5);
  append("job-000096", "v", 1e300);
  append("job-000002", "seq", 7.0);

  JournalReplayStats stats;
  const std::vector<JournalEntry> entries = JobJournal::replay(path, &stats);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].id, "job-000001");
  EXPECT_EQ(entries[1].id, "job-000002");
  EXPECT_EQ(entries[1].seq, 7u);
  EXPECT_EQ(stats.skipped_version, 6u);
  EXPECT_EQ(stats.dropped_torn, 0u);
}

TEST(JournalTest, V1IslandsObjectReplaysAndOtherCountsAreSkipped) {
  // Journals written while the island model existed carry its
  // single-population object in every submit record's spec. Those records
  // replay as the spec without it; a record with any other count is skipped
  // like any spec this build rejects, and replay goes on past it.
  const std::string dir = fresh_dir("journal_islands");
  const std::string path = dir + "/journal.jsonl";
  {
    JobJournal journal(path, /*compact_bytes=*/0);
    journal.record_submitted(JobRecord("job-000001", tiny_spec(1)),
                             JobPriority::kNormal, "default");
  }
  std::string line;
  {
    std::ifstream in(path);
    std::getline(in, line);
  }
  const util::JsonValue good = util::json_parse(line);
  const auto append = [&](const char* id, double seq, std::size_t count) {
    util::JsonValue record = good;
    record.as_object()["id"] = util::JsonValue(id);
    record.as_object()["seq"] = util::JsonValue(seq);
    record.as_object()["spec"].as_object()["islands"] = util::json_parse(
        R"({"count": )" + std::to_string(count) +
        R"(, "migration_interval": 10, "migration_size": 4})");
    std::string flat;
    for (char c : util::json_serialize(record)) {
      if (c != '\n') flat.push_back(c);
    }
    std::ofstream(path, std::ios::app) << flat << "\n";
  };
  append("job-000002", 12.0, 1);
  append("job-000003", 13.0, 4);
  append("job-000004", 14.0, 1);

  JournalReplayStats stats;
  const std::vector<JournalEntry> entries = JobJournal::replay(path, &stats);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].id, "job-000001");
  EXPECT_EQ(entries[1].id, "job-000002");
  EXPECT_EQ(entries[2].id, "job-000004");
  EXPECT_EQ(stats.skipped_version, 1u);
  EXPECT_EQ(stats.dropped_torn, 0u);
  EXPECT_EQ(util::json_serialize(io::to_json(entries[1].spec)),
            util::json_serialize(io::to_json(entries[0].spec)));
}

TEST(JournalTest, CompactionKeepsOnlyLiveJobs) {
  const std::string dir = fresh_dir("journal_compact");
  const std::string path = dir + "/journal.jsonl";
  // compact_bytes=1: every append crosses the threshold, so the journal is
  // compacted continuously — the file never holds more than the live set.
  JobJournal journal(path, /*compact_bytes=*/1);
  journal.record_submitted(JobRecord("job-000001", tiny_spec(1)),
                           JobPriority::kNormal, "default");
  journal.record_submitted(JobRecord("job-000002", tiny_spec(2)),
                           JobPriority::kNormal, "default");
  const std::size_t both = journal.bytes_written();
  journal.record_state("job-000001", JobState::kRunning);
  journal.record_state("job-000001", JobState::kDone);
  // The terminal job is gone from the (compacted) file.
  EXPECT_LT(journal.bytes_written(), both);
  const std::vector<JournalEntry> entries = JobJournal::replay(path);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].id, "job-000002");
  EXPECT_EQ(entries[0].last_state, JobState::kQueued);
}

TEST(JournalTest, SeedCompactsAwayTerminalJobsOnRestart) {
  const std::string dir = fresh_dir("journal_seed");
  const std::string path = dir + "/journal.jsonl";
  {
    JobJournal journal(path, /*compact_bytes=*/0);
    journal.record_submitted(JobRecord("job-000001", tiny_spec(1)),
                             JobPriority::kNormal, "default");
    journal.record_submitted(JobRecord("job-000002", tiny_spec(2)),
                             JobPriority::kNormal, "default");
    journal.record_state("job-000001", JobState::kDone);
  }
  const std::vector<JournalEntry> first = JobJournal::replay(path);
  ASSERT_EQ(first.size(), 2u);
  {
    // Restart: seeding rewrites the journal without the terminal job.
    JobJournal journal(path, /*compact_bytes=*/0);
    journal.seed(first);
  }
  const std::vector<JournalEntry> second = JobJournal::replay(path);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].id, "job-000002");
}

TEST(JournalTest, KillAndRestartReplaysBitIdentically) {
  const std::string spool = fresh_dir("journal_crash_spool");
  const std::string slow = job_body(/*seed=*/11, /*generations=*/40);
  const std::string fast = job_body(/*seed=*/12, /*generations=*/3);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // Child incarnation: admit two jobs, then die as hard as a process can
    // — no destructors, no flushes beyond what the journal already forced.
    ServiceOptions options;
    options.workers = 1;
    options.spool_dir = spool;
    DseService victim(options);
    const HttpResponse a =
        victim.handle(make_request("POST", "/v1/jobs", slow));
    const HttpResponse b =
        victim.handle(make_request("POST", "/v1/jobs", fast));
    if (a.status != 202 || b.status != 202) ::_exit(2);
    ::raise(SIGKILL);
    ::_exit(3);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child did not die by SIGKILL (status " << status << ")";

  // The fsync'd journal survived the kill with both admissions.
  JournalReplayStats stats;
  const std::vector<JournalEntry> entries =
      JobJournal::replay(spool + "/journal.jsonl", &stats);
  ASSERT_EQ(entries.size(), 2u) << "admissions lost across SIGKILL";

  // Restart on the same spool: both jobs are re-enqueued and finish.
  ServiceOptions options;
  options.workers = 1;
  options.spool_dir = spool;
  DseService revived(options);
  ASSERT_EQ(wait_terminal(revived, "job-000001"), "done");
  ASSERT_EQ(wait_terminal(revived, "job-000002"), "done");
  const util::JsonValue front1 = fetch_front(revived, "job-000001");
  const util::JsonValue front2 = fetch_front(revived, "job-000002");

  // A new submission must not collide with the replayed ids.
  const HttpResponse next =
      revived.handle(make_request("POST", "/v1/jobs", fast));
  ASSERT_EQ(next.status, 202);
  EXPECT_EQ(util::json_parse(next.body).at("id").as_string(), "job-000003");
  ASSERT_EQ(wait_terminal(revived, "job-000003"), "done");
  revived.shutdown(/*cancel_pending=*/false);

  // Reference: the same specs through a never-crashed service. Determinism
  // makes crash recovery invisible — the fronts agree bit for bit.
  ServiceOptions clean;
  clean.workers = 1;
  DseService reference(clean);
  const HttpResponse ra =
      reference.handle(make_request("POST", "/v1/jobs", slow));
  const HttpResponse rb =
      reference.handle(make_request("POST", "/v1/jobs", fast));
  ASSERT_EQ(ra.status, 202);
  ASSERT_EQ(rb.status, 202);
  const std::string ref_slow = util::json_parse(ra.body).at("id").as_string();
  const std::string ref_fast = util::json_parse(rb.body).at("id").as_string();
  ASSERT_EQ(wait_terminal(reference, ref_slow), "done");
  ASSERT_EQ(wait_terminal(reference, ref_fast), "done");
  EXPECT_EQ(front1, fetch_front(reference, ref_slow));
  EXPECT_EQ(front2, fetch_front(reference, ref_fast));
  reference.shutdown(/*cancel_pending=*/false);

  // After a graceful drain everything is terminal: the journal forgets the
  // jobs on the next restart and replays nothing.
  ServiceOptions again;
  again.workers = 1;
  again.spool_dir = spool;
  DseService idle(again);
  EXPECT_EQ(idle.queue().jobs().size(), 0u);
  EXPECT_EQ(idle.replay_stats().dropped_torn, 0u);
}

}  // namespace
}  // namespace clrearly::server
