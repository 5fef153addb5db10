#include "server/journal.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "util/json.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"

namespace clrearly::server {

namespace {

/// Flush stdio buffers and fsync the fd — the record must survive SIGKILL
/// the moment the append returns.
void flush_and_sync(std::FILE* file) {
  if (file == nullptr) return;
  std::fflush(file);
  ::fsync(::fileno(file));
}

std::string submitted_line(const std::string& id, const std::string& spec_json,
                           JobPriority priority, const std::string& client,
                           std::uint64_t seq) {
  // The spec is embedded as its canonical wire-format JSON; the record
  // itself is one line (json_serialize is multi-line, so the line is
  // assembled by hand from already-serialized parts).
  util::JsonObject head{{"v", kJournalRecordVersion},
                        {"type", "submit"},
                        {"seq", static_cast<double>(seq)},
                        {"id", id},
                        {"priority", to_string(priority)},
                        {"client", client}};
  std::string line = util::json_serialize(util::JsonValue(std::move(head)));
  // Splice the spec into the object: drop the closing brace, append.
  const std::size_t brace = line.rfind('}');
  line.resize(brace);
  line += ",\"spec\": " + spec_json + "}";
  // One record per line: the JSON writer indents with newlines; collapse.
  std::string flat;
  flat.reserve(line.size());
  for (char c : line) {
    if (c != '\n') flat.push_back(c);
  }
  return flat;
}

std::string state_line(const std::string& id, JobState state) {
  util::JsonObject record{{"v", kJournalRecordVersion},
                          {"type", "state"},
                          {"id", id},
                          {"state", to_string(state)}};
  std::string line = util::json_serialize(util::JsonValue(std::move(record)));
  std::string flat;
  flat.reserve(line.size());
  for (char c : line) {
    if (c != '\n') flat.push_back(c);
  }
  return flat;
}

}  // namespace

JobJournal::JobJournal(std::string path, std::size_t compact_bytes)
    : path_(std::move(path)), compact_bytes_(compact_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  open_locked("a");
}

JobJournal::~JobJournal() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    flush_and_sync(file_);
    std::fclose(file_);
    file_ = nullptr;
  }
}

void JobJournal::open_locked(const char* mode) {
  if (file_ != nullptr) std::fclose(file_);
  file_ = std::fopen(path_.c_str(), mode);
  if (file_ == nullptr) {
    throw std::runtime_error("journal: cannot open " + path_ + ": " +
                             std::strerror(errno));
  }
  const long pos = std::ftell(file_);
  bytes_ = pos > 0 ? static_cast<std::size_t>(pos) : 0;
  static util::Gauge& gauge = util::metric_gauge("server.journal.bytes");
  gauge.set(static_cast<double>(bytes_));
}

std::vector<JournalEntry> JobJournal::replay(const std::string& path,
                                             JournalReplayStats* stats) {
  JournalReplayStats local;
  JournalReplayStats& out = stats != nullptr ? *stats : local;
  std::vector<JournalEntry> entries;
  std::map<std::string, std::size_t> index;  // id -> entries position

  std::ifstream in(path);
  if (!in) return entries;  // no journal yet: nothing to replay

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    util::JsonValue record;
    try {
      record = util::json_parse(line);
    } catch (const std::exception&) {
      // A torn record can only be the last complete-write failure; anything
      // after it is the same crash's debris. Stop, keep what replayed.
      ++out.dropped_torn;
      util::log_warn() << "journal: dropping torn record in " << path;
      break;
    }
    try {
      const util::JsonValue* v = record.find("v");
      const std::uint64_t version = v != nullptr ? v->as_uint64() : 0;
      if (version != kJournalRecordVersion) {
        ++out.skipped_version;
        util::log_warn() << "journal: skipping record with unknown version "
                         << version;
        continue;
      }
      const std::string& type = record.at("type").as_string();
      if (type == "submit") {
        JournalEntry entry;
        entry.id = record.at("id").as_string();
        entry.spec = io::job_spec_from_json(record.at("spec"));
        entry.seq = record.at("seq").as_uint64();
        if (const util::JsonValue* priority = record.find("priority")) {
          entry.priority = priority_from_string(priority->as_string());
        }
        if (const util::JsonValue* client = record.find("client")) {
          entry.client = client->as_string();
        }
        index[entry.id] = entries.size();
        entries.push_back(std::move(entry));
        ++out.records;
      } else if (type == "state") {
        const std::string id = record.at("id").as_string();
        const auto it = index.find(id);
        if (it == index.end()) {
          ++out.skipped_orphan;
          continue;
        }
        entries[it->second].last_state =
            job_state_from_string(record.at("state").as_string());
        ++out.records;
      } else {
        ++out.skipped_version;  // unknown record type: same policy as version
      }
    } catch (const std::exception& e) {
      // Well-formed JSON but not a valid record (e.g. a spec whose wire
      // format this build rejects): skip it, keep replaying.
      ++out.skipped_version;
      util::log_warn() << "journal: skipping malformed record: " << e.what();
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const JournalEntry& a, const JournalEntry& b) {
              return a.seq < b.seq;
            });
  return entries;
}

void JobJournal::seed(const std::vector<JournalEntry>& entries) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const JournalEntry& entry : entries) {
    next_seq_ = std::max(next_seq_, entry.seq + 1);
    if (is_terminal(entry.last_state)) continue;
    LiveJob live;
    live.spec_json = util::json_serialize(io::to_json(entry.spec));
    live.priority = entry.priority;
    live.client = entry.client;
    live.state = entry.last_state;
    live.seq = entry.seq;
    live_[entry.id] = std::move(live);
  }
  // Rewriting now drops every terminal job recorded by the previous
  // incarnation — restart is the natural compaction point.
  if (!entries.empty()) compact_locked();
}

void JobJournal::record_submitted(const JobRecord& job, JobPriority priority,
                                  const std::string& client) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t seq = next_seq_++;
  const std::string spec_json =
      util::json_serialize(io::to_json(job.spec()));
  LiveJob live;
  live.spec_json = spec_json;
  live.priority = priority;
  live.client = client;
  live.state = JobState::kQueued;
  live.seq = seq;
  live_[job.id()] = std::move(live);
  append_locked(submitted_line(job.id(), spec_json, priority, client, seq));
}

void JobJournal::record_state(const std::string& id, JobState state) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = live_.find(id);
  if (it == live_.end()) return;  // unknown or already terminal: nothing new
  if (it->second.state == state) return;
  if (is_terminal(state)) {
    live_.erase(it);
  } else {
    it->second.state = state;
  }
  append_locked(state_line(id, state));
}

std::size_t JobJournal::bytes_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

void JobJournal::append_locked(const std::string& line) {
  if (file_ == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  flush_and_sync(file_);
  bytes_ += line.size() + 1;
  static util::Counter& appends =
      util::metric_counter("server.journal.appends");
  appends.add();
  static util::Gauge& gauge = util::metric_gauge("server.journal.bytes");
  gauge.set(static_cast<double>(bytes_));
  if (compact_bytes_ > 0 && bytes_ > compact_bytes_) compact_locked();
}

void JobJournal::compact_locked() {
  // Rewrite the journal with only the live jobs' admission records (their
  // current non-terminal state is implied: replay re-enqueues them), in
  // submission order, then atomically swap it in. A crash at any point
  // leaves either the old or the new complete journal.
  std::vector<std::pair<std::string, const LiveJob*>> live;
  live.reserve(live_.size());
  for (const auto& [id, job] : live_) live.emplace_back(id, &job);
  std::sort(live.begin(), live.end(), [](const auto& a, const auto& b) {
    return a.second->seq < b.second->seq;
  });

  const std::string tmp = path_ + ".tmp";
  {
    std::FILE* out = std::fopen(tmp.c_str(), "w");
    if (out == nullptr) {
      util::log_warn() << "journal: compaction failed to open " << tmp;
      return;
    }
    for (const auto& [id, job] : live) {
      const std::string line = submitted_line(id, job->spec_json,
                                              job->priority, job->client,
                                              job->seq);
      std::fwrite(line.data(), 1, line.size(), out);
      std::fputc('\n', out);
      if (job->state != JobState::kQueued) {
        const std::string state = state_line(id, job->state);
        std::fwrite(state.data(), 1, state.size(), out);
        std::fputc('\n', out);
      }
    }
    flush_and_sync(out);
    std::fclose(out);
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    util::log_warn() << "journal: compaction rename failed: "
                     << std::strerror(errno);
    std::remove(tmp.c_str());
    return;
  }
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
  open_locked("a");
  static util::Counter& compactions =
      util::metric_counter("server.journal.compactions");
  compactions.add();
}

}  // namespace clrearly::server
