#include "util/manifest.hpp"

#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/memo_cache.hpp"
#include "util/thread_pool.hpp"

namespace clrearly::util {

JsonObject RunManifest::to_json() const {
  JsonObject out;
  out["program"] = program;
  JsonArray args_json;
  args_json.reserve(args.size());
  for (const std::string& arg : args) args_json.push_back(JsonValue(arg));
  out["args"] = JsonValue(std::move(args_json));
  out["seed"] = seed;
  out["threads"] = threads;
  out["cache_capacity"] = cache_capacity;
  out["build_type"] = build_type;
  out["log_level"] = log_level;
  return out;
}

RunManifest RunManifest::from_json(const JsonValue& value) {
  RunManifest manifest;
  manifest.program = value.at("program").as_string();
  for (const JsonValue& arg : value.at("args").as_array()) {
    manifest.args.push_back(arg.as_string());
  }
  manifest.seed = value.at("seed").as_string();
  manifest.threads = static_cast<std::size_t>(value.at("threads").as_uint64());
  manifest.cache_capacity =
      static_cast<std::size_t>(value.at("cache_capacity").as_uint64());
  manifest.build_type = value.at("build_type").as_string();
  manifest.log_level = value.at("log_level").as_string();
  return manifest;
}

RunManifest capture_run_manifest(const ArgParser& parser, int argc,
                                 char** argv) {
  RunManifest manifest;
  manifest.program = argc > 0 && argv[0] != nullptr ? argv[0]
                                                    : parser.program();
  for (int i = 1; i < argc; ++i) manifest.args.emplace_back(argv[i]);
  if (const std::string* seed = parser.try_get("seed")) {
    manifest.seed = *seed;
  }
  manifest.threads = effective_thread_count();
  manifest.cache_capacity = cache_capacity();
#ifdef NDEBUG
  manifest.build_type = "Release";
#else
  manifest.build_type = "Debug";
#endif
  manifest.log_level = std::string(to_string(log_level()));
  return manifest;
}

}  // namespace clrearly::util
