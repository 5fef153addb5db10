#include "util/memo_cache.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>

namespace clrearly::util {

namespace {

struct Registry {
  std::mutex mutex;
  std::uint64_t next_token = 1;
  std::map<std::uint64_t, std::pair<std::string, std::function<CacheStats()>>>
      caches;
};

Registry& registry() {
  static Registry* instance = new Registry();  // never destroyed: caches with
  return *instance;  // static storage duration may unregister during exit
}

struct CapacityState {
  std::mutex mutex;
  std::optional<std::size_t> override_capacity;
};

CapacityState& capacity_state() {
  static CapacityState state;
  return state;
}

std::size_t env_capacity() {
  return detail::parse_cache_env(std::getenv("CLREARLY_CACHE"));
}

}  // namespace

namespace detail {

std::size_t parse_cache_env(const char* text) noexcept {
  // from_chars is deliberately strict: no leading whitespace, no sign
  // (strtoull would wrap "-1" to ULLONG_MAX instead of failing), no
  // trailing garbage, no locale dependence.
  if (text == nullptr || *text == '\0') return kDefaultCacheCapacity;
  std::size_t value = 0;
  const char* last = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, last, value);
  if (ec != std::errc{} || ptr != last) return kDefaultCacheCapacity;
  return value;
}

std::uint64_t register_cache(std::string name,
                             std::function<CacheStats()> stats) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  const std::uint64_t token = reg.next_token++;
  reg.caches.emplace(token,
                     std::make_pair(std::move(name), std::move(stats)));
  return token;
}

void unregister_cache(std::uint64_t token) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.caches.erase(token);
}

}  // namespace detail

std::vector<std::pair<std::string, CacheStats>> aggregate_cache_stats() {
  // The providers run under the registry lock: a cache unregisters (under
  // the same lock) before its storage dies, so every provider called here
  // is alive. A provider takes its cache's shard locks, and registry ->
  // shard is the only nesting anywhere.
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::map<std::string, CacheStats> by_name;
  for (const auto& [token, entry] : reg.caches) {
    by_name[entry.first] += entry.second();
  }
  return {by_name.begin(), by_name.end()};
}

void set_cache_capacity(std::size_t capacity) {
  CapacityState& state = capacity_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.override_capacity = capacity;
}

void reset_cache_capacity() {
  CapacityState& state = capacity_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.override_capacity.reset();
}

std::size_t cache_capacity() {
  CapacityState& state = capacity_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.override_capacity.has_value() ? *state.override_capacity
                                             : env_capacity();
}

}  // namespace clrearly::util
