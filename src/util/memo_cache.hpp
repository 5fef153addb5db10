// Thread-safe sharded memoization cache for the DSE hot paths.
//
// The multi-stage DSE re-derives the same pure results over and over: tDSE,
// every metric-table build and every served session rebuild ask for the
// same absorbing-chain solves of the same CLR configurations.  MemoCache
// (the process-wide chain-solve cache is its one production instance) turns
// those recomputations into lookups while guaranteeing bit-identical
// results: values are pure functions of their keys, a hit returns a stored
// copy of exactly what the miss path would compute, and a (harmless) false
// miss only costs a recompute — the cache can change throughput, never
// results.
//
// Structure: the key space is split across N shards, each an open-addressing
// table (linear probing, bounded probe window) under its own mutex.  The
// capacity is a hard structural bound — a shard never allocates past its
// fixed slot array; when an insert finds its probe window full it evicts the
// least-recently-used slot in the window (per-shard logical clock), which is
// the "LRU-ish" policy: cheap, bounded, and recency-respecting within a
// window without global list maintenance.  Hit/miss/evict counters are kept
// per shard and aggregated on demand; named caches additionally register
// with a process-wide registry so drivers can report every cache's counters
// (aggregate_cache_stats) without threading handles around.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace clrearly::util {

/// Aggregated counters of one cache (or one shard).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;   ///< currently resident key/value pairs
  std::size_t capacity = 0;  ///< structural bound on entries

  double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }

  CacheStats& operator+=(const CacheStats& other) noexcept {
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    entries += other.entries;
    capacity += other.capacity;
    return *this;
  }
};

/// splitmix64 finalizer — avalanches a 64-bit state so that every input bit
/// affects every output bit (used as the final mixing step of HashStream and
/// to derive independent second streams).
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Streaming 64-bit hash (FNV-1a core, splitmix64 finalizer). Deterministic
/// across runs and platforms; feed words in a canonical order.
class HashStream {
 public:
  explicit HashStream(std::uint64_t seed = 0)
      : state_(kOffsetBasis ^ mix64(seed)) {}

  // One multiply + shift-mix per 64-bit word (not the byte-at-a-time FNV
  // loop, whose eight serially dependent multiplies per word would dominate
  // the cache hit path). The shift breaks the affine structure between
  // words; digest() finalizes with mix64 for full avalanche.
  HashStream& add(std::uint64_t word) noexcept {
    state_ = (state_ ^ word) * kPrime;
    state_ ^= state_ >> 32;
    return *this;
  }

  /// Canonical double hashing: bit pattern, with -0.0 folded onto +0.0 so
  /// arithmetically equal zeros share a key.
  HashStream& add(double value) noexcept {
    std::uint64_t bits;
    const double canonical = (value == 0.0) ? 0.0 : value;
    std::memcpy(&bits, &canonical, sizeof bits);
    return add(bits);
  }

  std::uint64_t digest() const noexcept { return mix64(state_); }

 private:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t state_;
};

/// 128-bit content key: two independently seeded 64-bit streams. Collisions
/// are cryptographically unlikely (~2^-64 per pair even at billions of
/// entries), which is what lets hot paths key on the hash instead of the
/// full (potentially large) canonical form.
struct Key128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  bool operator==(const Key128&) const noexcept = default;
};

/// Builds a Key128 by streaming the same words into both halves.
class Key128Stream {
 public:
  Key128Stream() : lo_(0x7c15ull), hi_(0x9e37ull) {}

  Key128Stream& add(std::uint64_t word) noexcept {
    lo_.add(word);
    hi_.add(word);
    return *this;
  }
  Key128Stream& add(double value) noexcept {
    lo_.add(value);
    hi_.add(value);
    return *this;
  }

  Key128 digest() const noexcept { return {lo_.digest(), hi_.digest()}; }

 private:
  HashStream lo_;
  HashStream hi_;
};

struct Key128Hash {
  std::size_t operator()(const Key128& k) const noexcept {
    return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ull));
  }
};

namespace detail {

/// Parse a CLREARLY_CACHE-style value: nullptr, empty, negative, unparsable
/// or trailing garbage all yield kDefaultCacheCapacity. Exposed so the
/// rejection rules are directly testable — strtoull would otherwise wrap
/// "-1" to ULLONG_MAX.
std::size_t parse_cache_env(const char* text) noexcept;

/// Register a named cache's stats provider with the process-wide registry;
/// returns a token for unregister_cache. Thread-safe.
std::uint64_t register_cache(std::string name,
                             std::function<CacheStats()> stats);

/// Remove the cache from the registry. Thread-safe.
void unregister_cache(std::uint64_t token);

inline std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace detail

/// Counters of every live named cache, summed per name (same-named caches
/// report their union). Sorted by name for stable output. A destroyed
/// cache's counters go with it.
std::vector<std::pair<std::string, CacheStats>> aggregate_cache_stats();

/// Process-wide default capacity for the DSE caches (the --cache-size
/// option). Precedence: set_cache_capacity() override, else the
/// CLREARLY_CACHE environment variable, else kDefaultCacheCapacity.
/// 0 at the top of the chain disables caching entirely.
inline constexpr std::size_t kDefaultCacheCapacity = 1u << 16;
void set_cache_capacity(std::size_t capacity);
void reset_cache_capacity();  ///< drop the override (back to env/default)
std::size_t cache_capacity();

template <typename Key, typename Value, typename KeyHash = std::hash<Key>>
class MemoCache {
 public:
  /// `capacity` bounds the total resident entries (rounded up to the shard
  /// grid; see capacity()). 0 builds a disabled cache: lookups always miss
  /// and inserts are dropped, so callers can keep one unconditional code
  /// path. `name` (optional) registers the cache for aggregate_cache_stats.
  explicit MemoCache(std::size_t capacity, std::string name = "")
      : name_(std::move(name)) {
    if (capacity > 0) {
      // Shards scale with capacity (one per 512 slots, capped) so small
      // caches stay compact while large ones spread lock pressure.
      const std::size_t shard_count = std::min<std::size_t>(
          64, detail::next_pow2((capacity + 511) / 512));
      const std::size_t slots = detail::next_pow2(
          (capacity + shard_count - 1) / shard_count);
      shards_.reserve(shard_count);
      for (std::size_t s = 0; s < shard_count; ++s) {
        shards_.push_back(std::make_unique<Shard>(slots));
      }
      shard_mask_ = shard_count - 1;
    }
    if (!name_.empty()) {
      token_ = detail::register_cache(name_, [this] { return stats(); });
    }
  }

  ~MemoCache() {
    if (!name_.empty()) detail::unregister_cache(token_);
  }

  MemoCache(const MemoCache&) = delete;
  MemoCache& operator=(const MemoCache&) = delete;

  bool enabled() const noexcept { return !shards_.empty(); }

  /// Structural capacity: shards * slots-per-shard (>= the requested
  /// capacity; entries can never exceed it).
  std::size_t capacity() const noexcept {
    return shards_.empty() ? 0 : shards_.size() * shards_[0]->slots.size();
  }

  /// Copy the cached value for `key` into `out`; true on hit.
  bool lookup(const Key& key, Value& out) const {
    if (shards_.empty()) return false;
    Shard& shard = shard_for(key);
    const std::size_t start = slot_index(shard, key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    ++shard.tick;
    for (std::size_t p = 0; p < kProbeWindow; ++p) {
      Slot& slot = shard.slots[(start + p) & (shard.slots.size() - 1)];
      if (!slot.used) break;  // open addressing: first hole ends the chain
      if (slot.key == key) {
        slot.last_used = shard.tick;
        out = slot.value;
        ++shard.stats.hits;
        return true;
      }
    }
    ++shard.stats.misses;
    return false;
  }

  /// Insert (or refresh) `key` -> `value`. When the probe window is full,
  /// the least-recently-used slot in the window is evicted.
  void insert(const Key& key, Value value) const {
    if (shards_.empty()) return;
    Shard& shard = shard_for(key);
    const std::size_t start = slot_index(shard, key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    ++shard.tick;
    Slot* empty = nullptr;
    Slot* oldest = nullptr;
    for (std::size_t p = 0; p < kProbeWindow; ++p) {
      Slot& slot = shard.slots[(start + p) & (shard.slots.size() - 1)];
      if (!slot.used) {
        if (empty == nullptr) empty = &slot;
        continue;
      }
      if (slot.key == key) {  // refresh (e.g. two threads raced the compute)
        slot.value = std::move(value);
        slot.last_used = shard.tick;
        return;
      }
      if (oldest == nullptr || slot.last_used < oldest->last_used) {
        oldest = &slot;
      }
    }
    Slot* target = empty;
    if (target == nullptr) {
      target = oldest;
      ++shard.stats.evictions;
      --shard.entries;
    }
    target->used = true;
    target->key = key;
    target->value = std::move(value);
    target->last_used = shard.tick;
    ++shard.entries;
  }

  CacheStats stats() const {
    CacheStats total;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      total += shard->stats;
      total.entries += shard->entries;
    }
    total.capacity = capacity();
    return total;
  }

  void clear() const {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      for (Slot& slot : shard->slots) slot = Slot{};
      shard->entries = 0;
    }
  }

 private:
  /// Linear-probe window; beyond it an insert evicts instead of probing on.
  static constexpr std::size_t kProbeWindow = 8;

  struct Slot {
    bool used = false;
    std::uint64_t last_used = 0;
    Key key{};
    Value value{};
  };

  struct Shard {
    explicit Shard(std::size_t slot_count) : slots(slot_count) {}
    mutable std::mutex mutex;
    std::vector<Slot> slots;
    std::size_t entries = 0;
    std::uint64_t tick = 0;
    CacheStats stats;
  };

  Shard& shard_for(const Key& key) const {
    const std::size_t h = KeyHash{}(key);
    // Shard from the high bits, slot from the low bits, so the two indices
    // stay independent.
    return *shards_[(h >> 48) & shard_mask_];
  }

  std::size_t slot_index(const Shard& shard, const Key& key) const {
    return KeyHash{}(key) & (shard.slots.size() - 1);
  }

  std::string name_;
  std::uint64_t token_ = 0;
  std::size_t shard_mask_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace clrearly::util
