// Tiny command-line argument parser for the clrearly tools: long options
// (--key value or --key=value), boolean flags, typed accessors with
// defaults, and generated help text. Deliberately minimal — no subcommand
// support here; tools dispatch on argv[1] themselves.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/log.hpp"

namespace clrearly::util {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Declare a boolean flag (--name). Returns *this for chaining.
  ArgParser& flag(const std::string& name, const std::string& help);

  /// Declare a valued option (--name <value>) with a default.
  ArgParser& option(const std::string& name, const std::string& help,
                    const std::string& default_value);

  /// Parse `args` (argv[1:]; the program name must not be included).
  /// Throws std::invalid_argument on unknown options, missing values or a
  /// flag given a value. "--" ends option parsing; the rest are positionals.
  void parse(const std::vector<std::string>& args);

  /// True when a declared flag was present (or an option explicitly set).
  bool has(const std::string& name) const;

  /// Value of an option (explicit or default); throws for unknown names.
  const std::string& get(const std::string& name) const;
  double get_number(const std::string& name) const;
  std::uint64_t get_uint(const std::string& name) const;

  /// Like get(), but returns nullptr for undeclared names instead of
  /// throwing — lets generic consumers (the run manifest) probe for
  /// driver-specific options such as --seed.
  const std::string* try_get(const std::string& name) const;

  const std::string& program() const noexcept { return program_; }

  /// Arguments that were not options.
  const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

  /// Usage text listing every declared flag/option with its help string.
  std::string help() const;

 private:
  struct Spec {
    std::string help;
    bool is_flag = false;
    std::string default_value;
  };

  std::string program_;
  std::string description_;
  std::vector<std::string> declaration_order_;
  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

/// Declare the shared --threads option (the one flag every clrearly driver
/// exposes): worker threads for the parallel evaluation engine, 0 = hardware
/// concurrency. An explicit --threads overrides CLREARLY_THREADS.
ArgParser& add_threads_option(ArgParser& parser);

/// Declare the shared --log-level option ({debug,info,warn,error,off}).
/// `default_level` is the driver's choice of verbosity when the flag is
/// absent (benches default to warn so their stdout stays machine-readable).
ArgParser& add_log_level_option(ArgParser& parser,
                                LogLevel default_level = LogLevel::Info);

/// Declare the shared memoization-cache options: --cache-size <entries>
/// (capacity of the chain-solve cache; 0 disables) and --no-cache
/// (shorthand for --cache-size 0).
ArgParser& add_cache_options(ArgParser& parser);

/// Apply the declared cache options via set_cache_capacity(): --no-cache
/// wins over --cache-size; when neither was given the global default
/// (CLREARLY_CACHE env or kDefaultCacheCapacity) stays in effect.
void apply_cache_options(const ArgParser& parser);

/// Standard driver prologue: declares --help, --threads, --log-level and
/// --cache-size/--no-cache on `parser` (after any driver-specific
/// declarations), parses argv[1:], and
///  * on --help prints the generated usage text and returns false (drivers
///    then exit 0),
///  * on a parse error prints the error + usage to stderr and exits with 2,
///  * otherwise applies --threads via set_thread_count(), the cache options
///    via set_cache_capacity(), and the log level (an explicit --log-level
///    beats `default_log_level`, which beats whatever the process had set
///    before), then returns true.
bool parse_standard_args(ArgParser& parser, int argc, char** argv,
                         LogLevel default_log_level = LogLevel::Info);

}  // namespace clrearly::util
