#include "util/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "util/memo_cache.hpp"
#include "util/observability.hpp"
#include "util/thread_pool.hpp"

namespace clrearly::util {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser& ArgParser::flag(const std::string& name, const std::string& help) {
  if (!specs_.emplace(name, Spec{help, /*is_flag=*/true, ""}).second) {
    throw std::invalid_argument("ArgParser: duplicate declaration of " + name);
  }
  declaration_order_.push_back(name);
  return *this;
}

ArgParser& ArgParser::option(const std::string& name, const std::string& help,
                             const std::string& default_value) {
  if (!specs_.emplace(name, Spec{help, /*is_flag=*/false, default_value})
           .second) {
    throw std::invalid_argument("ArgParser: duplicate declaration of " + name);
  }
  declaration_order_.push_back(name);
  return *this;
}

void ArgParser::parse(const std::vector<std::string>& args) {
  values_.clear();
  positionals_.clear();
  bool options_done = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (options_done || arg.size() < 2 || arg.compare(0, 2, "--") != 0) {
      positionals_.push_back(arg);
      continue;
    }
    if (arg == "--") {
      options_done = true;
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_inline_value = false;
    const std::size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline_value = true;
    }
    const auto it = specs_.find(name);
    if (it == specs_.end()) {
      throw std::invalid_argument("unknown option --" + name);
    }
    if (it->second.is_flag) {
      if (has_inline_value) {
        throw std::invalid_argument("flag --" + name + " takes no value");
      }
      values_[name] = "true";
      continue;
    }
    if (!has_inline_value) {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument("option --" + name + " needs a value");
      }
      value = args[++i];
    }
    values_[name] = value;
  }
}

bool ArgParser::has(const std::string& name) const {
  return values_.contains(name);
}

const std::string& ArgParser::get(const std::string& name) const {
  const auto value = values_.find(name);
  if (value != values_.end()) return value->second;
  const auto spec = specs_.find(name);
  if (spec == specs_.end() || spec->second.is_flag) {
    throw std::invalid_argument("ArgParser::get: unknown option " + name);
  }
  return spec->second.default_value;
}

const std::string* ArgParser::try_get(const std::string& name) const {
  const auto value = values_.find(name);
  if (value != values_.end()) return &value->second;
  const auto spec = specs_.find(name);
  if (spec == specs_.end() || spec->second.is_flag) return nullptr;
  return &spec->second.default_value;
}

double ArgParser::get_number(const std::string& name) const {
  // std::from_chars, not std::stod: stod honors LC_NUMERIC (under a
  // comma-decimal locale "1.5" stops parsing at the dot), and from_chars
  // rejects trailing garbage and leading whitespace without a second
  // `consumed` check.
  const std::string& text = get(name);
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || text.empty()) {
    throw std::invalid_argument("option --" + name + ": '" + text +
                                "' is not a number");
  }
  return value;
}

std::uint64_t ArgParser::get_uint(const std::string& name) const {
  const double value = get_number(name);
  constexpr double kTwoPow64 = 18446744073709551616.0;  // exact in a double
  // Range-checked before the cast (casting NaN, infinities or values
  // >= 2^64 is undefined), and written so NaN fails the range test too.
  if (!(value >= 0.0 && value < kTwoPow64) || std::trunc(value) != value) {
    throw std::invalid_argument("option --" + name +
                                " must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(value);
}

std::string ArgParser::help() const {
  std::ostringstream oss;
  oss << program_ << " — " << description_ << "\n\noptions:\n";
  for (const std::string& name : declaration_order_) {
    const Spec& spec = specs_.at(name);
    oss << "  --" << name;
    if (!spec.is_flag) {
      oss << " <value>";
      if (!spec.default_value.empty()) {
        oss << " (default: " << spec.default_value << ")";
      }
    }
    oss << "\n      " << spec.help << "\n";
  }
  return oss.str();
}

ArgParser& add_threads_option(ArgParser& parser) {
  return parser.option(
      "threads",
      "worker threads for parallel evaluation (0 = hardware concurrency; "
      "overrides CLREARLY_THREADS)",
      "0");
}

ArgParser& add_log_level_option(ArgParser& parser, LogLevel default_level) {
  return parser.option("log-level",
                       "minimum log level: debug|info|warn|error|off",
                       std::string(to_string(default_level)));
}

ArgParser& add_cache_options(ArgParser& parser) {
  parser.option("cache-size",
                "capacity in entries of the chain-solve cache (0 disables; "
                "overrides CLREARLY_CACHE)",
                "");
  return parser.flag("no-cache",
                     "disable the chain-solve cache (same as --cache-size 0)");
}

void apply_cache_options(const ArgParser& parser) {
  if (parser.has("no-cache")) {
    set_cache_capacity(0);
  } else if (parser.has("cache-size")) {
    set_cache_capacity(static_cast<std::size_t>(parser.get_uint("cache-size")));
  }
}

bool parse_standard_args(ArgParser& parser, int argc, char** argv,
                         LogLevel default_log_level) {
  parser.flag("help", "print this help and exit");
  add_threads_option(parser);
  add_log_level_option(parser, default_log_level);
  add_cache_options(parser);
  add_observability_options(parser);
  std::vector<std::string> args;
  args.reserve(argc > 1 ? static_cast<std::size_t>(argc - 1) : 0);
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  try {
    parser.parse(args);
    if (!parser.has("help")) {
      if (parser.has("threads")) {
        set_thread_count(static_cast<std::size_t>(parser.get_uint("threads")));
      }
      apply_cache_options(parser);
      // Unconditional: the declared default carries the driver's verbosity
      // choice, so no driver needs an ad-hoc set_log_level() call anymore.
      set_log_level(parse_log_level(parser.get("log-level")));
      // After threads/cache/log level, so the manifest records the
      // effective values.
      apply_observability_options(parser, argc, argv);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n\n%s", error.what(), parser.help().c_str());
    std::exit(2);
  }
  if (parser.has("help")) {
    std::fputs(parser.help().c_str(), stdout);
    return false;
  }
  return true;
}

}  // namespace clrearly::util
