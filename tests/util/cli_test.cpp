#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace clrearly::util {
namespace {

ArgParser make_parser() {
  ArgParser p("tool", "test parser");
  p.flag("verbose", "say more")
      .option("seed", "rng seed", "42")
      .option("name", "a string", "default-name");
  return p;
}

TEST(ArgParserTest, DefaultsApplyWithoutArgs) {
  ArgParser p = make_parser();
  p.parse({});
  EXPECT_FALSE(p.has("verbose"));
  EXPECT_EQ(p.get("seed"), "42");
  EXPECT_EQ(p.get_uint("seed"), 42u);
  EXPECT_EQ(p.get("name"), "default-name");
  EXPECT_TRUE(p.positionals().empty());
}

TEST(ArgParserTest, SpaceAndEqualsSyntax) {
  ArgParser p = make_parser();
  p.parse({"--seed", "7", "--name=xyz", "--verbose"});
  EXPECT_TRUE(p.has("verbose"));
  EXPECT_EQ(p.get_uint("seed"), 7u);
  EXPECT_EQ(p.get("name"), "xyz");
}

TEST(ArgParserTest, PositionalsCollected) {
  ArgParser p = make_parser();
  p.parse({"first", "--seed", "9", "second"});
  ASSERT_EQ(p.positionals().size(), 2u);
  EXPECT_EQ(p.positionals()[0], "first");
  EXPECT_EQ(p.positionals()[1], "second");
}

TEST(ArgParserTest, DoubleDashEndsOptions) {
  ArgParser p = make_parser();
  p.parse({"--", "--seed", "9"});
  EXPECT_EQ(p.get_uint("seed"), 42u);  // default; after -- all positional
  EXPECT_EQ(p.positionals().size(), 2u);
}

TEST(ArgParserTest, Errors) {
  ArgParser p = make_parser();
  EXPECT_THROW(p.parse({"--unknown"}), std::invalid_argument);
  EXPECT_THROW(p.parse({"--seed"}), std::invalid_argument);  // missing value
  EXPECT_THROW(p.parse({"--verbose=1"}), std::invalid_argument);
  p.parse({"--seed", "abc"});
  EXPECT_THROW(p.get_number("seed"), std::invalid_argument);
  p.parse({"--seed", "1.5"});
  EXPECT_DOUBLE_EQ(p.get_number("seed"), 1.5);
  EXPECT_THROW(p.get_uint("seed"), std::invalid_argument);
  p.parse({"--seed", "-3"});
  EXPECT_THROW(p.get_uint("seed"), std::invalid_argument);
  EXPECT_THROW(p.get("nonexistent"), std::invalid_argument);
}

TEST(ArgParserTest, MalformedNumbersAreRejectedNotTruncated) {
  // std::stod used to accept "1.5abc" (silently dropping the garbage) and
  // leading whitespace; from_chars rejects both, and the empty string.
  ArgParser p = make_parser();
  for (const char* bad : {"1.5abc", "3x", " 7", "", "--", "nan(", "0x10"}) {
    p.parse({"--seed", bad});
    EXPECT_THROW(p.get_number("seed"), std::invalid_argument)
        << "value '" << bad << "' must be rejected";
  }
  p.parse({"--seed=-2.5e-3"});
  EXPECT_DOUBLE_EQ(p.get_number("seed"), -2.5e-3);
  // get_uint range-checks before it casts: NaN, infinities and values of
  // 2^64 and up are rejected, never cast (the cast would be undefined).
  for (const char* bad :
       {"nan", "inf", "-inf", "1e30", "18446744073709551616"}) {
    p.parse({"--seed", bad});
    EXPECT_THROW(p.get_uint("seed"), std::invalid_argument)
        << "value '" << bad << "' must be rejected";
  }
  p.parse({"--seed", "18446744073709549568"});  // largest double below 2^64
  EXPECT_EQ(p.get_uint("seed"), 18446744073709549568u);
}

TEST(ArgParserTest, DuplicateDeclarationRejected) {
  ArgParser p("t", "d");
  p.flag("x", "first");
  EXPECT_THROW(p.flag("x", "again"), std::invalid_argument);
  EXPECT_THROW(p.option("x", "again", ""), std::invalid_argument);
}

TEST(ArgParserTest, HelpListsEverything) {
  const ArgParser p = make_parser();
  const std::string help = p.help();
  EXPECT_NE(help.find("--verbose"), std::string::npos);
  EXPECT_NE(help.find("--seed <value> (default: 42)"), std::string::npos);
  EXPECT_NE(help.find("say more"), std::string::npos);
  EXPECT_NE(help.find("test parser"), std::string::npos);
}

TEST(ArgParserTest, RepeatedOptionLastWins) {
  ArgParser p = make_parser();
  p.parse({"--seed", "1", "--seed", "2"});
  EXPECT_EQ(p.get_uint("seed"), 2u);
}

// ---- --log-level plumbing (add_log_level_option / parse_standard_args) ----

TEST(LogLevelOptionTest, RoundTripsThroughStrings) {
  for (LogLevel level : {LogLevel::Debug, LogLevel::Info, LogLevel::Warn,
                         LogLevel::Error, LogLevel::Off}) {
    EXPECT_EQ(parse_log_level(to_string(level)), level);
  }
  EXPECT_THROW(parse_log_level("verbose"), std::invalid_argument);
  EXPECT_THROW(parse_log_level(""), std::invalid_argument);
}

TEST(LogLevelOptionTest, DeclaresOptionWithDefault) {
  ArgParser p("tool", "test");
  add_log_level_option(p, LogLevel::Warn);
  p.parse({});
  EXPECT_EQ(p.get("log-level"), "warn");
  p.parse({"--log-level", "debug"});
  EXPECT_EQ(p.get("log-level"), "debug");
  EXPECT_NE(p.help().find("--log-level"), std::string::npos);
}

/// Restores the global log level and thread count after each precedence test
/// so the suite leaves no trace in other tests' environment.
class StandardArgsTest : public ::testing::Test {
 protected:
  void SetUp() override { previous_ = log_level(); }
  void TearDown() override {
    set_log_level(previous_);
    set_thread_count(0);
  }

  /// Run parse_standard_args over `cli` (argv[1:]) with `default_level`.
  static bool run(const std::vector<std::string>& cli,
                  LogLevel default_level) {
    std::vector<std::string> storage = cli;
    storage.insert(storage.begin(), "tool");
    std::vector<char*> argv;
    argv.reserve(storage.size());
    for (std::string& arg : storage) argv.push_back(arg.data());
    ArgParser parser("tool", "standard-args test");
    return parse_standard_args(parser, static_cast<int>(argv.size()),
                               argv.data(), default_level);
  }

 private:
  LogLevel previous_ = LogLevel::Info;
};

TEST_F(StandardArgsTest, DefaultLevelBeatsPriorProcessState) {
  set_log_level(LogLevel::Debug);  // whatever the process had before
  ASSERT_TRUE(run({}, LogLevel::Warn));
  EXPECT_EQ(log_level(), LogLevel::Warn);
}

TEST_F(StandardArgsTest, ExplicitFlagBeatsDefaultLevel) {
  set_log_level(LogLevel::Error);
  ASSERT_TRUE(run({"--log-level", "debug"}, LogLevel::Warn));
  EXPECT_EQ(log_level(), LogLevel::Debug);
  ASSERT_TRUE(run({"--log-level=off"}, LogLevel::Warn));
  EXPECT_EQ(log_level(), LogLevel::Off);
}

TEST_F(StandardArgsTest, HelpReturnsFalseWithoutTouchingLogLevel) {
  set_log_level(LogLevel::Error);
  EXPECT_FALSE(run({"--help"}, LogLevel::Warn));
  EXPECT_EQ(log_level(), LogLevel::Error);
}

}  // namespace
}  // namespace clrearly::util
