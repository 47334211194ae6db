#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace p2prank::util {
namespace {

/// The message finish() throws, or "" when the command line is clean.
std::string finish_error(Flags& flags) {
  try {
    flags.finish();
  } catch (const FlagError& e) {
    return e.what();
  }
  return "";
}

TEST(Flags, BothSpellingsAndABareSwitch) {
  const std::vector<std::string> args{"--pages=1000", "--label", "a b", "--quiet",
                                      "--alpha", "-0.5"};
  Flags flags(args);
  EXPECT_EQ(flags.get<std::uint32_t>("pages", 7), 1000u);
  EXPECT_EQ(flags.get<std::string>("label", ""), "a b");
  EXPECT_TRUE(flags.flag("quiet"));
  EXPECT_EQ(flags.get<double>("alpha", 0.85), -0.5);
  EXPECT_FALSE(flags.flag("serve"));
  EXPECT_EQ(flags.get<std::uint64_t>("seed", 42), 42u);
  EXPECT_FALSE(flags.get<int>("reps").has_value());
  EXPECT_FALSE(flags.help());
  EXPECT_EQ(finish_error(flags), "");
}

TEST(Flags, EmptyValueIsAValue) {
  const std::vector<std::string> args{"--csv="};
  Flags flags(args);
  EXPECT_EQ(flags.get<std::string>("csv", "x"), "");
  EXPECT_EQ(finish_error(flags), "");
}

TEST(Flags, SwitchGivenAValueFails) {
  for (const auto& args : {std::vector<std::string>{"--quiet=yes"},
                           std::vector<std::string>{"--quiet", "yes"}}) {
    Flags flags(args);
    EXPECT_TRUE(flags.flag("quiet"));
    EXPECT_EQ(finish_error(flags), "switch --quiet takes no value, got 'yes'");
  }
}

TEST(Flags, MissingValueFails) {
  const std::vector<std::string> last{"--pages"};
  Flags at_end(last);
  EXPECT_EQ(at_end.get<std::uint32_t>("pages", 7), 7u);
  EXPECT_EQ(finish_error(at_end), "--pages needs a value");

  const std::vector<std::string> before_flag{"--csv", "--k=3"};
  Flags before(before_flag);
  EXPECT_EQ(before.get<std::uint32_t>("k", 1), 3u);
  EXPECT_EQ(before.get<std::string>("csv", ""), "");
  EXPECT_EQ(finish_error(before), "--csv needs a value");
}

/// The error finish() reports for `--v=<text>` read as a T.
template <typename T>
std::string value_error(const std::string& text) {
  const std::vector<std::string> args{"--v=" + text};
  Flags flags(args);
  (void)flags.get<T>("v");
  return finish_error(flags);
}

TEST(Flags, IntegersParseInFull) {
  for (const char* bad : {"1e6", "12abc", "0x10", "", " 5", "+5", "5 "}) {
    EXPECT_EQ(value_error<std::uint64_t>(bad),
              std::string("--v expects an unsigned 64-bit integer, got '") + bad + "'");
    EXPECT_NE(value_error<int>(bad), "") << bad;
  }
  EXPECT_EQ(value_error<std::uint64_t>("18446744073709551615"), "");
  EXPECT_EQ(value_error<int>("-7"), "");
}

TEST(Flags, UnsignedTakesNoSignAndStaysInRange) {
  EXPECT_EQ(value_error<std::uint32_t>("-1"),
            "--v expects an unsigned 32-bit integer, got '-1'");
  EXPECT_EQ(value_error<std::uint64_t>("-1"),
            "--v expects an unsigned 64-bit integer, got '-1'");
  EXPECT_EQ(value_error<std::uint32_t>("4294967295"), "");
  EXPECT_EQ(value_error<std::uint32_t>("4294967296"),
            "--v expects an unsigned 32-bit integer, got '4294967296'");
  EXPECT_NE(value_error<std::uint64_t>("18446744073709551616"), "");
  EXPECT_NE(value_error<int>("2147483648"), "");

  const std::vector<std::string> args{"--k", "-1"};
  Flags flags(args);
  EXPECT_EQ(flags.get<std::uint32_t>("k", 16), 16u);
  EXPECT_NE(finish_error(flags), "");
}

TEST(Flags, DoublesTakeExponents) {
  const std::vector<std::string> args{"--pages=1e6", "--tau", "2.5e-7"};
  Flags flags(args);
  EXPECT_EQ(flags.get<double>("pages", 0.0), 1e6);
  EXPECT_EQ(flags.get<double>("tau", 0.0), 2.5e-7);
  EXPECT_EQ(finish_error(flags), "");
  EXPECT_EQ(value_error<double>("1e6x"), "--v expects a finite number, got '1e6x'");
  EXPECT_NE(value_error<double>("1e999"), "");
}

TEST(Flags, DoublesMustBeFinite) {
  // std::from_chars reads these into a double; a flag refuses them.
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "infinity"}) {
    EXPECT_EQ(value_error<double>(bad),
              std::string("--v expects a finite number, got '") + bad + "'");
  }
  const std::vector<std::string> args{"--t-end", "inf"};
  Flags flags(args);
  EXPECT_EQ(flags.get<double>("t-end", 60.0), 60.0);
  EXPECT_EQ(finish_error(flags), "--t-end expects a finite number, got 'inf'");
  EXPECT_EQ(value_error<double>("-1.5e300"), "");
}

TEST(Flags, ListsParseEachElementStrictly) {
  const std::vector<std::string> args{"--rows=2000,1000000"};
  Flags flags(args);
  EXPECT_EQ(flags.get_list("rows", {}), (std::vector<std::uint64_t>{2000, 1000000}));
  EXPECT_EQ(flags.get_list("absent", {7}), std::vector<std::uint64_t>{7});
  EXPECT_EQ(finish_error(flags), "");
  for (const char* bad : {"2000,", "1e6", ",5", "5,,6", "-1"}) {
    const std::vector<std::string> one{std::string("--rows=") + bad};
    Flags list(one);
    EXPECT_EQ(list.get_list("rows", {7}), std::vector<std::uint64_t>{7});
    EXPECT_NE(finish_error(list), "") << bad;
  }
}

TEST(Flags, RepeatedFlagFails) {
  const std::vector<std::string> args{"--pages=1", "--pages", "2"};
  Flags flags(args);
  EXPECT_EQ(flags.get<std::uint32_t>("pages", 0), 1u);
  EXPECT_EQ(finish_error(flags), "flag --pages given twice");
}

TEST(Flags, FinishNamesTheFirstUnreadFlag) {
  const std::vector<std::string> args{"--pages=5", "--pagez=5", "--kk", "3"};
  Flags flags(args);
  EXPECT_EQ(flags.get<std::uint32_t>("pages", 0), 5u);
  EXPECT_EQ(finish_error(flags), "unknown flag --pagez");
}

TEST(Flags, NonFlagTokenFails) {
  for (const char* token : {"positional", "-k", "--", "--=5", "-"}) {
    const std::vector<std::string> args{token};
    Flags flags(args);
    EXPECT_EQ(finish_error(flags), std::string("unexpected argument '") + token + "'");
  }
}

TEST(Flags, HelpIsAskedForNotRead) {
  for (const char* token : {"--help", "-h"}) {
    const std::vector<std::string> args{"--k=3", token};
    Flags flags(args);
    EXPECT_TRUE(flags.help());
    EXPECT_EQ(flags.get<std::uint32_t>("k", 1), 3u);
    EXPECT_EQ(finish_error(flags), "");
  }
}

TEST(Flags, ReadAfterFinishIsAProgramBug) {
  const std::vector<std::string> args;
  Flags flags(args);
  flags.finish();
  EXPECT_THROW((void)flags.get<std::uint32_t>("k", 1), std::logic_error);
  EXPECT_THROW((void)flags.flag("quiet"), std::logic_error);
}

}  // namespace
}  // namespace p2prank::util
