// The one command-line reader: every program in tools/, bench/ and examples/
// that takes flags reads argv through Flags (bench/micro_kernels reads its
// own flags through it and hands the rest to Google Benchmark's parser).
//
// An argument is `--name=value`, `--name value` (the next token, unless it
// starts with "--") or a bare `--name` switch; `--help` (or `-h`) asks for
// the usage. A value parses in full for the type it is read as, through
// std::from_chars: no trailing bytes, no exponent in an integer, no sign on
// an unsigned type, nothing outside the type's range, and no NaN or
// infinity in a double.
//
// Reads never throw. The first problem — a token that is no flag, a name
// given twice, a switch given a value, a missing or malformed value — is
// kept, and finish() reports it, or else names the first argument no read
// took. A program reads every flag, then calls finish(), before any work;
// a read after finish() is a program bug and throws std::logic_error.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace p2prank::util {

/// A command line that does not parse: its message names the argument.
class FlagError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Flags {
 public:
  /// A program's command line. finish() answers `--help` by printing
  /// `usage` to stdout and exiting 0, and a problem by printing it and
  /// `usage` to stderr and exiting 2.
  Flags(int argc, const char* const* argv, std::string_view usage);

  /// Arguments without the program name. finish() throws FlagError, and
  /// the caller answers help().
  explicit Flags(std::span<const std::string> args);

  /// Whether `--help` or `-h` was given.
  [[nodiscard]] bool help() const noexcept { return help_; }

  /// Whether switch `--name` was given.
  [[nodiscard]] bool flag(std::string_view name);

  /// The value of `--name`, or nothing when it is absent. T is one of
  /// std::uint32_t, std::uint64_t, int, double and std::string.
  template <typename T>
  [[nodiscard]] std::optional<T> get(std::string_view name);

  /// The value of `--name`, or `fallback` when it is absent.
  template <typename T>
  [[nodiscard]] T get(std::string_view name, T fallback) {
    return get<T>(name).value_or(std::move(fallback));
  }

  /// `--name` as a comma-separated list of std::uint64_t, each element read
  /// like get's; `fallback` when it is absent.
  [[nodiscard]] std::vector<std::uint64_t> get_list(
      std::string_view name, std::vector<std::uint64_t> fallback);

  /// Ends the reading: reports the first problem, or the first argument no
  /// flag/get/get_list read ("unknown flag --<name>").
  void finish();

 private:
  struct Arg {
    std::string name;
    std::optional<std::string> value;
    bool read = false;
  };

  /// The argument `--name`, marked read; nullptr when absent.
  [[nodiscard]] Arg* take(std::string_view name);
  /// take() for a flag read as a value: nullptr when it is absent or was
  /// given without one (the latter is a problem).
  [[nodiscard]] const std::string* value_of(std::string_view name);
  void fail(std::string message);

  std::vector<Arg> args_;
  std::string error_;  // the first problem; empty while there is none
  std::string program_;
  std::string usage_;  // empty: finish() throws instead of exiting
  bool help_ = false;
  bool finished_ = false;
};

}  // namespace p2prank::util
