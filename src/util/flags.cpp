#include "util/flags.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <system_error>
#include <type_traits>

namespace p2prank::util {

namespace {

/// The whole of `text` as a T, or nothing: std::from_chars reads no sign
/// into an unsigned type, no exponent into an integer, and reports a value
/// outside T's range; a byte it does not consume fails the parse. It reads
/// "nan" and "inf" into a double, and those fail too: no flag means them.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || stop != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

template <typename T>
constexpr std::string_view expected() {
  if constexpr (std::is_same_v<T, std::uint32_t>) {
    return "an unsigned 32-bit integer";
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    return "an unsigned 64-bit integer";
  } else if constexpr (std::is_same_v<T, int>) {
    return "an int";
  } else {
    return "a finite number";
  }
}

}  // namespace

Flags::Flags(int argc, const char* const* argv, std::string_view usage)
    : Flags(std::vector<std::string>(argv + std::min(argc, 1), argv + argc)) {
  program_ = argc > 0 ? argv[0] : "";
  usage_ = usage;
}

Flags::Flags(std::span<const std::string> args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& token = args[i];
    if (token == "--help" || token == "-h") {
      help_ = true;
      continue;
    }
    if (!token.starts_with("--") || token.size() == 2 || token[2] == '=') {
      fail("unexpected argument '" + token + "'");
      continue;
    }
    const auto eq = token.find('=');
    Arg arg;
    arg.name = token.substr(2, eq == std::string::npos ? eq : eq - 2);
    if (eq != std::string::npos) {
      arg.value = token.substr(eq + 1);
    } else if (i + 1 < args.size() && !args[i + 1].starts_with("--")) {
      arg.value = args[++i];
    }
    if (std::ranges::any_of(args_, [&](const Arg& a) { return a.name == arg.name; })) {
      fail("flag --" + arg.name + " given twice");
    } else {
      args_.push_back(std::move(arg));
    }
  }
}

void Flags::fail(std::string message) {
  if (error_.empty()) error_ = std::move(message);
}

Flags::Arg* Flags::take(std::string_view name) {
  if (finished_) {
    throw std::logic_error("flag --" + std::string(name) + " read after finish()");
  }
  const auto it =
      std::ranges::find_if(args_, [&](const Arg& a) { return a.name == name; });
  if (it == args_.end()) return nullptr;
  it->read = true;
  return &*it;
}

const std::string* Flags::value_of(std::string_view name) {
  const Arg* arg = take(name);
  if (arg == nullptr) return nullptr;
  if (!arg->value) {
    fail("--" + arg->name + " needs a value");
    return nullptr;
  }
  return &*arg->value;
}

bool Flags::flag(std::string_view name) {
  const Arg* arg = take(name);
  if (arg == nullptr) return false;
  if (arg->value) {
    fail("switch --" + arg->name + " takes no value, got '" + *arg->value + "'");
  }
  return true;
}

template <typename T>
std::optional<T> Flags::get(std::string_view name) {
  const std::string* text = value_of(name);
  if (text == nullptr) return std::nullopt;
  if constexpr (std::is_same_v<T, std::string>) {
    return *text;
  } else {
    const auto value = parse_number<T>(*text);
    if (!value) {
      fail("--" + std::string(name) + " expects " + std::string(expected<T>()) +
           ", got '" + *text + "'");
    }
    return value;
  }
}

template std::optional<std::uint32_t> Flags::get(std::string_view);
template std::optional<std::uint64_t> Flags::get(std::string_view);
template std::optional<int> Flags::get(std::string_view);
template std::optional<double> Flags::get(std::string_view);
template std::optional<std::string> Flags::get(std::string_view);

std::vector<std::uint64_t> Flags::get_list(std::string_view name,
                                           std::vector<std::uint64_t> fallback) {
  const std::string* text = value_of(name);
  if (text == nullptr) return fallback;
  std::vector<std::uint64_t> values;
  std::string_view rest = *text;
  for (;;) {
    const auto comma = rest.find(',');
    const auto value = parse_number<std::uint64_t>(rest.substr(0, comma));
    if (!value) {
      fail("--" + std::string(name) +
           " expects a list N[,M...] of unsigned 64-bit integers, got '" + *text +
           "'");
      return fallback;
    }
    values.push_back(*value);
    if (comma == std::string_view::npos) return values;
    rest.remove_prefix(comma + 1);
  }
}

void Flags::finish() {
  finished_ = true;
  if (error_.empty()) {
    const auto unread =
        std::ranges::find_if(args_, [](const Arg& a) { return !a.read; });
    if (unread != args_.end()) error_ = "unknown flag --" + unread->name;
  }
  if (usage_.empty()) {
    if (!error_.empty()) throw FlagError(error_);
    return;
  }
  if (help_) {
    std::cout << usage_;
    std::exit(0);
  }
  if (!error_.empty()) {
    std::cerr << program_ << ": " << error_ << '\n' << usage_;
    std::exit(2);
  }
}

}  // namespace p2prank::util
