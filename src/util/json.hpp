// JSON text shared by every JSON writer in the repo: the obs metrics
// snapshot and Chrome trace, and bench_report's BENCH_*.json run records.
#pragma once

#include <string>
#include <string_view>

namespace p2prank::util {

/// `s` as a JSON string literal, quotes included: `"`, `\` and the control
/// characters U+0000–U+001F are escaped, every other byte is copied.
[[nodiscard]] std::string json_string(std::string_view s);

/// `v` with max_digits10 significant digits in the classic locale: it reads
/// back exactly, and equal doubles always render as equal bytes.
[[nodiscard]] std::string json_double(double v);

}  // namespace p2prank::util
