#include "util/json.hpp"

#include <iomanip>
#include <limits>
#include <locale>
#include <sstream>

namespace p2prank::util {

std::string json_string(std::string_view s) {
  constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (byte < 0x20) {
      out += "\\u00";
      out += kHex[byte >> 4];
      out += kHex[byte & 0xf];
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string json_double(double v) {
  std::ostringstream s;
  s.imbue(std::locale::classic());
  s << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return s.str();
}

}  // namespace p2prank::util
