#include "util/json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace p2prank::util {
namespace {

TEST(Json, StringEscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(json_string(std::string("q\"b\\t\tn\nc\x01", 10)),
            R"("q\"b\\t\u0009n\u000ac\u0001")");
  EXPECT_EQ(json_string(std::string("\0\x1f", 2)), R"("\u0000\u001f")");
  // Printable ASCII and UTF-8 bytes are copied as they are.
  EXPECT_EQ(json_string("serve.qps \xc2\xb5s ~"), "\"serve.qps \xc2\xb5s ~\"");
}

TEST(Json, DoubleRoundTripsInSeventeenDigits) {
  EXPECT_EQ(json_double(0.1), "0.10000000000000001");
  EXPECT_EQ(json_double(1e6), "1000000");
  EXPECT_EQ(json_double(-2.5e-9), "-2.5000000000000001e-09");
  EXPECT_EQ(std::stod(json_double(0.1 + 0.2)), 0.1 + 0.2);
}

}  // namespace
}  // namespace p2prank::util
