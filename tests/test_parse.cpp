// Strict full-token parsing (util/parse.h): the satellite fix for
// std::stoul-style flag parsing that accepted "--disks 8x" and silently
// wrapped negatives.
#include "util/parse.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace pr {
namespace {

TEST(Parse, U64Accepts) {
  EXPECT_EQ(parse_u64("0", "k"), 0u);
  EXPECT_EQ(parse_u64("42", "k"), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615", "k"),
            18446744073709551615ull);
}

TEST(Parse, U64RejectsTrailingGarbage) {
  EXPECT_THROW((void)parse_u64("8x", "k"), std::invalid_argument);
  EXPECT_THROW((void)parse_u64("4 ", "k"), std::invalid_argument);
  EXPECT_THROW((void)parse_u64(" 4", "k"), std::invalid_argument);
}

TEST(Parse, U64RejectsSignsAndEmpty) {
  EXPECT_THROW((void)parse_u64("-5", "k"), std::invalid_argument);
  EXPECT_THROW((void)parse_u64("+5", "k"), std::invalid_argument);
  EXPECT_THROW((void)parse_u64("", "k"), std::invalid_argument);
  EXPECT_THROW((void)parse_u64("18446744073709551616", "k"),
               std::invalid_argument);  // overflow
}

TEST(Parse, ErrorNamesTheFlag) {
  try {
    (void)parse_u64("8x", "--disks");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--disks"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("8x"), std::string::npos);
  }
}

TEST(Parse, DoubleAccepts) {
  EXPECT_DOUBLE_EQ(parse_double("1.5", "k"), 1.5);
  EXPECT_DOUBLE_EQ(parse_double("-2", "k"), -2.0);
  EXPECT_DOUBLE_EQ(parse_double("1e3", "k"), 1000.0);
}

TEST(Parse, DoubleRejects) {
  EXPECT_THROW((void)parse_double("1.5x", "k"), std::invalid_argument);
  EXPECT_THROW((void)parse_double("", "k"), std::invalid_argument);
  EXPECT_THROW((void)parse_double("nan", "k"), std::invalid_argument);
  EXPECT_THROW((void)parse_double("inf", "k"), std::invalid_argument);
}

TEST(Parse, Bool) {
  EXPECT_TRUE(parse_bool("true", "k"));
  EXPECT_TRUE(parse_bool("Yes", "k"));
  EXPECT_TRUE(parse_bool("1", "k"));
  EXPECT_TRUE(parse_bool("ON", "k"));
  EXPECT_FALSE(parse_bool("false", "k"));
  EXPECT_FALSE(parse_bool("no", "k"));
  EXPECT_FALSE(parse_bool("0", "k"));
  EXPECT_FALSE(parse_bool("off", "k"));
  EXPECT_THROW((void)parse_bool("maybe", "k"), std::invalid_argument);
}

TEST(Parse, SizeMatchesU64OnLP64) {
  EXPECT_EQ(parse_size("123", "k"), 123u);
  EXPECT_THROW((void)parse_size("12.5", "k"), std::invalid_argument);
}

TEST(Parse, U32AcceptsItsFullRange) {
  EXPECT_EQ(parse_u32("0", "k"), 0u);
  EXPECT_EQ(parse_u32("4294967295", "k"), 4294967295u);
}

TEST(Parse, U32RejectsValuesThatWouldWrap) {
  // A plain cast would turn these into 0 and 1.
  EXPECT_THROW((void)parse_u32("4294967296", "k"), std::invalid_argument);
  EXPECT_THROW((void)parse_u32("4294967297", "k"), std::invalid_argument);
  EXPECT_THROW((void)parse_u32("18446744073709551615", "k"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_u32("8x", "k"), std::invalid_argument);
  EXPECT_THROW((void)parse_u32("-1", "k"), std::invalid_argument);
}

TEST(Parse, U32ErrorNamesTheKey) {
  try {
    (void)parse_u32("4294967296", "--threads");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
}

}  // namespace
}  // namespace pr
