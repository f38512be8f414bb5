#include <gtest/gtest.h>

#include "util/flags.h"

namespace conservation::util {
namespace {

FlagParser Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "binary");
  FlagParser parser;
  const Status status =
      parser.Parse(static_cast<int>(args.size()), args.data());
  EXPECT_TRUE(status.ok()) << status.ToString();
  return parser;
}

TEST(FlagParserTest, EqualsForm) {
  FlagParser flags = Parse({"--name=value", "--n=42", "--x=2.5"});
  EXPECT_EQ(flags.GetStringOr("name", ""), "value");
  EXPECT_EQ(*flags.GetIntOr("n", 0), 42);
  EXPECT_DOUBLE_EQ(*flags.GetDoubleOr("x", 0.0), 2.5);
}

TEST(FlagParserTest, SpaceForm) {
  FlagParser flags = Parse({"--name", "value", "--n", "7"});
  EXPECT_EQ(flags.GetStringOr("name", ""), "value");
  EXPECT_EQ(*flags.GetIntOr("n", 0), 7);
}

TEST(FlagParserTest, BareBooleans) {
  FlagParser flags = Parse({"--verbose", "--strict=false", "--on=yes"});
  EXPECT_TRUE(*flags.GetBoolOr("verbose", false));
  EXPECT_FALSE(*flags.GetBoolOr("strict", true));
  EXPECT_TRUE(*flags.GetBoolOr("on", false));
  EXPECT_TRUE(*flags.GetBoolOr("absent", true));
}

TEST(FlagParserTest, Defaults) {
  FlagParser flags = Parse({});
  EXPECT_EQ(flags.GetStringOr("missing", "fallback"), "fallback");
  EXPECT_EQ(*flags.GetIntOr("missing", -3), -3);
  EXPECT_DOUBLE_EQ(*flags.GetDoubleOr("missing", 1.5), 1.5);
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagParserTest, Positionals) {
  FlagParser flags = Parse({"--a=1", "input.csv", "second"});
  // Note: "--a 1" form consumes the next token, so positionals here are
  // only the non-flag leftovers.
  ASSERT_EQ(flags.positionals().size(), 2u);
  EXPECT_EQ(flags.positionals()[0], "input.csv");
  EXPECT_EQ(flags.positionals()[1], "second");
}

TEST(FlagParserTest, TypeErrors) {
  FlagParser flags = Parse({"--n=abc", "--x=1.2.3", "--b=maybe"});
  EXPECT_FALSE(flags.GetIntOr("n", 0).ok());
  EXPECT_FALSE(flags.GetDoubleOr("x", 0.0).ok());
  EXPECT_FALSE(flags.GetBoolOr("b", false).ok());
}

TEST(FlagParserTest, MalformedFlag) {
  const char* args[] = {"binary", "--=oops"};
  FlagParser parser;
  EXPECT_FALSE(parser.Parse(2, args).ok());
}

TEST(FlagParserTest, LastValueWins) {
  FlagParser flags = Parse({"--n=1", "--n=2"});
  EXPECT_EQ(*flags.GetIntOr("n", 0), 2);
}

TEST(FlagParserTest, SpaceFormFollowedByFlagIsBoolean) {
  FlagParser flags = Parse({"--verbose", "--n=3"});
  EXPECT_TRUE(*flags.GetBoolOr("verbose", false));
  EXPECT_EQ(*flags.GetIntOr("n", 0), 3);
}

TEST(FlagParserTest, CheckAllReadNamesUnreadFlags) {
  FlagParser flags = Parse({"--n=3", "--bogus=1", "--verbose", "--extra=x"});
  EXPECT_EQ(*flags.GetIntOr("n", 0), 3);
  EXPECT_TRUE(flags.Has("verbose"));
  const Status status = flags.CheckAllRead();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("--bogus"), std::string::npos);
  EXPECT_NE(status.ToString().find("--extra"), std::string::npos);
  EXPECT_EQ(status.ToString().find("--n"), std::string::npos);
  EXPECT_EQ(status.ToString().find("--verbose"), std::string::npos);
  // Reading a flag, even only for its default, marks it known.
  EXPECT_EQ(flags.GetStringOr("bogus", ""), "1");
  EXPECT_EQ(flags.GetStringOr("extra", ""), "x");
  EXPECT_TRUE(flags.CheckAllRead().ok());
}

TEST(FlagParserTest, CheckAllReadIgnoresDefaultedFlags) {
  FlagParser flags = Parse({});
  EXPECT_EQ(*flags.GetIntOr("n", 5), 5);
  EXPECT_TRUE(flags.CheckAllRead().ok());
}

}  // namespace
}  // namespace conservation::util
