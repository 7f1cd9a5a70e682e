// Tests for the command-line flag library and the component registry the
// flag values feed into (every CLI resolves scheduler/reclaim/predictor
// names through src/svc/registry.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "src/common/flags.h"
#include "src/svc/registry.h"

namespace lyra {
namespace {

struct Parsed {
  bool verbose = false;
  int count = 7;
  double rate = 1.5;
  std::string name = "default";
};

class FlagsTest : public ::testing::Test {
 protected:
  FlagSet MakeSet() {
    FlagSet flags("test tool");
    flags.AddBool("verbose", &parsed_.verbose, "be chatty");
    flags.AddInt("count", &parsed_.count, "how many");
    flags.AddDouble("rate", &parsed_.rate, "how fast");
    flags.AddString("name", &parsed_.name, "what to call it");
    return flags;
  }

  Status Parse(FlagSet& flags, std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    return flags.Parse(static_cast<int>(args.size()), args.data());
  }

  Parsed parsed_;
};

TEST_F(FlagsTest, DefaultsSurviveEmptyParse) {
  FlagSet flags = MakeSet();
  ASSERT_TRUE(Parse(flags, {}).ok());
  EXPECT_FALSE(parsed_.verbose);
  EXPECT_EQ(parsed_.count, 7);
  EXPECT_DOUBLE_EQ(parsed_.rate, 1.5);
  EXPECT_EQ(parsed_.name, "default");
}

TEST_F(FlagsTest, EqualsSyntax) {
  FlagSet flags = MakeSet();
  ASSERT_TRUE(
      Parse(flags, {"--count=42", "--rate=0.25", "--name=x", "--verbose=true"}).ok());
  EXPECT_TRUE(parsed_.verbose);
  EXPECT_EQ(parsed_.count, 42);
  EXPECT_DOUBLE_EQ(parsed_.rate, 0.25);
  EXPECT_EQ(parsed_.name, "x");
}

TEST_F(FlagsTest, SpaceSeparatedSyntax) {
  FlagSet flags = MakeSet();
  ASSERT_TRUE(Parse(flags, {"--count", "13", "--name", "hello"}).ok());
  EXPECT_EQ(parsed_.count, 13);
  EXPECT_EQ(parsed_.name, "hello");
}

TEST_F(FlagsTest, BareBoolSetsTrueAndNoPrefixClears) {
  FlagSet flags = MakeSet();
  ASSERT_TRUE(Parse(flags, {"--verbose"}).ok());
  EXPECT_TRUE(parsed_.verbose);
  ASSERT_TRUE(Parse(flags, {"--no-verbose"}).ok());
  EXPECT_FALSE(parsed_.verbose);
}

TEST_F(FlagsTest, PositionalArgumentsCollected) {
  FlagSet flags = MakeSet();
  ASSERT_TRUE(Parse(flags, {"input.csv", "--count=1", "more"}).ok());
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.csv");
  EXPECT_EQ(flags.positional()[1], "more");
}

TEST_F(FlagsTest, DoubleDashEndsFlagParsing) {
  FlagSet flags = MakeSet();
  ASSERT_TRUE(Parse(flags, {"--", "--count=9"}).ok());
  EXPECT_EQ(parsed_.count, 7);  // untouched
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "--count=9");
}

TEST_F(FlagsTest, UnknownFlagIsAnError) {
  FlagSet flags = MakeSet();
  const Status status = Parse(flags, {"--bogus=1"});
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bogus"), std::string::npos);
}

TEST_F(FlagsTest, MalformedValuesAreErrors) {
  FlagSet flags = MakeSet();
  EXPECT_FALSE(Parse(flags, {"--count=abc"}).ok());
  EXPECT_FALSE(Parse(flags, {"--rate=fast"}).ok());
  EXPECT_FALSE(Parse(flags, {"--verbose=maybe"}).ok());
}

TEST_F(FlagsTest, MissingValueIsAnError) {
  FlagSet flags = MakeSet();
  EXPECT_FALSE(Parse(flags, {"--count"}).ok());
}

TEST_F(FlagsTest, HelpRequestedIsNotAnError) {
  FlagSet flags = MakeSet();
  ASSERT_TRUE(Parse(flags, {"--help"}).ok());
  EXPECT_TRUE(flags.help_requested());
  const std::string usage = flags.Usage();
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("how many"), std::string::npos);
  EXPECT_NE(usage.find("default: 7"), std::string::npos);
  EXPECT_NE(usage.find("test tool"), std::string::npos);
}

// lyra_ctl's --job: a negative id is a value to send (the server answers
// not_found), not "no id given".
TEST(Flags, OptionalInt64TellsNegativeValuesFromAbsence) {
  std::optional<std::int64_t> job;
  FlagSet flags("ctl");
  flags.AddOptionalInt64("job", &job, "job id");
  const auto parse = [&](std::vector<const char*> args) {
    job.reset();
    args.insert(args.begin(), "prog");
    return flags.Parse(static_cast<int>(args.size()), args.data());
  };
  ASSERT_TRUE(parse({"query_job"}).ok());
  EXPECT_FALSE(job.has_value());
  ASSERT_TRUE(parse({"query_job", "--job=-1"}).ok());
  EXPECT_EQ(job, std::optional<std::int64_t>(-1));
  ASSERT_TRUE(parse({"--job", "0"}).ok());
  EXPECT_EQ(job, std::optional<std::int64_t>(0));
  ASSERT_TRUE(parse({"--job=9007199254740993"}).ok());
  EXPECT_EQ(job, std::optional<std::int64_t>(9007199254740993));
  EXPECT_FALSE(parse({"--job=abc"}).ok());
  EXPECT_FALSE(parse({"--job=99999999999999999999"}).ok());
  EXPECT_NE(flags.Usage().find("--job=<int>"), std::string::npos);
  EXPECT_NE(flags.Usage().find("default: unset"), std::string::npos);
}

// --- Component registry ----------------------------------------------------

TEST(Registry, UnknownNamesListRegisteredAlternatives) {
  const auto scheduler = svc::MakeScheduler("bogus", false, false);
  ASSERT_FALSE(scheduler.ok());
  EXPECT_NE(scheduler.status().message().find("unknown scheduler"),
            std::string::npos);
  for (const std::string& name : svc::KnownSchedulerNames()) {
    EXPECT_NE(scheduler.status().message().find(name), std::string::npos)
        << "error does not list \"" << name << "\": "
        << scheduler.status().message();
  }

  const auto reclaim = svc::MakeReclaim("bogus");
  ASSERT_FALSE(reclaim.ok());
  EXPECT_NE(reclaim.status().message().find("unknown reclaim"),
            std::string::npos);
  for (const std::string& name : svc::KnownReclaimNames()) {
    EXPECT_NE(reclaim.status().message().find(name), std::string::npos);
  }

  const auto predictor = svc::MakePredictor("bogus");
  ASSERT_FALSE(predictor.ok());
  EXPECT_NE(predictor.status().message().find("unknown usage predictor"),
            std::string::npos);
  for (const std::string& name : svc::KnownPredictorNames()) {
    EXPECT_NE(predictor.status().message().find(name), std::string::npos);
  }
}

TEST(Registry, EveryRegisteredNameConstructsExceptLearned) {
  for (const std::string& name : svc::KnownSchedulerNames()) {
    const auto made = svc::MakeScheduler(name, false, false);
    if (name == "learned") {
      // Needs weights; the error says how to get them.
      ASSERT_FALSE(made.ok());
      EXPECT_NE(made.status().message().find("policy-weights"),
                std::string::npos);
      continue;
    }
    ASSERT_TRUE(made.ok()) << name << ": " << made.status().message();
    EXPECT_NE(made.value(), nullptr) << name;
  }
  for (const std::string& name : svc::KnownReclaimNames()) {
    const auto made = svc::MakeReclaim(name);
    ASSERT_TRUE(made.ok()) << name << ": " << made.status().message();
  }
  for (const std::string& name : svc::KnownPredictorNames()) {
    const auto made = svc::MakePredictor(name);
    ASSERT_TRUE(made.ok()) << name << ": " << made.status().message();
  }
}

TEST(Registry, LearnedSchedulerPropagatesWeightLoadErrors) {
  const auto made =
      svc::MakeScheduler("learned", false, false, "/nonexistent/w.lyrapol");
  ASSERT_FALSE(made.ok());
}

}  // namespace
}  // namespace lyra
