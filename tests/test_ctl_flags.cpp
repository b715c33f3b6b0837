/// The shared voprofctl/voprofd flag table: uniform spellings and
/// strict rejection of unknown flags and stray positionals.

#include "ctl_flags.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "voprof/serve/daemon.hpp"

namespace voprof::tools {
namespace {

TEST(CtlFlags, EveryCommandAcceptsItsCanonicalFlags) {
  // The cross-cutting flags keep one spelling wherever they appear.
  for (const std::string cmd : {"train", "export-trace", "simulate"}) {
    const auto& flags = command_flags(cmd);
    const auto has = [&flags](const std::string& name) {
      for (const FlagSpec& f : flags) {
        if (f.name == name) return true;
      }
      return false;
    };
    EXPECT_TRUE(has("jobs")) << cmd;
    EXPECT_TRUE(has("seed")) << cmd;
    EXPECT_TRUE(has("trace-out")) << cmd;
  }
  EXPECT_TRUE(command_flags("unknown-command").empty());
}

TEST(CtlFlags, ParsesKnownFlagsIntoCliArgs) {
  const auto parsed =
      parse_flags("simulate", {"--scenario", "s.conf", "--replications", "5",
                               "--jobs", "3", "--format", "json"});
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().get("scenario"), "s.conf");
  EXPECT_EQ(parsed.value().get_int("replications", 0), 5);
  EXPECT_EQ(parsed.value().get_int("jobs", 0), 3);
  EXPECT_EQ(parsed.value().get_or("format", "table"), "json");
}

TEST(CtlFlags, UnknownFlagsAreRejectedWithTheValidList) {
  const auto parsed = parse_flags("predict", {"--models", "m.txt", "--vcpus",
                                              "4"});
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("--vcpus"), std::string::npos);
  EXPECT_NE(parsed.error().message.find("--models"), std::string::npos);
}

TEST(CtlFlags, UnknownCommandsListTheKnownOnes) {
  const auto parsed = parse_flags("trainx", {});
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("train"), std::string::npos);
  const std::vector<std::string> commands = known_commands();
  EXPECT_NE(std::find(commands.begin(), commands.end(), "serve"),
            commands.end());
  EXPECT_NE(std::find(commands.begin(), commands.end(), "request"),
            commands.end());
}

TEST(CtlFlags, PositionalArgumentsAreRejected) {
  const auto parsed = parse_flags("train", {"extra", "--out", "m.txt"});
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("extra"), std::string::npos);
}

TEST(CtlFlags, BooleanSwitchesTakeNoValue) {
  const auto parsed = parse_flags(
      "serve", {"--socket", "/tmp/s.sock", "--enable-test-ops"});
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_TRUE(parsed.value().get_bool("enable-test-ops"));
  EXPECT_EQ(parsed.value().get("socket"), "/tmp/s.sock");
}

// voprofd's path from argv to its config: a training duration outside
// [kMinTrainDurationS, kMaxTrainDurationS] is refused at startup.
TEST(CtlFlags, ServeFlagsBuildAValidatedDaemonConfig) {
  const auto config_for = [](const std::string& duration) {
    const auto parsed = parse_flags(
        "serve", {"--socket", "/tmp/s.sock", "--train-duration", duration});
    EXPECT_TRUE(parsed.ok()) << parsed.error().to_string();
    return serve::daemon_config_from_args(parsed.value());
  };
  const auto ok = config_for("30");
  ASSERT_TRUE(ok.ok()) << ok.error().to_string();
  EXPECT_EQ(ok.value().service.train_duration_s, 30.0);
  for (const char* bad : {"0.5", "0.999999", "1e-300", "1e300", "0", "-5"}) {
    const auto refused = config_for(bad);
    ASSERT_FALSE(refused.ok()) << bad;
    EXPECT_EQ(refused.error().code, util::Errc::kValidation) << bad;
    EXPECT_NE(refused.error().message.find("--train-duration"),
              std::string::npos)
        << bad;
  }
}

TEST(CtlFlags, ArgvEntryPointSkipsTheCommandWords) {
  const char* argv[] = {"voprofctl", "predict", "--models", "m.txt"};
  const auto parsed = parse_flags_argv("predict", 4, argv, 2);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().get("models"), "m.txt");
}

TEST(CtlFlags, MissingFlagValueIsAValidationError) {
  const auto parsed = parse_flags("train", {"--out"});
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, util::Errc::kValidation);
}

TEST(CtlFlags, HelpIsASwitchOnEveryCommand) {
  for (const std::string& cmd : known_commands()) {
    SCOPED_TRACE(cmd);
    for (const char* spelling : {"--help", "-h"}) {
      const auto parsed = parse_flags(cmd, {spelling});
      ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
      EXPECT_TRUE(parsed.value().get_bool(kHelpFlag));
    }
    // The usage text names the command and documents every flag.
    const std::string usage = command_usage(cmd);
    EXPECT_EQ(usage.rfind("usage: voprofctl " + cmd + "\n", 0), 0u);
    for (const FlagSpec& f : command_flags(cmd)) {
      EXPECT_NE(usage.find("--" + f.name), std::string::npos) << f.name;
    }
    EXPECT_NE(commands_usage().find("  " + cmd + " "), std::string::npos);
  }
  // Alongside other flags, and never mistaken for a flag value.
  const auto train = parse_flags("train", {"--out", "m.txt", "--help"});
  ASSERT_TRUE(train.ok()) << train.error().to_string();
  EXPECT_TRUE(train.value().get_bool(kHelpFlag));
  EXPECT_FALSE(parse_flags("train", {"--out"}).ok());
  EXPECT_FALSE(
      parse_flags("train", {}).value().get_bool(kHelpFlag));
  EXPECT_EQ(command_usage("serve", "voprofd").rfind("usage: voprofd\n", 0),
            0u);
  EXPECT_TRUE(command_usage("trainx").empty());
}

}  // namespace
}  // namespace voprof::tools
