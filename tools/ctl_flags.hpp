#pragma once
/// \file ctl_flags.hpp
/// The one flag table of the voprof command-line surface. Every
/// voprofctl subcommand (and voprofd, which is `voprofctl serve` in a
/// dedicated binary) declares its flags here, so:
///  * unknown flags fail with the command's valid-flag list instead of
///    silently parsing;
///  * the cross-cutting flags keep one spelling everywhere: `--jobs`,
///    `--seed`, `--format csv|json`, `--trace-out FILE`;
///  * every command takes `--help` (or `-h`), a switch that asks for the
///    usage text this table also holds.
///
/// tests/test_ctl_flags.cpp drives this table directly; the binaries
/// only wrap it.

#include <string>
#include <vector>

#include "voprof/util/cli.hpp"
#include "voprof/util/result.hpp"

namespace voprof::tools {

/// One flag a command accepts.
struct FlagSpec {
  std::string name;      ///< canonical spelling (no leading --)
  bool boolean = false;  ///< switch, takes no value
};

/// The switch every command accepts: print the command's usage and exit
/// 0. Not listed in command_flags().
inline constexpr const char* kHelpFlag = "help";

/// True for the tokens that ask for help: `--help` and `-h`.
[[nodiscard]] inline bool is_help_token(const std::string& token) {
  return token == "--help" || token == "-h";
}

/// Flags accepted by `command`; empty when the command is unknown.
[[nodiscard]] const std::vector<FlagSpec>& command_flags(
    const std::string& command);

/// `command`'s --help text: "usage: <program>", a one-line summary and
/// its flags. `program` defaults to "voprofctl <command>". Empty when
/// the command is unknown.
[[nodiscard]] std::string command_usage(const std::string& command,
                                        const std::string& program = {});

/// The top-level voprofctl usage: every command with its flags.
[[nodiscard]] std::string commands_usage();

/// Commands registered in the table.
[[nodiscard]] std::vector<std::string> known_commands();

/// Parse the tokens after `<program> <command>`: reject flags the
/// command does not declare (listing the valid ones), and hand back
/// strict CliArgs. Errors are Errc::kValidation.
[[nodiscard]] util::Result<util::CliArgs> parse_flags(
    const std::string& command, const std::vector<std::string>& tokens);

/// Convenience over argv: tokens = argv[first_token..argc).
[[nodiscard]] util::Result<util::CliArgs> parse_flags_argv(
    const std::string& command, int argc, const char* const* argv,
    int first_token);

}  // namespace voprof::tools
