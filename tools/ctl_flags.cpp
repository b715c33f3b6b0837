#include "ctl_flags.hpp"

#include <algorithm>

#include "voprof/util/assert.hpp"

namespace voprof::tools {

namespace {

struct CommandEntry {
  std::string command;
  std::vector<FlagSpec> flags;
  std::string summary;                ///< one line: what the command does
  std::vector<std::string> synopsis;  ///< its flags, as --help prints them
};

/// The whole CLI surface. Cross-cutting flags keep one spelling:
/// --jobs (parallelism), --seed, --format csv|json, --trace-out
/// (observability trace file, everywhere; observation-CSV inputs are
/// --observations). Every command also takes --help (see kHelpFlag).
const std::vector<CommandEntry>& command_table() {
  static const std::vector<CommandEntry> table = {
      {"train",
       {{"out"}, {"method"}, {"duration"}, {"seed"}, {"jobs"},
        {"trace-out"}},
       "run the micro-benchmark sweep and fit the models",
       {"--out FILE [--method lms|ols] [--duration SEC]",
        "[--seed N] [--jobs N] [--trace-out FILE]"}},
      {"export-trace",
       {{"out"}, {"duration"}, {"seed"}, {"jobs"}, {"trace-out"}},
       "dump sweep observations as CSV",
       {"--out FILE [--duration SEC] [--seed N] [--jobs N]",
        "[--trace-out FILE]"}},
      {"fit", {{"observations"}, {"out"}, {"method"}, {"trace-out"}},
       "fit models from an observation CSV",
       {"--observations FILE --out FILE [--method lms|ols]",
        "[--trace-out FILE]"}},
      {"predict",
       {{"models"}, {"cpu"}, {"mem"}, {"io"}, {"bw"}, {"vms"}, {"format"},
        {"trace-out"}},
       "predict PM utilization from summed VM metrics",
       {"--models FILE --cpu PCT --mem MIB --io BLKS",
        "--bw KBPS [--vms N] [--format csv|json] [--trace-out FILE]"}},
      {"profile",
       {{"kind"}, {"value"}, {"vms"}, {"duration"}, {"seed"}, {"format"},
        {"trace-out"}},
       "measure one workload cell",
       {"--kind cpu|mem|io|bw --value V [--vms N]",
        "[--duration SEC] [--seed N] [--format csv|json]",
        "[--trace-out FILE]"}},
      {"rubis",
       {{"models"}, {"clients"}, {"duration"}, {"seed"}, {"trace-out"}},
       "RUBiS prediction-accuracy run",
       {"--models FILE [--clients N] [--duration SEC] [--seed N]",
        "[--trace-out FILE]"}},
      {"inspect",
       {{"observations"}, {"method"}, {"resamples"}, {"seed"},
        {"trace-out"}},
       "bootstrap confidence intervals for fitted model coefficients",
       {"--observations FILE [--method lms|ols] [--resamples N]",
        "[--seed N] [--trace-out FILE]"}},
      {"simulate",
       {{"scenario"}, {"replications"}, {"jobs"}, {"seed"}, {"format"},
        {"series-out"}, {"trace-out"}},
       "run a declarative scenario (INI) and print the utilizations",
       {"--scenario FILE [--series-out OUT.csv]",
        "[--replications N] [--jobs N] [--seed N]",
        "[--format csv|json] [--trace-out FILE]"}},
      {"bench-diff",
       {{"baseline"}, {"current"}, {"threshold"},
        {"report-improvement", true}},
       "compare two BENCH_*.json perf records",
       {"--baseline FILE --current FILE",
        "[--threshold FRAC] [--report-improvement]",
        "exit 0 = ok, 1 = regression or checksum mismatch,",
        "2 = bad input, 4 = improvement (with --report-improvement)"}},
      {"serve",
       {{"socket"}, {"jobs"}, {"queue-capacity"}, {"default-deadline-ms"},
        {"max-deadline-ms"}, {"train-duration"}, {"seed"},
        {"enable-test-ops", true}, {"metrics-out"}, {"trace-out"}},
       "run the voprofd daemon",
       {"--socket PATH [--jobs N] [--queue-capacity N]",
        "[--default-deadline-ms MS] [--max-deadline-ms MS]",
        "[--train-duration SEC] [--seed N]",
        "[--metrics-out FILE] [--trace-out FILE] [--enable-test-ops]"}},
      {"request",
       {{"socket"}, {"op"}, {"params"}, {"id"}, {"deadline-ms"},
        {"timeout-ms"}},
       "send one voprof-api-1 request to a daemon",
       {"--socket PATH --op OP [--params JSON] [--id ID]",
        "[--deadline-ms MS] [--timeout-ms MS]"}},
      // `trace` also takes a subcommand word and a file, which parse_flags
      // (no positionals) cannot express: voprofctl peels them off first.
      {"trace", {{"limit"}, {"out"}},
       "digest an exported observability trace",
       {"summary FILE                 per-category time table",
        "top FILE [--limit N]         busiest spans by total time",
        "export FILE [--out OUT.csv]  per-span aggregates as CSV"}},
      {"version", {}, "print the build identity",
       {"(compiler, flags, git describe, observability state)"}},
  };
  return table;
}

const CommandEntry* find_command(const std::string& command) {
  for (const CommandEntry& e : command_table()) {
    if (e.command == command) return &e;
  }
  return nullptr;
}

std::string valid_flag_list(const CommandEntry& entry) {
  std::string out;
  for (const FlagSpec& f : entry.flags) {
    if (!out.empty()) out += ", ";
    out += "--" + f.name;
  }
  return out;
}

}  // namespace

const std::vector<FlagSpec>& command_flags(const std::string& command) {
  static const std::vector<FlagSpec> empty;
  const CommandEntry* entry = find_command(command);
  return entry != nullptr ? entry->flags : empty;
}

std::string command_usage(const std::string& command,
                          const std::string& program) {
  const CommandEntry* entry = find_command(command);
  if (entry == nullptr) return {};
  std::string out = "usage: " +
                    (program.empty() ? "voprofctl " + command : program) +
                    "\n  " + entry->summary + "\n";
  for (const std::string& line : entry->synopsis) out += "    " + line + "\n";
  return out;
}

std::string commands_usage() {
  std::string out = "usage: voprofctl <command> [flags]\ncommands:\n";
  for (const CommandEntry& e : command_table()) {
    const std::size_t pad =
        e.command.size() < 14 ? 14 - e.command.size() : 1;
    out += "  " + e.command + std::string(pad, ' ') + e.summary + "\n";
    for (const std::string& line : e.synopsis) {
      out += std::string(18, ' ') + line + "\n";
    }
  }
  out += "every command accepts --help (-h) to print its own usage;\n"
         "VOPROF_TRACE=FILE writes an observability trace of any command\n";
  return out;
}

std::vector<std::string> known_commands() {
  std::vector<std::string> out;
  for (const CommandEntry& e : command_table()) out.push_back(e.command);
  return out;
}

util::Result<util::CliArgs> parse_flags(
    const std::string& command, const std::vector<std::string>& tokens) {
  const CommandEntry* entry = find_command(command);
  if (entry == nullptr) {
    std::string cmds;
    for (const std::string& c : known_commands()) {
      if (!cmds.empty()) cmds += ", ";
      cmds += c;
    }
    return util::Error{util::Errc::kValidation,
                       "unknown command '" + command + "' (commands: " +
                           cmds + ")",
                       "cli"};
  }

  std::vector<const char*> argv;
  argv.reserve(tokens.size() + 1);
  argv.push_back("voprofctl");  // argv[0] slot CliArgs skips
  for (const std::string& token : tokens) {
    argv.push_back(is_help_token(token) ? "--help" : token.c_str());
  }
  std::vector<std::string> bool_flags = {kHelpFlag};
  for (const FlagSpec& f : entry->flags) {
    if (f.boolean) bool_flags.push_back(f.name);
  }

  util::CliArgs args;
  try {
    args = util::CliArgs::parse(static_cast<int>(argv.size()), argv.data(),
                                bool_flags);
  } catch (const util::ContractViolation& e) {
    return util::Error{util::Errc::kValidation, e.what(), command};
  }
  if (!args.command().empty()) {
    return util::Error{util::Errc::kValidation,
                       "unexpected positional argument '" + args.command() +
                           "'",
                       command};
  }
  for (const std::string& name : args.flag_names()) {
    const bool known =
        name == kHelpFlag ||
        std::any_of(entry->flags.begin(), entry->flags.end(),
                    [&name](const FlagSpec& f) { return f.name == name; });
    if (!known) {
      return util::Error{util::Errc::kValidation,
                         "unknown flag --" + name + " (valid: " +
                             valid_flag_list(*entry) + ")",
                         command};
    }
  }
  return args;
}

util::Result<util::CliArgs> parse_flags_argv(const std::string& command,
                                             int argc,
                                             const char* const* argv,
                                             int first_token) {
  std::vector<std::string> tokens;
  for (int i = first_token; i < argc; ++i) tokens.emplace_back(argv[i]);
  return parse_flags(command, tokens);
}

}  // namespace voprof::tools
