#pragma once
/// \file bench_diff.hpp
/// Comparison of two harness perf records (BENCH_<name>.json, schema
/// voprof-bench-1): pairs benchmarks by name, compares median wall
/// time, classifies each pair against a relative threshold, and flags
/// pairs whose result checksums differ (the same workload must compute
/// the same result, however fast). The
/// logic lives in a library so tests can drive it without spawning the
/// CLI; `voprofctl bench-diff` is a thin wrapper and the CI perf gate.

#include <string>
#include <vector>

#include "voprof/util/json.hpp"

namespace voprof::tools {

/// Classification of one benchmark pair.
enum class BenchVerdict { kNeutral, kImprovement, kRegression };

/// One benchmark present in both records.
struct BenchComparison {
  std::string name;
  double baseline_median_s = 0.0;
  double current_median_s = 0.0;
  /// current / baseline median wall time; > 1 means slower.
  double ratio = 1.0;
  BenchVerdict verdict = BenchVerdict::kNeutral;
  /// Result checksums; compared only when both records carry one.
  double baseline_checksum = 0.0;
  double current_checksum = 0.0;
  /// Both records carry a checksum and the values differ.
  bool checksum_mismatch = false;
};

/// Full diff of two perf records.
struct BenchDiffReport {
  std::vector<BenchComparison> compared;
  std::vector<std::string> only_in_baseline;
  std::vector<std::string> only_in_current;

  [[nodiscard]] bool has_regression() const noexcept;
  [[nodiscard]] bool has_improvement() const noexcept;
  [[nodiscard]] bool has_checksum_mismatch() const noexcept;
};

/// Compare two parsed perf records. `threshold` is the relative
/// median-wall-time change that counts as significant (0.25 = 25 %).
/// Throws util::JsonError / util::ContractViolation when a document
/// does not carry the voprof-bench-1 schema.
[[nodiscard]] BenchDiffReport bench_diff(const util::Json& baseline,
                                         const util::Json& current,
                                         double threshold);

/// Convenience: load both files and compare. Throws on unreadable or
/// malformed input.
[[nodiscard]] BenchDiffReport bench_diff_files(const std::string& baseline,
                                               const std::string& current,
                                               double threshold);

/// Human-readable table of the report (one line per benchmark).
[[nodiscard]] std::string format_bench_diff(const BenchDiffReport& report,
                                            double threshold);

/// Process exit codes of `voprofctl bench-diff` (tested contract):
/// 0 = no significant change (or improvements without
///     --report-improvement, so a CI gate only fails on regressions),
/// 1 = at least one regression beyond the threshold, or a pair whose
///     checksums differ,
/// 2 = usage or input error (missing/malformed JSON),
/// 4 = improvements only, when --report-improvement was passed.
inline constexpr int kBenchDiffExitNeutral = 0;
inline constexpr int kBenchDiffExitRegression = 1;
inline constexpr int kBenchDiffExitError = 2;
inline constexpr int kBenchDiffExitImprovement = 4;

/// Exit code for a report under the CLI contract above.
[[nodiscard]] int bench_diff_exit_code(const BenchDiffReport& report,
                                       bool report_improvement) noexcept;

}  // namespace voprof::tools
