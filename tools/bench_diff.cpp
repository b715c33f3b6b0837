#include "bench_diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "voprof/util/assert.hpp"
#include "voprof/util/table.hpp"

namespace voprof::tools {

namespace {

/// One benchmark of a record.
struct BenchEntry {
  std::string name;
  double median_s = 0.0;
  std::optional<double> checksum;  ///< absent in older records
};

/// Every benchmark in a record, in document order. Validates the
/// voprof-bench-1 schema on the way.
std::vector<BenchEntry> entries(const util::Json& doc, const char* label) {
  const std::string who = std::string("bench-diff: ") + label;
  if (!doc.is_object()) {
    throw util::JsonError(who + ": document is not an object");
  }
  const util::Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "voprof-bench-1") {
    throw util::JsonError(who + ": missing or unsupported schema "
                                "(want \"voprof-bench-1\")");
  }
  std::vector<BenchEntry> out;
  for (const util::Json& b : doc.at("benchmarks").as_array()) {
    const std::string& name = b.at("name").as_string();
    const double median = b.at("wall_s").at("median").as_number();
    if (!(median > 0.0) || !std::isfinite(median)) {
      throw util::JsonError(who + ": benchmark \"" + name +
                            "\" has a non-positive median");
    }
    const util::Json* checksum = b.find("checksum");
    out.push_back(BenchEntry{
        name, median,
        checksum != nullptr ? std::optional(checksum->as_number())
                            : std::nullopt});
  }
  return out;
}

/// Text that round-trips a double, so two printed checksums differ
/// whenever the values do.
std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

bool BenchDiffReport::has_regression() const noexcept {
  return std::any_of(compared.begin(), compared.end(), [](const auto& c) {
    return c.verdict == BenchVerdict::kRegression;
  });
}

bool BenchDiffReport::has_improvement() const noexcept {
  return std::any_of(compared.begin(), compared.end(), [](const auto& c) {
    return c.verdict == BenchVerdict::kImprovement;
  });
}

bool BenchDiffReport::has_checksum_mismatch() const noexcept {
  return std::any_of(compared.begin(), compared.end(),
                     [](const auto& c) { return c.checksum_mismatch; });
}

BenchDiffReport bench_diff(const util::Json& baseline,
                           const util::Json& current, double threshold) {
  VOPROF_REQUIRE_MSG(threshold > 0.0 && threshold < 10.0,
                     "bench-diff threshold must be in (0, 10)");
  const auto base = entries(baseline, "baseline");
  const auto cur = entries(current, "current");

  BenchDiffReport report;
  for (const BenchEntry& now : cur) {
    const auto it =
        std::find_if(base.begin(), base.end(), [&now](const BenchEntry& b) {
          return b.name == now.name;
        });
    if (it == base.end()) {
      report.only_in_current.push_back(now.name);
      continue;
    }
    BenchComparison c;
    c.name = now.name;
    c.baseline_median_s = it->median_s;
    c.current_median_s = now.median_s;
    c.ratio = now.median_s / it->median_s;
    if (c.ratio > 1.0 + threshold) {
      c.verdict = BenchVerdict::kRegression;
    } else if (c.ratio < 1.0 - threshold) {
      c.verdict = BenchVerdict::kImprovement;
    }
    if (it->checksum && now.checksum) {
      c.baseline_checksum = *it->checksum;
      c.current_checksum = *now.checksum;
      c.checksum_mismatch = c.baseline_checksum != c.current_checksum;
    }
    report.compared.push_back(std::move(c));
  }
  for (const BenchEntry& was : base) {
    const bool in_cur =
        std::any_of(cur.begin(), cur.end(), [&was](const BenchEntry& c) {
          return c.name == was.name;
        });
    if (!in_cur) report.only_in_baseline.push_back(was.name);
  }
  return report;
}

BenchDiffReport bench_diff_files(const std::string& baseline,
                                 const std::string& current,
                                 double threshold) {
  const auto load = [](const std::string& path) {
    std::ifstream in(path);
    if (!in) {
      throw util::ContractViolation("bench-diff: cannot read " + path);
    }
    std::ostringstream text;
    text << in.rdbuf();
    return util::Json::parse(text.str());
  };
  return bench_diff(load(baseline), load(current), threshold);
}

std::string format_bench_diff(const BenchDiffReport& report,
                              double threshold) {
  std::string out;
  out += "bench-diff (threshold " +
         util::fmt(threshold * 100.0, 0) + "% on median wall time)\n";
  for (const auto& c : report.compared) {
    const char* tag = c.verdict == BenchVerdict::kRegression ? "REGRESSION"
                      : c.verdict == BenchVerdict::kImprovement
                          ? "improvement"
                          : "ok";
    out += "  " + c.name + ": " + util::fmt(c.baseline_median_s * 1e3, 3) +
           " ms -> " + util::fmt(c.current_median_s * 1e3, 3) + " ms (" +
           util::fmt(c.ratio, 3) + "x)  " + tag + "\n";
    if (c.checksum_mismatch) {
      out += "    CHECKSUM MISMATCH: " + exact(c.baseline_checksum) + " -> " +
             exact(c.current_checksum) + "\n";
    }
  }
  for (const auto& n : report.only_in_baseline) {
    out += "  " + n + ": only in baseline (skipped)\n";
  }
  for (const auto& n : report.only_in_current) {
    out += "  " + n + ": only in current (skipped)\n";
  }
  return out;
}

int bench_diff_exit_code(const BenchDiffReport& report,
                         bool report_improvement) noexcept {
  if (report.has_regression() || report.has_checksum_mismatch()) {
    return kBenchDiffExitRegression;
  }
  if (report_improvement && report.has_improvement()) {
    return kBenchDiffExitImprovement;
  }
  return kBenchDiffExitNeutral;
}

}  // namespace voprof::tools
