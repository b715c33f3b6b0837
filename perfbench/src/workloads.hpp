#pragma once
/// \file workloads.hpp
/// The benchmark's three workloads (README.md says why each exists).
/// Each fills one Report with every metric it measures: the end-to-end
/// set, the figures under the names the benchmark was specified with,
/// and in a traced run the per-layer set; and says whether its outputs
/// verified.

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

struct BenchOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string root;     ///< absolute path of the checkout
  std::string voprofd;  ///< absolute path of the daemon binary
  std::string self;     ///< absolute path of this binary
  int nproc = 1;
};

struct RunResult {
  Report report;
  std::vector<std::string> notes;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

[[nodiscard]] RunResult run_predict_open(const BenchOptions& opt);
[[nodiscard]] RunResult run_mixed_serve(const BenchOptions& opt);
[[nodiscard]] RunResult run_offline_pipeline(const BenchOptions& opt);

/// Serve-layer metrics for a traced run that does not serve: a short
/// predict phase and the in-process, transport and cache-stall probes
/// against a freshly spawned voprofd. Returns the daemon's spans.
[[nodiscard]] std::vector<SpanRecord> serve_probe(const BenchOptions& opt,
                                                  Report& out);

/// Child mode behind offline_pipeline's setup_s: does the set-up a run
/// does before its first cell, prints "ready <now_ns>" and returns 0.
int offline_setup_probe(const BenchOptions& opt);

}  // namespace perfbench
