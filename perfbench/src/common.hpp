#pragma once
/// \file common.hpp
/// Small pieces every part of the benchmark uses: its own clocks, the
/// percentile estimator with the ten-samples-beyond rule, and the
/// open-loop arrival schedule.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr std::int64_t kNsPerUs = 1'000;
inline constexpr std::int64_t kNsPerMs = 1'000'000;
inline constexpr std::int64_t kNsPerS = 1'000'000'000;

// --- Clocks -----------------------------------------------------------
// The benchmark measures voprof from outside, so it reads CLOCK_MONOTONIC
// in nanoseconds itself instead of the library's microsecond obs clock.

/// Monotonic wall clock in nanoseconds (the clock steady_clock uses).
[[nodiscard]] std::int64_t now_ns() noexcept;
/// CPU time of this process, all threads, in nanoseconds.
[[nodiscard]] std::int64_t process_cpu_ns() noexcept;
/// Sleep for `ns` nanoseconds; returns at once when ns <= 0.
void sleep_ns(std::int64_t ns) noexcept;
/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] int available_cpus() noexcept;

[[nodiscard]] inline double ns_to_ms(std::int64_t ns) noexcept {
  return static_cast<double>(ns) / static_cast<double>(kNsPerMs);
}
[[nodiscard]] inline double ns_to_s(std::int64_t ns) noexcept {
  return static_cast<double>(ns) / static_cast<double>(kNsPerS);
}

// --- Percentiles ------------------------------------------------------
// A percentile is reported only when at least kMinBeyond samples lie
// beyond it, so a tail figure never rests on a handful of samples.
inline constexpr std::size_t kMinBeyond = 10;

/// Linear-interpolation percentile (q in [0, 100]) of an unsorted
/// sample, computed as util::percentile does; 0 for an empty sample.
[[nodiscard]] double percentile(const std::vector<double>& sample, double q);
/// Samples lying strictly beyond percentile q's interpolation position
/// in a sample of n distinct values.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q) noexcept;
/// True when percentile q of n samples has >= kMinBeyond beyond it.
[[nodiscard]] bool percentile_supported(std::size_t n, double q) noexcept;
/// Highest of p99, p95, p90 and p50 that n samples support; 0 if none.
[[nodiscard]] double highest_supported_percentile(std::size_t n) noexcept;

// --- Schedules --------------------------------------------------------
/// Ascending send offsets in [0, duration_ns) of `count` arrivals of a
/// Poisson process conditioned on its count: i.i.d. uniform times,
/// sorted. Fixing the count gives every seed the same amount of work;
/// the same seed always gives the same schedule.
[[nodiscard]] std::vector<std::int64_t> poisson_schedule(
    std::uint64_t seed, std::size_t count, std::int64_t duration_ns);
/// A permutation of 0..n-1, deterministic in seed.
[[nodiscard]] std::vector<std::size_t> shuffled_indices(std::uint64_t seed,
                                                        std::size_t n);

}  // namespace perfbench
