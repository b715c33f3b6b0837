#include "common.hpp"

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <numeric>
#include <span>
#include <utility>

#include <sched.h>

#include "voprof/util/rng.hpp"
#include "voprof/util/stats.hpp"

namespace perfbench {

namespace {

std::int64_t read_clock(clockid_t id) noexcept {
  timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * kNsPerS + ts.tv_nsec;
}

}  // namespace

std::int64_t now_ns() noexcept { return read_clock(CLOCK_MONOTONIC); }

std::int64_t process_cpu_ns() noexcept {
  return read_clock(CLOCK_PROCESS_CPUTIME_ID);
}

void sleep_ns(std::int64_t ns) noexcept {
  if (ns <= 0) return;
  timespec ts{static_cast<time_t>(ns / kNsPerS),
              static_cast<long>(ns % kNsPerS)};
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

int available_cpus() noexcept {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double percentile(const std::vector<double>& sample, double q) {
  if (sample.empty()) return 0.0;
  return voprof::util::percentile(std::span<const double>(sample), q);
}

std::size_t samples_beyond(std::size_t n, double q) noexcept {
  if (n == 0) return 0;
  // util::percentile interpolates between the sorted samples at
  // floor(pos) and floor(pos) + 1; every sample after floor(pos) lies
  // beyond the estimate.
  const double pos = q / 100.0 * static_cast<double>(n - 1);
  const auto below = static_cast<std::size_t>(pos);
  return n - 1 - std::min(below, n - 1);
}

bool percentile_supported(std::size_t n, double q) noexcept {
  return samples_beyond(n, q) >= kMinBeyond;
}

double highest_supported_percentile(std::size_t n) noexcept {
  for (const double q : {99.0, 95.0, 90.0, 50.0}) {
    if (percentile_supported(n, q)) return q;
  }
  return 0.0;
}

std::vector<std::int64_t> poisson_schedule(std::uint64_t seed,
                                           std::size_t count,
                                           std::int64_t duration_ns) {
  voprof::util::Rng rng(seed);
  std::vector<std::int64_t> due(count);
  for (std::int64_t& t : due) {
    t = static_cast<std::int64_t>(rng.uniform() *
                                  static_cast<double>(duration_ns));
  }
  std::sort(due.begin(), due.end());
  return due;
}

std::vector<std::size_t> shuffled_indices(std::uint64_t seed, std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  voprof::util::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(rng.uniform_int(i))]);
  }
  return order;
}

}  // namespace perfbench
