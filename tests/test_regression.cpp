#include "voprof/core/regression.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "voprof/core/serialize.hpp"
#include "voprof/core/trainer.hpp"
#include "voprof/util/assert.hpp"
#include "voprof/util/stats.hpp"

namespace voprof::model {
namespace {

using util::Matrix;
using util::Rng;

/// Build y = 2 + 3*x1 - 0.5*x2 (+ noise) over a grid.
struct SyntheticData {
  Matrix x;
  std::vector<double> y;
};

SyntheticData make_plane(std::size_t n, double noise_sd, std::uint64_t seed) {
  Rng rng(seed);
  SyntheticData d{Matrix(n, 2), std::vector<double>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    const double x1 = rng.uniform(0, 100);
    const double x2 = rng.uniform(0, 50);
    d.x(i, 0) = x1;
    d.x(i, 1) = x2;
    d.y[i] = 2.0 + 3.0 * x1 - 0.5 * x2 +
             (noise_sd > 0 ? rng.gaussian(0.0, noise_sd) : 0.0);
  }
  return d;
}

TEST(LinearFit, PredictUsesInterceptAndSlopes) {
  LinearFit f;
  f.coef = {1.0, 2.0, -1.0};
  const std::vector<double> x = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(f.predict(x), 1.0 + 6.0 - 4.0);
  EXPECT_THROW((void)f.predict(std::vector<double>{1.0}),
               util::ContractViolation);
}

TEST(Ols, RecoversExactPlane) {
  const SyntheticData d = make_plane(50, 0.0, 1);
  const LinearFit f = fit_ols(d.x, d.y);
  ASSERT_EQ(f.coef.size(), 3u);
  EXPECT_NEAR(f.coef[0], 2.0, 1e-8);
  EXPECT_NEAR(f.coef[1], 3.0, 1e-10);
  EXPECT_NEAR(f.coef[2], -0.5, 1e-10);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(f.residual_rms, 0.0, 1e-8);
}

TEST(Ols, RecoversNoisyPlane) {
  const SyntheticData d = make_plane(2000, 1.0, 2);
  const LinearFit f = fit_ols(d.x, d.y);
  EXPECT_NEAR(f.coef[0], 2.0, 0.25);
  EXPECT_NEAR(f.coef[1], 3.0, 0.01);
  EXPECT_NEAR(f.coef[2], -0.5, 0.01);
  EXPECT_GT(f.r_squared, 0.99);
  EXPECT_NEAR(f.residual_rms, 1.0, 0.1);
}

TEST(Ols, RejectsTooFewRows) {
  Matrix x(2, 2);
  EXPECT_THROW((void)fit_ols(x, std::vector<double>{1.0, 2.0}),
               util::ContractViolation);
}

TEST(Ols, RejectsSizeMismatch) {
  Matrix x(5, 1);
  EXPECT_THROW((void)fit_ols(x, std::vector<double>{1.0}),
               util::ContractViolation);
}

TEST(Wls, EqualWeightsMatchOls) {
  const SyntheticData d = make_plane(100, 0.5, 3);
  const std::vector<double> w(100, 1.0);
  const LinearFit a = fit_ols(d.x, d.y);
  const LinearFit b = fit_wls(d.x, d.y, w);
  for (std::size_t i = 0; i < a.coef.size(); ++i) {
    EXPECT_NEAR(a.coef[i], b.coef[i], 1e-9);
  }
}

TEST(Wls, ZeroWeightIgnoresRow) {
  // One wild outlier with zero weight must not affect the fit.
  SyntheticData d = make_plane(50, 0.0, 4);
  d.y[0] += 1e6;
  std::vector<double> w(50, 1.0);
  w[0] = 0.0;
  const LinearFit f = fit_wls(d.x, d.y, w);
  EXPECT_NEAR(f.coef[1], 3.0, 1e-8);
}

TEST(Wls, RejectsNegativeWeight) {
  const SyntheticData d = make_plane(20, 0.0, 5);
  std::vector<double> w(20, 1.0);
  w[3] = -1.0;
  EXPECT_THROW((void)fit_wls(d.x, d.y, w), util::ContractViolation);
}

TEST(Lms, MatchesOlsOnCleanData) {
  const SyntheticData d = make_plane(200, 0.2, 6);
  Rng rng(7);
  const LinearFit f = fit_lms(d.x, d.y, rng);
  EXPECT_NEAR(f.coef[0], 2.0, 0.2);
  EXPECT_NEAR(f.coef[1], 3.0, 0.01);
  EXPECT_NEAR(f.coef[2], -0.5, 0.02);
}

TEST(Lms, RobustToThirtyPercentOutliers) {
  // The key property of Rousseeuw's estimator (paper ref [24]): OLS
  // breaks under gross contamination, LMS does not.
  SyntheticData d = make_plane(300, 0.2, 8);
  Rng corrupt(9);
  for (std::size_t i = 0; i < 90; ++i) {
    const auto idx = static_cast<std::size_t>(corrupt.uniform_int(300));
    d.y[idx] = corrupt.uniform(2000.0, 4000.0);
  }
  const LinearFit ols = fit_ols(d.x, d.y);
  Rng rng(10);
  const LinearFit lms = fit_lms(d.x, d.y, rng);
  // OLS slope is dragged far away; LMS stays within a few percent.
  EXPECT_GT(std::abs(ols.coef[1] - 3.0), 0.5);
  EXPECT_NEAR(lms.coef[1], 3.0, 0.1);
  EXPECT_NEAR(lms.coef[2], -0.5, 0.1);
}

TEST(Lms, DeterministicGivenRngState) {
  const SyntheticData d = make_plane(100, 0.3, 11);
  Rng r1(42), r2(42);
  const LinearFit a = fit_lms(d.x, d.y, r1);
  const LinearFit b = fit_lms(d.x, d.y, r2);
  for (std::size_t i = 0; i < a.coef.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.coef[i], b.coef[i]);
  }
}

TEST(Lms, RejectsTooFewRows) {
  Matrix x(4, 2);
  std::vector<double> y(4, 1.0);
  Rng rng(1);
  EXPECT_THROW((void)fit_lms(x, y, rng), util::ContractViolation);
}

TEST(Lqs, HigherQuantileCoversMoreOfTheData) {
  // Data whose majority (60 %) follows one line and whose minority
  // (40 %) follows a parallel line offset by +50. Median LMS fits the
  // majority exactly; LQS at q=0.85 must account for 85 % of points
  // and lands between the two populations.
  Rng gen(3);
  Matrix x(500, 1);
  std::vector<double> y(500);
  for (std::size_t i = 0; i < 500; ++i) {
    const double xi = gen.uniform(0, 100);
    x(i, 0) = xi;
    y[i] = 2.0 * xi + (i % 5 < 2 ? 50.0 : 0.0) + gen.gaussian(0, 0.1);
  }
  LmsConfig median_cfg;
  LmsConfig lqs_cfg;
  lqs_cfg.quantile = 0.85;
  Rng r1(7), r2(7);
  const LinearFit median = fit_lms(x, y, r1, median_cfg);
  const LinearFit lqs = fit_lms(x, y, r2, lqs_cfg);
  // Median fit hugs the majority line (intercept ~0)...
  EXPECT_NEAR(median.coef[0], 0.0, 2.0);
  // ...while the 85 %-quantile fit must sit above it to cover the
  // minority population too.
  EXPECT_GT(lqs.coef[0], median.coef[0] + 5.0);
  EXPECT_NEAR(lqs.coef[1], 2.0, 0.2);  // slope shared by both groups
}

TEST(Lqs, QuantileValidated) {
  const SyntheticData d = make_plane(100, 0.1, 21);
  Rng rng(1);
  LmsConfig bad;
  bad.quantile = 0.3;
  EXPECT_THROW((void)fit_lms(d.x, d.y, rng, bad), util::ContractViolation);
  bad.quantile = 1.5;
  EXPECT_THROW((void)fit_lms(d.x, d.y, rng, bad), util::ContractViolation);
}

TEST(Lqs, ModelFitConfigUsesDocumentedQuantile) {
  EXPECT_DOUBLE_EQ(model_fit_config().quantile, kModelFitQuantile);
  EXPECT_GT(kModelFitQuantile, 0.5);
}

TEST(Fit, DispatchesOnMethod) {
  const SyntheticData d = make_plane(100, 0.1, 12);
  const LinearFit ols = fit(RegressionMethod::kOls, d.x, d.y);
  const LinearFit lms = fit(RegressionMethod::kLms, d.x, d.y, 55);
  EXPECT_NEAR(ols.coef[1], 3.0, 0.01);
  EXPECT_NEAR(lms.coef[1], 3.0, 0.02);
}

TEST(Residuals, ZeroForPerfectFit) {
  const SyntheticData d = make_plane(30, 0.0, 13);
  const LinearFit f = fit_ols(d.x, d.y);
  for (double r : residuals(f, d.x, d.y)) EXPECT_NEAR(r, 0.0, 1e-7);
}

// ------------------------------------------------------ exactness oracle
// fit_lms selects its quantile in place and solves each elemental system
// in reused buffers. The reference below is the straightforward form it
// replaced: allocate per subset, detect singular draws by catching the
// throw, and copy-and-sort every squared-residual vector. Both must give
// the same bits.

double sorted_percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return v.front();
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

LinearFit reference_lms(const Matrix& x, const std::vector<double>& y,
                        Rng& rng, const LmsConfig& config) {
  const std::size_t n = x.rows();
  const std::size_t p = x.cols() + 1;
  Matrix d(n, p);
  for (std::size_t r = 0; r < n; ++r) {
    d(r, 0) = 1.0;
    for (std::size_t c = 0; c < x.cols(); ++c) d(r, c + 1) = x(r, c);
  }
  std::vector<double> best_coef;
  double best_median = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> idx(p);
  for (int trial = 0; trial < config.subsets; ++trial) {
    for (std::size_t k = 0; k < p; ++k) {
      for (;;) {
        const auto cand = static_cast<std::size_t>(rng.uniform_int(n));
        if (std::find(idx.begin(), idx.begin() + static_cast<long>(k),
                      cand) == idx.begin() + static_cast<long>(k)) {
          idx[k] = cand;
          break;
        }
      }
    }
    Matrix a(p, p);
    std::vector<double> b(p);
    for (std::size_t r = 0; r < p; ++r) {
      for (std::size_t c = 0; c < p; ++c) a(r, c) = d(idx[r], c);
      b[r] = y[idx[r]];
    }
    std::vector<double> coef;
    try {
      coef = util::solve_linear(std::move(a), std::move(b));
    } catch (const util::ContractViolation&) {
      continue;
    }
    std::vector<double> sq(n);
    for (std::size_t r = 0; r < n; ++r) {
      double pred = 0.0;
      for (std::size_t c = 0; c < p; ++c) pred += d(r, c) * coef[c];
      const double res = y[r] - pred;
      sq[r] = res * res;
    }
    const double med = sorted_percentile(sq, config.quantile * 100.0);
    if (med < best_median) {
      best_median = med;
      best_coef = std::move(coef);
    }
  }
  if (best_coef.empty()) {
    throw util::ContractViolation("all elemental subsets degenerate");
  }
  const double sigma = 1.4826 * (1.0 + 5.0 / static_cast<double>(n - p)) *
                       std::sqrt(best_median);
  const double cutoff = config.inlier_sigma * std::max(sigma, 1e-12);
  std::vector<double> w(n, 0.0);
  std::size_t inliers = 0;
  for (std::size_t r = 0; r < n; ++r) {
    double pred = 0.0;
    for (std::size_t c = 0; c < p; ++c) pred += d(r, c) * best_coef[c];
    if (std::abs(y[r] - pred) <= cutoff) {
      w[r] = 1.0;
      ++inliers;
    }
  }
  if (inliers >= 2 * p) return fit_wls(x, y, w);
  LinearFit f;
  f.coef = std::move(best_coef);
  double ss_res = 0.0;
  for (double r : residuals(f, x, y)) ss_res += r * r;
  f.residual_rms = std::sqrt(ss_res / static_cast<double>(n));
  const double ybar = util::mean(y);
  double ss_tot = 0.0;
  for (double v : y) ss_tot += (v - ybar) * (v - ybar);
  f.r_squared = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return f;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bit_equal(const LinearFit& got, const LinearFit& want) {
  ASSERT_EQ(got.coef.size(), want.coef.size());
  for (std::size_t i = 0; i < got.coef.size(); ++i) {
    EXPECT_EQ(bits(got.coef[i]), bits(want.coef[i])) << "coef " << i;
  }
  EXPECT_EQ(bits(got.residual_rms), bits(want.residual_rms));
  EXPECT_EQ(bits(got.r_squared), bits(want.r_squared));
}

/// fit_lms and the reference from the same seed, at every quantile the
/// search supports the endpoints of.
void expect_matches_reference(const Matrix& x, const std::vector<double>& y,
                              std::uint64_t seed) {
  for (const double q : {0.5, 0.85, 1.0}) {
    SCOPED_TRACE(testing::Message() << "quantile " << q);
    LmsConfig cfg;
    cfg.quantile = q;
    Rng r1(seed), r2(seed);
    expect_bit_equal(fit_lms(x, y, r1, cfg), reference_lms(x, y, r2, cfg));
    // Both consumed the same draws.
    EXPECT_EQ(r1.uniform(), r2.uniform());
  }
}

TEST(LmsExact, MinimalRowCount) {
  // n = 2p, the smallest set fit_lms accepts.
  const SyntheticData d = make_plane(6, 0.5, 31);
  expect_matches_reference(d.x, d.y, 1);
}

TEST(LmsExact, ManySmallDataSets) {
  // Small sets make new best candidates whose objective only just beats
  // the previous one common, which is where an early stop that ends one
  // row too soon would show.
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    SyntheticData d = make_plane(6 + seed % 9, 5.0, 100 + seed);
    d.y[seed % 6] += 80.0;
    expect_matches_reference(d.x, d.y, seed);
  }
}

TEST(LmsExact, LargeNoisyDataWithOutliers) {
  SyntheticData d = make_plane(5000, 1.0, 32);
  Rng corrupt(33);
  for (std::size_t i = 0; i < 1000; ++i) {
    d.y[static_cast<std::size_t>(corrupt.uniform_int(5000))] += 500.0;
  }
  expect_matches_reference(d.x, d.y, 2);
}

TEST(LmsExact, SingularDrawsFromDuplicatedRowsAndAConstantColumn) {
  // Every row appears three times and the second predictor is constant
  // on all but a few rows, so many elemental systems are singular.
  const SyntheticData base = make_plane(40, 0.3, 34);
  Matrix x(120, 2);
  std::vector<double> y(120);
  for (std::size_t i = 0; i < 120; ++i) {
    const std::size_t src = i % 40;
    x(i, 0) = base.x(src, 0);
    x(i, 1) = src < 4 ? base.x(src, 1) : 7.0;
    y[i] = base.y[src];
  }
  expect_matches_reference(x, y, 3);
}

TEST(LmsExact, AllDrawsSingularFailInBoth) {
  // A fully constant predictor is collinear with the intercept.
  Matrix x(30, 2);
  std::vector<double> y(30);
  for (std::size_t i = 0; i < 30; ++i) {
    x(i, 0) = static_cast<double>(i);
    x(i, 1) = 4.0;
    y[i] = 1.0 + 2.0 * static_cast<double>(i);
  }
  Rng r1(5), r2(5);
  EXPECT_THROW((void)fit_lms(x, y, r1), util::ContractViolation);
  EXPECT_THROW((void)reference_lms(x, y, r2, LmsConfig{}),
               util::ContractViolation);
}

TEST(LmsExact, TiedSquaredResiduals) {
  // Integer design with responses offset by exactly +-1 and +-2: most
  // candidate lines leave many equal squared residuals.
  Matrix x(200, 1);
  std::vector<double> y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    const auto xi = static_cast<double>(i % 20);
    x(i, 0) = xi;
    const double offset = (i % 4 == 0) ? 1.0 : (i % 4 == 1) ? -1.0
                          : (i % 4 == 2) ? 2.0 : -2.0;
    y[i] = 3.0 + 0.5 * xi + offset;
  }
  expect_matches_reference(x, y, 4);
}

TEST(LmsExact, FitModelsMatchesSeparateSingleVmFit) {
  // The single-VM model of Trainer::fit_models is the multi-VM model's
  // base; it must equal fitting the single-VM model on its own.
  TrainerConfig cfg;
  cfg.duration = util::seconds(5.0);
  cfg.seed = 11;
  const Trainer trainer(cfg);
  const TrainingSet data = trainer.collect();
  const TrainedModels got =
      Trainer::fit_models(data, RegressionMethod::kLms, cfg.seed);
  const SingleVmModel want = SingleVmModel::fit(
      data.with_vm_count(1), RegressionMethod::kLms, cfg.seed);
  const SingleVmModel& base = got.multi.base();
  const auto expect_same = [](const LinearFit& a, const LinearFit& b) {
    EXPECT_EQ(a.coef, b.coef);
    EXPECT_EQ(a.residual_rms, b.residual_rms);
    EXPECT_EQ(a.r_squared, b.r_squared);
  };
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    expect_same(base.fit_for(static_cast<MetricIndex>(m)),
                want.fit_for(static_cast<MetricIndex>(m)));
  }
  expect_same(base.dom0_cpu_fit(), want.dom0_cpu_fit());
  expect_same(base.hyp_cpu_fit(), want.hyp_cpu_fit());
}

/// Property sweep: R^2 decreases as noise grows.
class NoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(NoiseSweep, RSquaredReflectsNoise) {
  const double noise = GetParam();
  const SyntheticData d = make_plane(1000, noise, 17);
  const LinearFit f = fit_ols(d.x, d.y);
  // Signal variance is large (slope 3 over 0..100); even heavy noise
  // keeps R^2 bounded away from zero, but it must be monotone-ish.
  if (noise <= 0.1) {
    EXPECT_GT(f.r_squared, 0.9999);
  } else if (noise >= 50.0) {
    EXPECT_LT(f.r_squared, 0.9);
  }
  EXPECT_NEAR(f.residual_rms, noise, noise * 0.15 + 0.01);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, NoiseSweep,
                         ::testing::Values(0.0, 0.1, 1.0, 10.0, 50.0));

}  // namespace
}  // namespace voprof::model
