#include "voprof/core/hetero_model.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "voprof/util/assert.hpp"

namespace voprof::model {

int HeteroRow::total_vms() const noexcept {
  int n = 0;
  for (const auto& [name, obs] : types) n += obs.count;
  return n;
}

UtilVec HeteroRow::grand_sum() const noexcept {
  UtilVec s;
  for (const auto& [name, obs] : types) s += obs.sum;
  return s;
}

void HeteroTrainingSet::add(HeteroRow row) {
  VOPROF_REQUIRE_MSG(!row.types.empty(), "hetero row needs at least one type");
  for (const auto& [name, obs] : row.types) {
    VOPROF_REQUIRE_MSG(obs.count >= 0, "negative VM count");
    VOPROF_REQUIRE_MSG(!name.empty(), "empty type name");
  }
  rows_.push_back(std::move(row));
}

std::vector<std::string> HeteroTrainingSet::type_names() const {
  std::set<std::string> names;
  for (const auto& r : rows_) {
    for (const auto& [name, obs] : r.types) names.insert(name);
  }
  return {names.begin(), names.end()};
}

std::vector<double> HeteroModel::features_for(
    const std::vector<std::string>& type_order,
    const std::map<std::string, TypeObservation>& types) {
  std::vector<double> x;
  x.reserve(type_order.size() * kMetricCount + 1 + kMetricCount);
  UtilVec grand;
  int total = 0;
  for (const auto& t : type_order) {
    UtilVec sum;
    const auto it = types.find(t);
    if (it != types.end()) {
      sum = it->second.sum;
      grand += it->second.sum;
      total += it->second.count;
    }
    const auto a = sum.to_array();
    x.insert(x.end(), a.begin(), a.end());
  }
  // Unknown types still contribute to the co-location term.
  for (const auto& [name, obs] : types) {
    if (std::find(type_order.begin(), type_order.end(), name) ==
        type_order.end()) {
      grand += obs.sum;
      total += obs.count;
    }
  }
  const double alpha = MultiVmModel::alpha(std::max(total, 1));
  x.push_back(alpha);
  const auto g = grand.to_array();
  for (double v : g) x.push_back(alpha * v);
  return x;
}

std::vector<double> HeteroModel::features(
    const std::map<std::string, TypeObservation>& types) const {
  return features_for(types_, types);
}

HeteroModel HeteroModel::fit(const HeteroTrainingSet& data,
                             RegressionMethod method, std::uint64_t seed) {
  HeteroModel m;
  m.types_ = data.type_names();
  VOPROF_REQUIRE_MSG(!m.types_.empty(), "no types in the training set");
  const std::size_t n_features =
      m.types_.size() * kMetricCount + 1 + kMetricCount;
  VOPROF_REQUIRE_MSG(data.size() >= 2 * (n_features + 1),
                     "too few observations for the typed model");

  util::Matrix x(data.size(), n_features);
  std::array<std::vector<double>, kMetricCount> pm_resp;
  for (auto& v : pm_resp) v.resize(data.size());
  std::vector<double> dom0_resp(data.size()), hyp_resp(data.size());
  for (std::size_t r = 0; r < data.size(); ++r) {
    const HeteroRow& row = data.rows()[r];
    const std::vector<double> f = features_for(m.types_, row.types);
    VOPROF_ASSERT(f.size() == n_features);
    for (std::size_t c = 0; c < n_features; ++c) x(r, c) = f[c];
    const auto pa = row.pm.to_array();
    for (std::size_t k = 0; k < kMetricCount; ++k) pm_resp[k][r] = pa[k];
    dom0_resp[r] = row.dom0_cpu;
    hyp_resp[r] = row.hyp_cpu;
  }
  for (std::size_t k = 0; k < kMetricCount; ++k) {
    m.pm_fits_[k] = model::fit(method, x, pm_resp[k], seed + k);
  }
  m.dom0_fit_ = model::fit(method, x, dom0_resp, seed + 8);
  m.hyp_fit_ = model::fit(method, x, hyp_resp, seed + 9);
  m.trained_ = true;
  return m;
}

UtilVec HeteroModel::predict(
    const std::map<std::string, TypeObservation>& types) const {
  VOPROF_REQUIRE_MSG(trained_, "HeteroModel used before fitting");
  const std::vector<double> f = features(types);
  std::array<double, kMetricCount> out{};
  for (std::size_t k = 0; k < kMetricCount; ++k) {
    out[k] = pm_fits_[k].predict(f);
  }
  return UtilVec::from_array(out);
}

double HeteroModel::predict_dom0_cpu(
    const std::map<std::string, TypeObservation>& types) const {
  VOPROF_REQUIRE(trained_);
  return dom0_fit_.predict(features(types));
}

double HeteroModel::predict_hyp_cpu(
    const std::map<std::string, TypeObservation>& types) const {
  VOPROF_REQUIRE(trained_);
  return hyp_fit_.predict(features(types));
}

double HeteroModel::predict_pm_cpu_indirect(
    const std::map<std::string, TypeObservation>& types) const {
  VOPROF_REQUIRE(trained_);
  double guest_cpu = 0.0;
  for (const auto& [name, obs] : types) guest_cpu += obs.sum.cpu;
  return guest_cpu + predict_dom0_cpu(types) + predict_hyp_cpu(types);
}

const LinearFit& HeteroModel::fit_for(MetricIndex m) const {
  VOPROF_REQUIRE(trained_);
  return pm_fits_[static_cast<std::size_t>(m)];
}

const LinearFit& HeteroModel::dom0_fit() const {
  VOPROF_REQUIRE(trained_);
  return dom0_fit_;
}

const LinearFit& HeteroModel::hyp_fit() const {
  VOPROF_REQUIRE(trained_);
  return hyp_fit_;
}

}  // namespace voprof::model
