#pragma once
/// \file hetero_model.hpp
/// Heterogeneous-VM overhead model — the paper's stated future work
/// ("improving the model for estimating the resource utilization
/// overhead for different types of VMs with diverse configurations,
/// when they are co-located in a PM", Sec. VII).
///
/// Eq. (3) treats all VMs as one population: M_hat = a(sum M) +
/// alpha(N) o(sum M). With mixed VM configurations that is lossy — a
/// 2-VCPU guest at 150 % drives a different Dom0 control-plane
/// response than two 1-VCPU guests at 75 % each, because the response
/// is convex per VM. The typed model keeps one slope block per VM
/// *type*:
///
///   M_hat = a_0 + sum_t A_t * M^t + alpha(N) * o(sum_t M^t)
///
/// where M^t is the summed utilization of the type-t VMs, A_t a 4x4
/// slope block, a_0 a global intercept, and the alpha term is the
/// familiar co-location overhead on the grand total.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "voprof/core/overhead_model.hpp"

namespace voprof::model {

/// Per-type observation inside one row.
struct TypeObservation {
  UtilVec sum;    ///< summed utilization of the type's VMs
  int count = 0;  ///< how many VMs of this type
};

/// One heterogeneous observation.
struct HeteroRow {
  std::map<std::string, TypeObservation> types;
  UtilVec pm;
  double dom0_cpu = 0.0;
  double hyp_cpu = 0.0;

  [[nodiscard]] int total_vms() const noexcept;
  [[nodiscard]] UtilVec grand_sum() const noexcept;
};

class HeteroTrainingSet {
 public:
  void add(HeteroRow row);
  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] const std::vector<HeteroRow>& rows() const noexcept {
    return rows_;
  }
  /// All type names seen, sorted.
  [[nodiscard]] std::vector<std::string> type_names() const;

 private:
  std::vector<HeteroRow> rows_;
};

/// The typed model. Rows may omit types (treated as zero utilization of
/// that type).
class HeteroModel {
 public:
  HeteroModel() = default;

  [[nodiscard]] static HeteroModel fit(const HeteroTrainingSet& data,
                                       RegressionMethod method,
                                       std::uint64_t seed = 1234);

  /// Predict PM utilization for a mixed deployment.
  [[nodiscard]] UtilVec predict(
      const std::map<std::string, TypeObservation>& types) const;
  /// Sec. VI-A-style indirect PM CPU (measured guest CPU + predicted
  /// Dom0 + hypervisor).
  [[nodiscard]] double predict_pm_cpu_indirect(
      const std::map<std::string, TypeObservation>& types) const;
  [[nodiscard]] double predict_dom0_cpu(
      const std::map<std::string, TypeObservation>& types) const;
  [[nodiscard]] double predict_hyp_cpu(
      const std::map<std::string, TypeObservation>& types) const;

  [[nodiscard]] const std::vector<std::string>& types() const noexcept {
    return types_;
  }
  [[nodiscard]] bool trained() const noexcept { return trained_; }

  /// Fit quality of the PM-metric regressions (index by MetricIndex).
  [[nodiscard]] const LinearFit& fit_for(MetricIndex m) const;
  [[nodiscard]] const LinearFit& dom0_fit() const;
  [[nodiscard]] const LinearFit& hyp_fit() const;

 private:
  /// Feature vector: [M^t1(4), M^t2(4), ..., alpha, alpha*sum(4)].
  [[nodiscard]] std::vector<double> features(
      const std::map<std::string, TypeObservation>& types) const;
  [[nodiscard]] static std::vector<double> features_for(
      const std::vector<std::string>& type_order,
      const std::map<std::string, TypeObservation>& types);

  std::vector<std::string> types_;
  std::array<LinearFit, kMetricCount> pm_fits_;
  LinearFit dom0_fit_;
  LinearFit hyp_fit_;
  bool trained_ = false;
};

}  // namespace voprof::model
