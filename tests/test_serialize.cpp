#include "voprof/core/serialize.hpp"

#include <gtest/gtest.h>

#include "voprof/util/assert.hpp"
#include "voprof/util/rng.hpp"

namespace voprof::model {
namespace {

/// Small synthetic training set good enough to fit both models.
TrainingSet synthetic_data(std::uint64_t seed) {
  util::Rng rng(seed);
  TrainingSet data;
  for (int n : {1, 2, 4}) {
    for (int i = 0; i < 200; ++i) {
      TrainingRow r;
      r.n_vms = n;
      r.vm_sum = UtilVec{rng.uniform(0, 100.0 * n), rng.uniform(80, 150.0 * n),
                         rng.uniform(0, 90.0 * n), rng.uniform(0, 1280.0 * n)};
      const double alpha = n <= 1 ? 0.0 : n - 1.0;
      r.dom0_cpu = 16.8 + 0.05 * r.vm_sum.cpu + 0.0105 * r.vm_sum.bw +
                   alpha * 0.6 + rng.gaussian(0, 0.1);
      r.hyp_cpu = 3.0 + 0.04 * r.vm_sum.cpu + alpha * 0.3 +
                  rng.gaussian(0, 0.05);
      r.pm = UtilVec{r.vm_sum.cpu + r.dom0_cpu + r.hyp_cpu,
                     752.0 + r.vm_sum.mem, 18.8 + 2.05 * r.vm_sum.io,
                     2.0 + 1.001 * r.vm_sum.bw + alpha * 5.0};
      data.add(std::move(r));
    }
  }
  return data;
}

TEST(TrainingSetCsv, RoundTripPreservesRows) {
  const TrainingSet data = synthetic_data(1);
  const util::CsvDocument csv = training_set_to_csv(data);
  EXPECT_EQ(csv.row_count(), data.size());
  const TrainingSet back = training_set_from_csv(csv);
  ASSERT_EQ(back.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(back.rows()[i].n_vms, data.rows()[i].n_vms);
    EXPECT_DOUBLE_EQ(back.rows()[i].vm_sum.bw, data.rows()[i].vm_sum.bw);
    EXPECT_DOUBLE_EQ(back.rows()[i].pm.cpu, data.rows()[i].pm.cpu);
    EXPECT_DOUBLE_EQ(back.rows()[i].dom0_cpu, data.rows()[i].dom0_cpu);
    EXPECT_DOUBLE_EQ(back.rows()[i].hyp_cpu, data.rows()[i].hyp_cpu);
  }
}

TEST(TrainingSetCsv, RoundTripThroughText) {
  const TrainingSet data = synthetic_data(2);
  const std::string text = training_set_to_csv(data).str();
  const TrainingSet back = training_set_from_csv(
      util::CsvDocument::parse_string_result(text).take());
  EXPECT_EQ(back.size(), data.size());
  // Models fitted on both sides agree.
  const auto a = Trainer::fit_models(data, RegressionMethod::kOls);
  const auto b = Trainer::fit_models(back, RegressionMethod::kOls);
  const UtilVec probe{60, 120, 30, 600};
  EXPECT_NEAR(a.multi.predict(probe, 2).cpu, b.multi.predict(probe, 2).cpu,
              1e-9);
}

TEST(TrainingSetCsv, MissingColumnRejected) {
  util::CsvDocument csv({"n_vms", "vm_cpu"});
  csv.add_row({1.0, 50.0});
  EXPECT_THROW((void)training_set_from_csv(csv), util::ContractViolation);
}

class ModelSerialization : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    models_ = new TrainedModels(
        Trainer::fit_models(synthetic_data(3), RegressionMethod::kOls));
  }
  static void TearDownTestSuite() {
    delete models_;
    models_ = nullptr;
  }
  static TrainedModels* models_;
};

TrainedModels* ModelSerialization::models_ = nullptr;

TEST_F(ModelSerialization, RoundTripPreservesPredictions) {
  const std::string text = models_to_string(*models_);
  const TrainedModels back = models_from_string_result(text).take();
  ASSERT_TRUE(back.single.trained());
  ASSERT_TRUE(back.multi.trained());
  for (int n : {1, 2, 3, 4}) {
    const UtilVec probe{40.0 * n, 100.0 * n, 20.0 * n, 300.0 * n};
    const UtilVec a = models_->multi.predict(probe, n);
    const UtilVec b = back.multi.predict(probe, n);
    EXPECT_DOUBLE_EQ(a.cpu, b.cpu);
    EXPECT_DOUBLE_EQ(a.mem, b.mem);
    EXPECT_DOUBLE_EQ(a.io, b.io);
    EXPECT_DOUBLE_EQ(a.bw, b.bw);
    EXPECT_DOUBLE_EQ(models_->multi.predict_pm_cpu_indirect(probe, n),
                     back.multi.predict_pm_cpu_indirect(probe, n));
  }
}

TEST_F(ModelSerialization, RoundTripPreservesFitQuality) {
  const TrainedModels back =
      models_from_string_result(models_to_string(*models_)).take();
  const LinearFit& a = models_->single.fit_for(MetricIndex::kCpu);
  const LinearFit& b = back.single.fit_for(MetricIndex::kCpu);
  EXPECT_DOUBLE_EQ(a.residual_rms, b.residual_rms);
  EXPECT_DOUBLE_EQ(a.r_squared, b.r_squared);
}

TEST_F(ModelSerialization, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/voprof_models.txt";
  save_models_file(*models_, path);
  const TrainedModels back = load_models_file_result(path).take();
  const UtilVec probe{55, 150, 0, 1800};
  EXPECT_DOUBLE_EQ(models_->multi.predict(probe, 2).cpu,
                   back.multi.predict(probe, 2).cpu);
}

TEST_F(ModelSerialization, RejectsGarbage) {
  const auto code_of = [](const std::string& text) {
    const auto parsed = models_from_string_result(text);
    EXPECT_FALSE(parsed.ok());
    return parsed.ok() ? util::Errc::kInternal : parsed.error().code;
  };
  EXPECT_EQ(code_of(""), util::Errc::kParse);
  EXPECT_EQ(code_of("not-a-model\n"), util::Errc::kUnsupported);
  // Truncate mid-file.
  std::string text = models_to_string(*models_);
  text.resize(text.size() / 2);
  EXPECT_EQ(code_of(text), util::Errc::kParse);
}

TEST_F(ModelSerialization, UntrainedModelsRejected) {
  TrainedModels empty;
  EXPECT_THROW((void)models_to_string(empty), util::ContractViolation);
}

TEST_F(ModelSerialization, MissingFileRejected) {
  const auto loaded = load_models_file_result("/nonexistent/voprof.txt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, util::Errc::kIo);
}

// ------------------------------------------------------- typed model
HeteroTrainingSet hetero_synthetic(std::uint64_t seed) {
  util::Rng rng(seed);
  HeteroTrainingSet data;
  const std::vector<std::vector<int>> mixes = {{1, 0}, {0, 1}, {1, 1},
                                               {2, 1}};
  for (const auto& mix : mixes) {
    for (int i = 0; i < 120; ++i) {
      HeteroRow r;
      UtilVec grand;
      int total = 0;
      double pm_cpu = 20.0;
      const char* names[] = {"A", "B"};
      const double slope[] = {1.2, 1.5};
      for (int t = 0; t < 2; ++t) {
        if (mix[static_cast<std::size_t>(t)] == 0) continue;
        const int n = mix[static_cast<std::size_t>(t)];
        TypeObservation obs;
        obs.count = n;
        obs.sum = UtilVec{rng.uniform(0, 100.0 * n), rng.uniform(80, 150.0 * n),
                          rng.uniform(0, 90.0 * n), rng.uniform(0, 600.0 * n)};
        pm_cpu += slope[t] * obs.sum.cpu + 0.01 * obs.sum.bw;
        grand += obs.sum;
        total += n;
        r.types[names[t]] = obs;
      }
      const double alpha = MultiVmModel::alpha(total);
      pm_cpu += alpha * 1.0;
      r.pm = UtilVec{pm_cpu, 752 + grand.mem, 18.8 + 2.05 * grand.io,
                     2.0 + grand.bw};
      r.dom0_cpu = 16.8 + 0.05 * grand.cpu;
      r.hyp_cpu = 3.0 + 0.03 * grand.cpu;
      data.add(std::move(r));
    }
  }
  return data;
}

TEST(HeteroSerialization, RoundTripPreservesPredictions) {
  const HeteroModel m =
      HeteroModel::fit(hetero_synthetic(7), RegressionMethod::kOls);
  const HeteroModel back =
      hetero_model_from_string(hetero_model_to_string(m));
  ASSERT_TRUE(back.trained());
  EXPECT_EQ(back.types(), m.types());
  std::map<std::string, TypeObservation> probe;
  TypeObservation a;
  a.count = 2;
  a.sum = UtilVec{120, 200, 30, 400};
  probe["A"] = a;
  TypeObservation b;
  b.count = 1;
  b.sum = UtilVec{150, 110, 50, 100};
  probe["B"] = b;
  EXPECT_DOUBLE_EQ(m.predict(probe).cpu, back.predict(probe).cpu);
  EXPECT_DOUBLE_EQ(m.predict_pm_cpu_indirect(probe),
                   back.predict_pm_cpu_indirect(probe));
}

TEST(HeteroSerialization, RejectsGarbage) {
  EXPECT_THROW((void)hetero_model_from_string(""), util::ContractViolation);
  EXPECT_THROW((void)hetero_model_from_string("wrong-header\n"),
               util::ContractViolation);
  const HeteroModel m =
      HeteroModel::fit(hetero_synthetic(8), RegressionMethod::kOls);
  std::string text = hetero_model_to_string(m);
  text.resize(text.size() * 2 / 3);
  EXPECT_THROW((void)hetero_model_from_string(text),
               util::ContractViolation);
  HeteroModel untrained;
  EXPECT_THROW((void)hetero_model_to_string(untrained),
               util::ContractViolation);
}

}  // namespace
}  // namespace voprof::model
