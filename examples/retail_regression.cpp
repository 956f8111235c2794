/// \file retail_regression.cpp
/// \brief Regression scenario (the paper's Merchant/Elo task, RMSE):
/// predicting a merchant loyalty score from transaction logs. Demonstrates
/// FeatAug on a non-classification task plus CSV export of the augmented
/// training table for downstream tooling.
///
///   ./retail_regression [output.csv]

#include <cstdio>

#include "core/augmenter.h"
#include "data/synthetic.h"
#include "table/csv.h"

using namespace featlib;

int main(int argc, char** argv) {
  SyntheticOptions data_options;
  data_options.n_train = 1500;
  data_options.avg_logs_per_entity = 12;
  data_options.seed = 11;
  const DatasetBundle bundle = MakeMerchant(data_options);
  std::printf("Merchant scenario: %zu merchants, %zu transactions (regression)\n",
              bundle.training.num_rows(), bundle.relevant.num_rows());

  FeatAugOptions options;
  options.n_templates = 4;
  options.queries_per_template = 5;
  options.evaluator.model = ModelKind::kXgb;
  options.evaluator.metric = MetricKind::kRmse;
  options.seed = 23;

  FeatAug feataug(bundle.ToProblem(), options);
  auto plan = feataug.Fit();
  if (!plan.ok()) {
    std::fprintf(stderr, "Fit failed: %s\n", plan.status().ToString().c_str());
    return 1;
  }

  auto* evaluator = feataug.evaluator();
  const double baseline = evaluator->BaselineModelScore().value();
  const double augmented_rmse = evaluator->TestScore(plan.value().queries).value();
  std::printf("XGB RMSE: base features %.4f  ->  augmented %.4f\n", baseline,
              augmented_rmse);

  std::printf("\nTop queries:\n");
  const size_t show = std::min<size_t>(5, plan.value().queries.size());
  for (size_t i = 0; i < show; ++i) {
    std::printf("  [valid RMSE %.4f] %s\n", plan.value().valid_metrics[i],
                plan.value().queries[i].CacheKey().c_str());
  }

  // Compile the plan into a serving handle once; Transform is the repeated
  // cheap phase.
  auto fitted = feataug.MakeFitted(plan.value());
  if (!fitted.ok()) {
    std::fprintf(stderr, "MakeFitted failed: %s\n",
                 fitted.status().ToString().c_str());
    return 1;
  }
  auto augmented = fitted.value()->Transform(bundle.training);
  if (!augmented.ok()) {
    std::fprintf(stderr, "Transform failed: %s\n",
                 augmented.status().ToString().c_str());
    return 1;
  }
  const std::string path = argc > 1 ? argv[1] : "/tmp/merchant_augmented.csv";
  Status st = WriteCsv(augmented.value(), path);
  if (!st.ok()) {
    std::fprintf(stderr, "CSV export failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("\nAugmented table (%zu columns) written to %s\n",
              augmented.value().num_columns(), path.c_str());
  return 0;
}
