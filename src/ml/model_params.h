// Hyperparameter structs for the regression model zoo. Kept in one
// dependency-free header so RegressorSpec (src/ml/regressor.h) can embed
// per-family overrides by value without pulling in the model headers.
#ifndef OPTUM_SRC_ML_MODEL_PARAMS_H_
#define OPTUM_SRC_ML_MODEL_PARAMS_H_

#include <cstddef>
#include <vector>

namespace optum::ml {

struct TreeParams {
  int max_depth = 12;
  size_t min_samples_leaf = 2;
  size_t min_samples_split = 4;
  // Number of candidate features examined per split; 0 = all features.
  size_t max_features = 0;
  // Candidate thresholds tried per feature (quantile grid); keeps training
  // O(n · candidates) per node instead of O(n log n) exhaustive scans.
  size_t num_thresholds = 16;
};

struct ForestParams {
  size_t num_trees = 30;
  TreeParams tree;
  // When true each tree trains on a bootstrap resample; otherwise all trees
  // see the full data (pure feature-subsampled ensemble).
  bool bootstrap = true;
};

struct MlpParams {
  std::vector<size_t> hidden = {32, 16};
  size_t epochs = 60;
  size_t batch_size = 32;
  double learning_rate = 1e-2;
  double l2 = 1e-5;
};

struct SvrParams {
  double epsilon = 0.01;  // insensitive-tube half-width
  double c = 1.0;         // inverse regularization strength
  size_t epochs = 40;
};

}  // namespace optum::ml

#endif  // OPTUM_SRC_ML_MODEL_PARAMS_H_
