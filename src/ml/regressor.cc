#include "src/ml/regressor.h"

#include <algorithm>
#include <vector>

#include "src/common/check.h"
#include "src/ml/linear.h"
#include "src/ml/mlp.h"
#include "src/ml/random_forest.h"
#include "src/ml/svr.h"

namespace optum::ml {

void Regressor::PredictBatch(std::span<const double> rows, size_t stride,
                             std::span<double> out) const {
  OPTUM_CHECK_GT(stride, 0u);
  OPTUM_CHECK_GE(rows.size(), out.size() * stride);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = Predict(rows.subspan(i * stride, stride));
  }
}

void Regressor::PredictGrid(std::span<const double> base_row, size_t fx,
                            std::span<const double> xs, size_t fy,
                            std::span<const double> ys, std::span<double> out) const {
  const size_t width = base_row.size();
  OPTUM_CHECK(fx != fy && fx < width && fy < width);
  OPTUM_CHECK_EQ(out.size(), xs.size() * ys.size());
  std::vector<double> rows(out.size() * width);
  for (size_t i = 0; i < xs.size(); ++i) {
    for (size_t j = 0; j < ys.size(); ++j) {
      double* row = rows.data() + (i * ys.size() + j) * width;
      std::copy(base_row.begin(), base_row.end(), row);
      row[fx] = xs[i];
      row[fy] = ys[j];
    }
  }
  PredictBatch(rows, width, out);
}

const char* ToString(RegressorKind kind) {
  switch (kind) {
    case RegressorKind::kLinear:
      return "LR";
    case RegressorKind::kRidge:
      return "Ridge";
    case RegressorKind::kRandomForest:
      return "RF";
    case RegressorKind::kMlp:
      return "MLP";
    case RegressorKind::kSvr:
      return "SVR";
  }
  return "?";
}

std::unique_ptr<Regressor> MakeRegressor(const RegressorSpec& spec) {
  switch (spec.kind) {
    case RegressorKind::kLinear:
      return std::make_unique<LinearRegressor>();
    case RegressorKind::kRidge:
      return std::make_unique<RidgeRegressor>(spec.ridge_alpha);
    case RegressorKind::kRandomForest:
      return std::make_unique<RandomForestRegressor>(spec.forest, spec.seed);
    case RegressorKind::kMlp:
      return std::make_unique<MlpRegressor>(spec.mlp, spec.seed);
    case RegressorKind::kSvr:
      return std::make_unique<LinearSvr>(spec.svr, spec.seed);
  }
  OPTUM_CHECK_MSG(false, "unknown RegressorKind");
  return nullptr;
}

std::unique_ptr<Regressor> MakeRegressor(RegressorKind kind, uint64_t seed) {
  RegressorSpec spec;
  spec.kind = kind;
  spec.seed = seed;
  return MakeRegressor(spec);
}

}  // namespace optum::ml
