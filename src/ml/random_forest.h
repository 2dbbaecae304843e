// Bagged ensemble of regression trees with per-tree feature subsampling.
// ForestParams lives in model_params.h so RegressorSpec can embed it.
#ifndef OPTUM_SRC_ML_RANDOM_FOREST_H_
#define OPTUM_SRC_ML_RANDOM_FOREST_H_

#include <memory>
#include <vector>

#include "src/ml/compiled_forest.h"
#include "src/ml/decision_tree.h"
#include "src/ml/model_params.h"
#include "src/ml/regressor.h"
#include "src/stats/rng.h"

namespace optum::ml {

class RandomForestRegressor : public Regressor {
 public:
  explicit RandomForestRegressor(ForestParams params = {}, uint64_t seed = 1);

  // Fits one tree per ParallelFor index on `crew`; the one-argument
  // overload runs the same code on the caller alone. Bit-identical for
  // every crew size.
  void Fit(const Dataset& data) override;
  void Fit(const Dataset& data, ShardCrew& crew) override;

  // Row-at-a-time pointer-tree descent. Kept on the original node layout so
  // it doubles as the reference (and benchmark baseline) the compiled
  // engine's bit-identity is verified against.
  double Predict(std::span<const double> features) const override;

  // Served by the compiled SoA engine built at the end of Fit();
  // bit-identical to looping Predict but several times faster per row
  // (interleaved multi-row descent, see CompiledForest).
  void PredictBatch(std::span<const double> rows, size_t stride,
                    std::span<double> out) const override;
  // Also served by the compiled engine's one-walk-per-tree grid kernel.
  void PredictGrid(std::span<const double> base_row, size_t fx,
                   std::span<const double> xs, size_t fy, std::span<const double> ys,
                   std::span<double> out) const override;

  std::string name() const override { return "RF"; }

  size_t num_trees() const { return trees_.size(); }
  const DecisionTreeRegressor& tree(size_t i) const { return *trees_[i]; }
  const CompiledForest& compiled() const { return compiled_; }

 private:
  ForestParams params_;
  Rng rng_;
  std::vector<std::unique_ptr<DecisionTreeRegressor>> trees_;
  CompiledForest compiled_;
};

}  // namespace optum::ml

#endif  // OPTUM_SRC_ML_RANDOM_FOREST_H_
