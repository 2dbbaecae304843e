#include "src/ml/random_forest.h"

#include <cmath>
#include <numeric>

#include "src/common/check.h"
#include "src/common/shard_crew.h"

namespace optum::ml {

RandomForestRegressor::RandomForestRegressor(ForestParams params, uint64_t seed)
    : params_(params), rng_(seed) {
  OPTUM_CHECK_GT(params_.num_trees, 0u);
}

void RandomForestRegressor::Fit(const Dataset& data) {
  ShardCrew caller_only(1);
  Fit(data, caller_only);
}

void RandomForestRegressor::Fit(const Dataset& data, ShardCrew& crew) {
  OPTUM_CHECK(!data.empty());
  TreeParams tree_params = params_.tree;
  if (tree_params.max_features == 0) {
    // Default to the classic ~d/3 heuristic for regression forests.
    tree_params.max_features =
        std::max<size_t>(1, static_cast<size_t>(std::ceil(data.num_features() / 3.0)));
  }

  // Every draw from rng_ happens here, serially and in one-tree-at-a-time
  // order (seed, then bootstrap, per tree), so tree t depends only on its own
  // draws and not on which lane fits it or when. Only the stream state each
  // bootstrap starts from is kept; the lane fitting tree t replays its draws
  // from that state, so the bootstrap is allocated, used and freed on that
  // lane alone and no buffer crosses threads.
  const size_t n = data.size();
  trees_.clear();
  std::vector<Rng> bootstrap_starts;
  for (size_t t = 0; t < params_.num_trees; ++t) {
    trees_.push_back(std::make_unique<DecisionTreeRegressor>(tree_params, rng_.NextU64()));
    if (params_.bootstrap) {
      bootstrap_starts.push_back(rng_);
      for (size_t i = 0; i < n; ++i) {
        rng_.NextBelow(n);
      }
    }
  }
  crew.ParallelFor(
      trees_.size(),
      [&](size_t t) {
        if (!params_.bootstrap) {
          trees_[t]->Fit(data);
          return;
        }
        Rng draws = bootstrap_starts[t];
        std::vector<size_t> indices(n);
        for (auto& idx : indices) {
          idx = draws.NextBelow(n);
        }
        trees_[t]->FitOnIndices(data, std::move(indices));
      },
      /*chunk=*/1);
  compiled_ = CompiledForest::Compile(
      *this, {.quantized_thresholds = params_.quantized_inference});
}

double RandomForestRegressor::Predict(std::span<const double> features) const {
  OPTUM_CHECK(!trees_.empty());
  // Quantized mode delegates to the compiled engine so Predict and
  // PredictBatch stay mutually bit-identical (the Regressor contract);
  // pointer descent remains the reference for the default exact mode.
  if (compiled_.quantized()) {
    return compiled_.Predict(features);
  }
  double acc = 0.0;
  for (const auto& tree : trees_) {
    acc += tree->Predict(features);
  }
  return acc / static_cast<double>(trees_.size());
}

void RandomForestRegressor::PredictBatch(std::span<const double> rows, size_t stride,
                                         std::span<double> out) const {
  OPTUM_CHECK(compiled_.compiled());
  compiled_.PredictBatch(rows, stride, out);
}

}  // namespace optum::ml
