// Common interface for the regression models compared in paper Fig. 18
// (RF, LR, Ridge, SVR, MLP) and used by Optum's Interference Profiler.
//
// The interface is batch-first: the scheduler scores ~300 candidate hosts
// per pod, so callers hand PredictBatch a whole row-major block and models
// amortize their per-call fixed costs across it (the same argument Resource
// Central makes for serving predictions at scheduler rates). Predict stays
// as the one-row convenience; PredictBatch defaults to looping it, so only
// models with a genuinely faster kernel (the compiled forest) override it.
#ifndef OPTUM_SRC_ML_REGRESSOR_H_
#define OPTUM_SRC_ML_REGRESSOR_H_

#include <memory>
#include <span>
#include <string>

#include "src/ml/dataset.h"
#include "src/ml/model_params.h"

namespace optum {
class ShardCrew;
}  // namespace optum

namespace optum::ml {

class Regressor {
 public:
  virtual ~Regressor() = default;

  // Fits the model to the dataset. Must be called before Predict.
  virtual void Fit(const Dataset& data) = 0;

  // Same, spreading independent parts of the fit over `crew`'s lanes; the
  // model is bit-identical to Fit(data) for every crew size. Models with
  // nothing to spread (all but the forest) ignore the crew.
  virtual void Fit(const Dataset& data, ShardCrew& /*crew*/) { Fit(data); }

  // Predicts the target for one feature vector.
  virtual double Predict(std::span<const double> features) const = 0;

  // Predicts out.size() rows stored row-major in `rows`: row i occupies
  // rows[i * stride, i * stride + stride) and its first num-features entries
  // are the model inputs (stride >= the feature count the model was fitted
  // on; rows.size() >= out.size() * stride). Writes one prediction per row
  // into `out`, bit-identical to calling Predict row by row.
  virtual void PredictBatch(std::span<const double> rows, size_t stride,
                            std::span<double> out) const;

  // Predicts the grid of rows that differ from `base_row` only in features
  // fx and fy: cell (i, j) sets feature fx to xs[i] and fy to ys[j] and is
  // written to out[i * ys.size() + j] (out.size() == xs.size() * ys.size(),
  // fx != fy, both < base_row.size(); the base row's own values at fx and fy
  // are ignored). xs and ys must be sorted ascending and NaN-free;
  // duplicates are allowed. Bit-identical to PredictBatch over those rows.
  // The default builds the rows and calls PredictBatch; the compiled forest
  // walks each tree once over the whole grid.
  virtual void PredictGrid(std::span<const double> base_row, size_t fx,
                           std::span<const double> xs, size_t fy,
                           std::span<const double> ys, std::span<double> out) const;

  virtual std::string name() const = 0;
};

enum class RegressorKind {
  kLinear,
  kRidge,
  kRandomForest,
  kMlp,
  kSvr,
};

const char* ToString(RegressorKind kind);

// Full model specification: family, seed, and per-family hyperparameter
// overrides (only the block matching `kind` is read). Sweeps and the
// profiler pass a spec instead of hard-coding hyperparameters at each
// construction site.
struct RegressorSpec {
  RegressorKind kind = RegressorKind::kRandomForest;
  // Controls every stochastic element (bootstrap, init weights).
  uint64_t seed = 1;
  double ridge_alpha = 1.0;  // kRidge only
  ForestParams forest;       // kRandomForest only
  MlpParams mlp;             // kMlp only
  SvrParams svr;             // kSvr only
};

std::unique_ptr<Regressor> MakeRegressor(const RegressorSpec& spec);

// Thin wrapper over the spec factory with default hyperparameters, kept for
// call sites that only choose a family (e.g. the fig18 bench).
std::unique_ptr<Regressor> MakeRegressor(RegressorKind kind, uint64_t seed);

}  // namespace optum::ml

#endif  // OPTUM_SRC_ML_REGRESSOR_H_
