// Compiled-forest inference engine: flattens a trained RandomForestRegressor
// into contiguous structure-of-arrays node layouts and evaluates blocks of
// rows with the node arrays hot in cache. The exact (double) layout is
// bit-identical to the pointer-tree forest (see DESIGN.md §10), so swapping
// it onto the scoring hot path cannot perturb placements, lane-sharded
// caches, or parallel determinism. A second, quantized layout stores
// float32 thresholds (and 16-bit right-child links when every tree fits)
// for a ~40% smaller descent footprint at the cost of possible descent
// flips on threshold-straddling rows — selected via Options /
// ForestParams::quantized_inference and pinned by a tolerance test, never
// by bit-identity.
//
// Layout: all trees' nodes live in parallel arrays, emitted per tree in
// preorder so an internal node's left child is the next node. Leaves are
// made self-looping — feature 0, a NaN threshold (every comparison is
// false), and a right link pointing at the node itself — so the descent
// step `node = row[f] <= thresh ? node + 1 : right[node]` is a no-op at a
// leaf. That lets PredictBatch interleave the descents of kInterleave rows
// per tree with no per-lane leaf branching: lanes that reach their leaf
// simply idle in place while the others keep descending, the independent
// feature/threshold/right loads of all lanes overlap (the single-row
// load-to-load dependency chain no longer serializes the core), and the
// per-level compare/select across lanes is a fixed-trip-count loop the
// compiler can vectorize. Leaf values live in a separate array read once
// per (row, tree) after descent.
#ifndef OPTUM_SRC_ML_COMPILED_FOREST_H_
#define OPTUM_SRC_ML_COMPILED_FOREST_H_

#include <cstdint>
#include <vector>

#include "src/ml/regressor.h"

namespace optum::ml {

class RandomForestRegressor;

class CompiledForest final : public Regressor {
 public:
  struct Options {
    // Store thresholds as float32 and right-child links as tree-relative
    // uint16 (when every tree has < 65536 nodes). Descent compares
    // row[f] <= double(float(threshold)) — the promotion is exact, so a row
    // flips branches only when it lies between a threshold and that
    // threshold's float rounding; leaf values stay double and accumulate in
    // the same order, so the error of a flip is bounded by
    // (leaf spread) / num_trees per flipped tree.
    bool quantized_thresholds = false;
    // Testing escape hatch: keep 32-bit absolute links even when 16-bit
    // ones would fit, so the wide-link quantized kernel stays covered.
    bool force_wide_links = false;
  };

  // Empty engine; Predict/PredictBatch require a Compile()d one.
  CompiledForest() = default;

  // Flattens a fitted forest. The compiled engine is self-contained: the
  // source forest may be destroyed afterwards. The one-argument overload
  // compiles the default exact layout.
  static CompiledForest Compile(const RandomForestRegressor& forest);
  static CompiledForest Compile(const RandomForestRegressor& forest,
                                const Options& options);

  // Inference-only engine: Fit always CHECK-fails. Train a
  // RandomForestRegressor and Compile() it instead.
  void Fit(const Dataset& data) override;

  double Predict(std::span<const double> features) const override;
  void PredictBatch(std::span<const double> rows, size_t stride,
                    std::span<double> out) const override;
  // Walks each tree once over the sorted grid: at a split on fx (fy) the
  // current x (y) index range is cut where the sorted values pass the
  // threshold, at any other split the base row picks the branch, and a leaf
  // adds its value to its whole rectangle of cells. Trees are walked in
  // order and every cell gets one leaf per tree, so each cell sums exactly
  // what PredictBatch sums for its row, in the same order. Both layouts.
  void PredictGrid(std::span<const double> base_row, size_t fx,
                   std::span<const double> xs, size_t fy, std::span<const double> ys,
                   std::span<double> out) const override;
  std::string name() const override {
    return quantized_ ? "RF(compiled,q32)" : "RF(compiled)";
  }

  bool compiled() const { return !roots_.empty(); }
  bool quantized() const { return quantized_; }
  // True when the quantized layout uses 16-bit tree-relative links.
  bool narrow_links() const { return !right16_.empty(); }
  size_t num_trees() const { return roots_.size(); }
  size_t num_nodes() const { return feature_.size(); }

 private:
  // Rows interleaved per descent kernel call: enough independent
  // feature/threshold/right load chains to cover L2 latency, small enough
  // that the lane state stays in registers. Tails of kHalfInterleave rows
  // still get an interleaved descent before the scalar fallback.
  static constexpr size_t kInterleave = 16;
  static constexpr size_t kHalfInterleave = kInterleave / 2;

  // Scalar descent from `root` for one row; returns the leaf node index.
  int32_t DescendExact(int32_t root, const double* row) const;
  int32_t DescendQuantized(int32_t root, const double* row) const;

  // The split at internal node n of the tree rooted at `root`: the layout's
  // threshold as compared against a row value, and the right child.
  double Threshold(int32_t n) const {
    return quantized_ ? static_cast<double>(qthresh_[static_cast<size_t>(n)])
                      : thresh_[static_cast<size_t>(n)];
  }
  int32_t Right(int32_t root, int32_t n) const {
    return narrow_links() ? root + right16_[static_cast<size_t>(n)]
                          : right_[static_cast<size_t>(n)];
  }

  // PredictGrid's walk of the subtree at `node` over cells [x0, x1) x [y0, y1).
  struct Grid;
  void WalkGrid(const Grid& grid, int32_t root, int32_t node, size_t x0, size_t x1,
                size_t y0, size_t y1) const;

  // Interleaved descent of W rows (row i at rows + i * stride) down the
  // tree at `root`, accumulating each row's leaf value into acc[i].
  // Instantiated for kInterleave and kHalfInterleave in the .cc.
  template <size_t W>
  void DescendExactBlock(int32_t root, const double* rows, size_t stride,
                         double* acc) const;
  template <size_t W>
  void DescendQuantizedBlock(int32_t root, const double* rows, size_t stride,
                             double* acc) const;

  // SoA node arrays across all trees (see file comment). Internal node n:
  // feature_[n] >= 0 is the split feature, thresh_/qthresh_[n] the
  // threshold, left child n + 1, right child right_[n] (absolute) or
  // roots_[t] + right16_[n] (tree-relative). Leaf n: feature_[n] = 0,
  // threshold NaN, right link = n (self-loop), value_[n] the leaf value.
  std::vector<int32_t> feature_;
  std::vector<double> thresh_;    // exact mode only
  std::vector<float> qthresh_;    // quantized mode only
  std::vector<int32_t> right_;    // exact mode, and quantized wide-link mode
  std::vector<uint16_t> right16_; // quantized narrow-link mode only
  std::vector<double> value_;
  std::vector<int32_t> roots_;  // root node index of each tree, in tree order
  bool quantized_ = false;
};

}  // namespace optum::ml

#endif  // OPTUM_SRC_ML_COMPILED_FOREST_H_
