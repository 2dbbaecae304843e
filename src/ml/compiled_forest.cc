#include "src/ml/compiled_forest.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/ml/random_forest.h"

namespace optum::ml {

namespace {

// Rows evaluated per inner block of PredictBatch: small enough that the
// rows and per-row accumulators stay in L1 while one tree's nodes stream
// through, large enough to amortize the per-tree loop overhead.
constexpr size_t kRowBlock = 64;

constexpr double kLeafThreshold = std::numeric_limits<double>::quiet_NaN();

}  // namespace

CompiledForest CompiledForest::Compile(const RandomForestRegressor& forest) {
  OPTUM_CHECK_GT(forest.num_trees(), 0u);
  CompiledForest out;
  size_t total_nodes = 0;
  for (size_t t = 0; t < forest.num_trees(); ++t) {
    total_nodes += forest.tree(t).node_count();
  }
  out.feature_.reserve(total_nodes);
  out.thresh_.reserve(total_nodes);
  out.right_.reserve(total_nodes);
  out.value_.reserve(total_nodes);
  out.roots_.reserve(forest.num_trees());

  for (size_t t = 0; t < forest.num_trees(); ++t) {
    const std::span<const DecisionTreeRegressor::Node> nodes = forest.tree(t).nodes();
    OPTUM_CHECK(!nodes.empty());
    const int32_t base = static_cast<int32_t>(out.feature_.size());
    out.roots_.push_back(base);
    // Trees are already stored in preorder (left child == own index + 1), so
    // flattening is a relabeled copy; the invariant is asserted below because
    // descent relies on it.
    for (size_t i = 0; i < nodes.size(); ++i) {
      const DecisionTreeRegressor::Node& n = nodes[i];
      const bool leaf = n.feature < 0;
      if (!leaf) {
        OPTUM_CHECK_EQ(static_cast<size_t>(n.left), i + 1);
        OPTUM_CHECK_GT(n.right, n.left);
        OPTUM_CHECK_LT(static_cast<size_t>(n.right), nodes.size());
      }
      // Leaves self-loop: feature 0, NaN threshold (compares false, so the
      // descent step goes right), right link = own index. See file comment.
      out.feature_.push_back(leaf ? 0 : n.feature);
      out.value_.push_back(leaf ? n.value : 0.0);
      out.thresh_.push_back(leaf ? kLeafThreshold : n.threshold);
      out.right_.push_back(base + (leaf ? static_cast<int32_t>(i) : n.right));
    }
  }
  return out;
}

void CompiledForest::Fit(const Dataset& data) {
  (void)data;
  OPTUM_CHECK_MSG(false,
                  "CompiledForest is inference-only; Fit a RandomForestRegressor "
                  "and Compile() it");
}

int32_t CompiledForest::DescendExact(int32_t root, const double* row) const {
  int32_t node = root;
  for (;;) {
    const int32_t r = right_[static_cast<size_t>(node)];
    if (r == node) {
      return node;  // leaf (self-loop)
    }
    // Identical comparison to the pointer tree: NaN features compare false
    // and take the right branch.
    const bool go_left =
        row[feature_[static_cast<size_t>(node)]] <= thresh_[static_cast<size_t>(node)];
    node = go_left ? node + 1 : r;
  }
}

// The interleaved kernel: W lanes descend one tree in lockstep, one level
// per iteration. Per level each lane issues independent
// feature/threshold/right loads (the gather loop), then a fixed-trip
// compare/select loop the compiler can vectorize picks each lane's next
// node. Lanes at a leaf self-loop (NaN threshold compares
// false, right link points at the node itself), so no per-lane exit
// branching is needed; the level loop ends when no lane moved. Descending
// an already-finished lane costs only re-loads of its (L1-hot) leaf entry.
template <size_t W>
void CompiledForest::DescendExactBlock(int32_t root, const double* rows,
                                       size_t stride, double* acc) const {
  const int32_t* const feat = feature_.data();
  const double* const th = thresh_.data();
  const int32_t* const rt = right_.data();
  int32_t node[W];
  for (size_t l = 0; l < W; ++l) {
    node[l] = root;
  }
  for (int32_t moved = 1; moved != 0;) {
    double x[W];
    double t[W];
    int32_t right_next[W];
    for (size_t l = 0; l < W; ++l) {
      const int32_t n = node[l];
      x[l] = rows[l * stride + static_cast<size_t>(feat[n])];
      t[l] = th[n];
      right_next[l] = rt[n];
    }
    moved = 0;
    for (size_t l = 0; l < W; ++l) {
      // Mask select, not ?:, so the compiler cannot lower the data-dependent
      // pick into a branch — tree descent branches are ~coin flips, and one
      // mispredict costs more than a whole level of this loop.
      const int32_t take_left = -static_cast<int32_t>(x[l] <= t[l]);
      const int32_t next =
          ((node[l] + 1) & take_left) | (right_next[l] & ~take_left);
      moved |= next ^ node[l];
      node[l] = next;
    }
  }
  for (size_t l = 0; l < W; ++l) {
    acc[l] += value_[static_cast<size_t>(node[l])];
  }
}

double CompiledForest::Predict(std::span<const double> features) const {
  OPTUM_CHECK(compiled());
  double acc = 0.0;
  for (const int32_t root : roots_) {
    acc += value_[static_cast<size_t>(DescendExact(root, features.data()))];
  }
  return acc / static_cast<double>(roots_.size());
}

void CompiledForest::PredictBatch(std::span<const double> rows, size_t stride,
                                  std::span<double> out) const {
  OPTUM_CHECK(compiled());
  OPTUM_CHECK_GT(stride, 0u);
  OPTUM_CHECK_GE(rows.size(), out.size() * stride);
  std::array<double, kRowBlock> acc;
  for (size_t begin = 0; begin < out.size(); begin += kRowBlock) {
    const size_t n = std::min(kRowBlock, out.size() - begin);
    acc.fill(0.0);
    const double* const block = rows.data() + begin * stride;
    // Tree-outer, row-inner: one tree's nodes stay hot across the whole
    // block while groups of kInterleave rows descend it in lockstep. Per
    // row the accumulation still runs in tree order, so the sum is
    // bit-identical to row-at-a-time Predict.
    for (const int32_t root : roots_) {
      size_t r = 0;
      for (; r + kInterleave <= n; r += kInterleave) {
        DescendExactBlock<kInterleave>(root, block + r * stride, stride,
                                       acc.data() + r);
      }
      if (r + kHalfInterleave <= n) {
        DescendExactBlock<kHalfInterleave>(root, block + r * stride, stride,
                                           acc.data() + r);
        r += kHalfInterleave;
      }
      for (; r < n; ++r) {
        acc[r] += value_[static_cast<size_t>(DescendExact(root, block + r * stride))];
      }
    }
    for (size_t r = 0; r < n; ++r) {
      out[begin + r] = acc[r] / static_cast<double>(roots_.size());
    }
  }
}

struct CompiledForest::Grid {
  std::span<const double> base_row;
  size_t fx;
  std::span<const double> xs;
  size_t fy;
  std::span<const double> ys;
  double* out;
};

void CompiledForest::PredictGrid(std::span<const double> base_row, size_t fx,
                                 std::span<const double> xs, size_t fy,
                                 std::span<const double> ys, std::span<double> out) const {
  OPTUM_CHECK(compiled());
  const size_t width = base_row.size();
  OPTUM_CHECK(fx != fy && fx < width && fy < width);
  OPTUM_CHECK_EQ(out.size(), xs.size() * ys.size());
  const auto sorted_axis = [](std::span<const double> axis) {
    return std::none_of(axis.begin(), axis.end(), [](double v) { return std::isnan(v); }) &&
           std::is_sorted(axis.begin(), axis.end());
  };
  OPTUM_CHECK(sorted_axis(xs) && sorted_axis(ys));
  std::fill(out.begin(), out.end(), 0.0);
  if (out.empty()) {
    return;
  }
  const Grid grid{base_row, fx, xs, fy, ys, out.data()};
  for (const int32_t root : roots_) {
    WalkGrid(grid, root, 0, xs.size(), 0, ys.size());
  }
  for (double& v : out) {
    v /= static_cast<double>(roots_.size());
  }
}

void CompiledForest::WalkGrid(const Grid& grid, int32_t node, size_t x0, size_t x1,
                              size_t y0, size_t y1) const {
  for (;;) {
    const int32_t right = right_[static_cast<size_t>(node)];
    if (right == node) {
      const double value = value_[static_cast<size_t>(node)];
      for (size_t i = x0; i < x1; ++i) {
        double* const cells = grid.out + i * grid.ys.size();
        for (size_t j = y0; j < y1; ++j) {
          cells[j] += value;
        }
      }
      return;
    }
    // The descent's comparison: a value goes left iff value <= threshold
    // (NaN never does).
    const double threshold = thresh_[static_cast<size_t>(node)];
    const auto goes_left = [threshold](double v) { return v <= threshold; };
    const size_t feature = static_cast<size_t>(feature_[static_cast<size_t>(node)]);
    if (feature != grid.fx && feature != grid.fy) {
      node = goes_left(grid.base_row[feature]) ? node + 1 : right;
      continue;
    }
    // A sorted axis goes left up to the first value past the threshold.
    const bool on_x = feature == grid.fx;
    const std::span<const double> axis = on_x ? grid.xs : grid.ys;
    size_t& lo = on_x ? x0 : y0;
    const size_t hi = on_x ? x1 : y1;
    const size_t cut = static_cast<size_t>(
        std::partition_point(axis.begin() + static_cast<ptrdiff_t>(lo),
                             axis.begin() + static_cast<ptrdiff_t>(hi), goes_left) -
        axis.begin());
    if (cut == hi) {
      node = node + 1;  // the whole range goes left
      continue;
    }
    if (cut > lo) {
      WalkGrid(grid, node + 1, x0, on_x ? cut : x1, y0, on_x ? y1 : cut);
    }
    lo = cut;
    node = right;
  }
}

}  // namespace optum::ml
