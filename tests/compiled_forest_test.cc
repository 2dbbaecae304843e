// CompiledForest equivalence suite (DESIGN.md §10): the compiled SoA engine
// must be BIT-IDENTICAL to RandomForestRegressor's pointer-tree descent —
// the interference tables are filled through it, so any drift would change
// placements. PredictGrid, the tables' grid kernel, must be bit-identical
// to PredictBatch, through the forest and through a standalone compiled
// engine. Training fans a forest's trees out over a ShardCrew, and the
// fitted trees must not depend on the crew size. Labeled `concurrency` so
// the tsan/asan-ubsan presets cover the shared-read inference path and the
// crew fit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/shard_crew.h"
#include "src/ml/compiled_forest.h"
#include "src/ml/metrics.h"
#include "src/ml/random_forest.h"
#include "src/stats/rng.h"

namespace optum::ml {
namespace {

Dataset RandomDataset(uint64_t seed, size_t n, size_t features) {
  Rng rng(seed);
  Dataset d(features);
  std::vector<double> x(features);
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : x) {
      v = rng.Uniform(-3, 3);
    }
    double y = rng.Gaussian(0, 0.2);
    for (size_t f = 0; f < features; ++f) {
      y += (f % 2 == 0 ? 1.5 : -0.7) * x[f] + (x[f] > 0.8 ? 1.0 : 0.0);
    }
    d.Add(x, y);
  }
  return d;
}

// Random query block, row-major; deliberately wider-ranged than training.
std::vector<double> RandomRows(uint64_t seed, size_t rows, size_t features) {
  Rng rng(seed);
  std::vector<double> block(rows * features);
  for (auto& v : block) {
    v = rng.Uniform(-6, 6);
  }
  return block;
}

void ExpectBitIdentical(const RandomForestRegressor& forest,
                        const CompiledForest& compiled,
                        const std::vector<double>& rows, size_t stride) {
  const size_t n = rows.size() / stride;
  std::vector<double> batch(n);
  compiled.PredictBatch(rows, stride, batch);
  for (size_t i = 0; i < n; ++i) {
    const std::span<const double> row(rows.data() + i * stride, stride);
    const double reference = forest.Predict(row);
    // Exact double equality, not EXPECT_DOUBLE_EQ's 4-ulp tolerance.
    EXPECT_EQ(reference, compiled.Predict(row)) << "row " << i;
    EXPECT_EQ(reference, batch[i]) << "row " << i;
  }
}

TEST(CompiledForestTest, BitIdenticalOnRandomizedDatasets) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    for (const size_t features : {size_t{1}, size_t{3}, size_t{5}}) {
      const Dataset d = RandomDataset(seed * 11, 240, features);
      ForestParams params;
      params.num_trees = 3 + seed % 4;
      RandomForestRegressor forest(params, seed);
      forest.Fit(d);
      const CompiledForest compiled = CompiledForest::Compile(forest);
      EXPECT_EQ(compiled.num_trees(), forest.num_trees());
      ExpectBitIdentical(forest, compiled,
                         RandomRows(seed * 13 + features, 100, features), features);
    }
  }
}

TEST(CompiledForestTest, NanAndInfinityFeaturesMatchPointerDescent) {
  const Dataset d = RandomDataset(7, 300, 4);
  RandomForestRegressor forest(ForestParams{}, 7);
  forest.Fit(d);
  const CompiledForest compiled = CompiledForest::Compile(forest);

  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> rows = RandomRows(8, 64, 4);
  // Sprinkle non-finite values over every column, including all-NaN rows
  // (NaN compares false against any threshold, so descent always goes
  // right — the compiled engine must reproduce that path exactly).
  Rng rng(9);
  for (size_t i = 0; i < rows.size(); ++i) {
    const double roll = rng.Uniform(0, 1);
    if (roll < 0.15) {
      rows[i] = kNan;
    } else if (roll < 0.25) {
      rows[i] = kInf;
    } else if (roll < 0.35) {
      rows[i] = -kInf;
    }
  }
  for (size_t f = 0; f < 4; ++f) {
    rows[f] = kNan;  // row 0: every feature NaN
  }
  ExpectBitIdentical(forest, compiled, rows, 4);
}

TEST(CompiledForestTest, SingleNodeStumpTrees) {
  // Constant targets: every tree is a pure single-leaf stump.
  Dataset d(2);
  for (int i = 0; i < 60; ++i) {
    d.Add(std::vector<double>{static_cast<double>(i), static_cast<double>(-i)}, 4.25);
  }
  ForestParams params;
  params.num_trees = 5;
  RandomForestRegressor forest(params, 3);
  forest.Fit(d);
  const CompiledForest compiled = CompiledForest::Compile(forest);
  EXPECT_EQ(compiled.num_nodes(), compiled.num_trees());  // one leaf per tree
  ExpectBitIdentical(forest, compiled, RandomRows(4, 32, 2), 2);
  EXPECT_EQ(compiled.Predict(std::vector<double>{1e9, -1e9}), 4.25);
}

TEST(CompiledForestTest, BatchSizesAcrossBlockBoundaryAndPaddedStride) {
  const Dataset d = RandomDataset(21, 200, 3);
  RandomForestRegressor forest(ForestParams{}, 21);
  forest.Fit(d);
  const CompiledForest compiled = CompiledForest::Compile(forest);

  // Batch sizes straddling the internal row block (64), plus stride padding:
  // rows carry 5 doubles but the model reads only its 3 features.
  for (const size_t n : {size_t{1}, size_t{2}, size_t{63}, size_t{64}, size_t{65},
                         size_t{130}}) {
    const size_t stride = 5;
    std::vector<double> rows = RandomRows(100 + n, n, stride);
    std::vector<double> out(n);
    compiled.PredictBatch(rows, stride, out);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i],
                forest.Predict(std::span<const double>(rows.data() + i * stride, 3)))
          << "n=" << n << " row " << i;
    }
  }
}

TEST(CompiledForestTest, OddBatchSizesThroughInterleavedAndTailPaths) {
  // PredictBatch interleaves groups of rows per tree and finishes the
  // remainder with scalar descent. Odd batch sizes exercise every split of
  // work between the two paths — including all-tail (n below the interleave
  // width) and exactly-one-group — and must stay bit-identical to Predict
  // even with non-finite features flowing through the lockstep kernel.
  const Dataset d = RandomDataset(61, 260, 4);
  RandomForestRegressor forest(ForestParams{}, 61);
  forest.Fit(d);
  const CompiledForest compiled = CompiledForest::Compile(forest);

  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const size_t n : {size_t{1}, size_t{3}, size_t{5}, size_t{7}, size_t{9},
                         size_t{15}, size_t{16}, size_t{17}, size_t{31}}) {
    std::vector<double> rows = RandomRows(200 + n, n, 4);
    Rng rng(300 + n);
    for (auto& v : rows) {
      const double roll = rng.Uniform(0, 1);
      if (roll < 0.1) {
        v = kNan;
      } else if (roll < 0.15) {
        v = rng.Uniform(0, 1) < 0.5 ? kInf : -kInf;
      }
    }
    ExpectBitIdentical(forest, compiled, rows, 4);
  }
}

TEST(CompiledForestTest, ForestPredictBatchServedByCompiledEngine) {
  // RandomForestRegressor::PredictBatch (built at Fit time) must agree with
  // row-at-a-time pointer descent — this is the path AppModel consumers use.
  const Dataset d = RandomDataset(31, 250, 4);
  RandomForestRegressor forest(ForestParams{}, 31);
  forest.Fit(d);
  EXPECT_TRUE(forest.compiled().compiled());
  const std::vector<double> rows = RandomRows(32, 90, 4);
  std::vector<double> out(90);
  forest.PredictBatch(rows, 4, out);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], forest.Predict(std::span<const double>(rows.data() + i * 4, 4)));
  }
}

TEST(CompiledForestTest, PredictAllMatchesPerRowLoopForAllFamilies) {
  // The default PredictBatch (loop-over-Predict) keeps every non-forest
  // family on the batch interface with unchanged results.
  const Dataset train = RandomDataset(41, 300, 2);
  const Dataset test = RandomDataset(42, 50, 2);
  for (const RegressorKind kind :
       {RegressorKind::kLinear, RegressorKind::kRidge, RegressorKind::kRandomForest,
        RegressorKind::kMlp, RegressorKind::kSvr}) {
    auto model = MakeRegressor(kind, 5);
    model->Fit(train);
    const std::vector<double> batched = PredictAll(*model, test);
    ASSERT_EQ(batched.size(), test.size());
    for (size_t i = 0; i < test.size(); ++i) {
      EXPECT_EQ(batched[i], model->Predict(test.Features(i))) << ToString(kind);
    }
  }
}

TEST(CompiledForestTest, ConcurrentReadersGetIdenticalResults) {
  // Inference is const shared-state only; concurrent PredictBatch calls on
  // one engine must be race-free (exercised under TSan via the concurrency
  // label) and return the serial answers.
  const Dataset d = RandomDataset(51, 300, 3);
  RandomForestRegressor forest(ForestParams{}, 51);
  forest.Fit(d);
  const CompiledForest compiled = CompiledForest::Compile(forest);
  const std::vector<double> rows = RandomRows(52, 200, 3);
  std::vector<double> serial(200);
  compiled.PredictBatch(rows, 3, serial);

  constexpr int kThreads = 4;
  std::vector<std::vector<double>> results(kThreads, std::vector<double>(200));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { compiled.PredictBatch(rows, 3, results[static_cast<size_t>(t)]); });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(results[static_cast<size_t>(t)], serial);
  }
}

// --- Crew fit: one tree per ParallelFor index ---------------------------------

// The one-tree-at-a-time loop Fit ran before trees moved onto the crew,
// kept as the reference: per tree, draw its seed, then its bootstrap, then
// fit it, all from the forest's own stream `rng`.
std::vector<DecisionTreeRegressor> SerialReferenceTrees(const ForestParams& params,
                                                        const Dataset& data, Rng& rng) {
  TreeParams tree_params = params.tree;
  if (tree_params.max_features == 0) {
    tree_params.max_features =
        std::max<size_t>(1, static_cast<size_t>(std::ceil(data.num_features() / 3.0)));
  }
  std::vector<DecisionTreeRegressor> trees;
  for (size_t t = 0; t < params.num_trees; ++t) {
    DecisionTreeRegressor tree(tree_params, rng.NextU64());
    if (params.bootstrap) {
      std::vector<size_t> indices(data.size());
      for (auto& idx : indices) {
        idx = rng.NextBelow(data.size());
      }
      tree.FitOnIndices(data, std::move(indices));
    } else {
      tree.Fit(data);
    }
    trees.push_back(std::move(tree));
  }
  return trees;
}

void ExpectSameNodes(const DecisionTreeRegressor& expected, const DecisionTreeRegressor& got,
                     size_t tree) {
  ASSERT_EQ(expected.node_count(), got.node_count()) << "tree " << tree;
  for (size_t i = 0; i < expected.node_count(); ++i) {
    const DecisionTreeRegressor::Node& a = expected.nodes()[i];
    const DecisionTreeRegressor::Node& b = got.nodes()[i];
    ASSERT_EQ(a.feature, b.feature) << "tree " << tree << " node " << i;
    ASSERT_EQ(a.threshold, b.threshold) << "tree " << tree << " node " << i;
    ASSERT_EQ(a.left, b.left) << "tree " << tree << " node " << i;
    ASSERT_EQ(a.right, b.right) << "tree " << tree << " node " << i;
    ASSERT_EQ(a.value, b.value) << "tree " << tree << " node " << i;
  }
}

void ExpectSameTrees(const std::vector<DecisionTreeRegressor>& expected,
                     const RandomForestRegressor& forest) {
  ASSERT_EQ(forest.num_trees(), expected.size());
  for (size_t t = 0; t < expected.size(); ++t) {
    ExpectSameNodes(expected[t], forest.tree(t), t);
  }
}

TEST(ForestCrewFitTest, TreesAndPredictionsIdenticalForEveryCrewSize) {
  const Dataset d = RandomDataset(61, 400, 5);
  const std::vector<double> rows = RandomRows(62, 150, 5);
  for (const bool bootstrap : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "bootstrap=" << bootstrap);
    ForestParams params;
    params.bootstrap = bootstrap;
    RandomForestRegressor caller_only(params, 63);
    caller_only.Fit(d);
    std::vector<double> reference(150);
    caller_only.PredictBatch(rows, 5, reference);
    for (const size_t lanes : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
      SCOPED_TRACE(::testing::Message() << lanes << " lanes");
      ShardCrew crew(lanes);
      RandomForestRegressor forest(params, 63);
      forest.Fit(d, crew);
      ASSERT_EQ(forest.num_trees(), params.num_trees);
      for (size_t t = 0; t < forest.num_trees(); ++t) {
        ExpectSameNodes(caller_only.tree(t), forest.tree(t), t);
      }
      std::vector<double> batch(150);
      forest.PredictBatch(rows, 5, batch);
      EXPECT_EQ(batch, reference);
    }
  }
}

TEST(ForestCrewFitTest, RefitContinuesTheSerialStream) {
  // A second Fit on the same forest draws from where the first left rng_,
  // exactly as the serial loop did, whatever crew each fit runs on.
  const Dataset first = RandomDataset(71, 300, 4);
  const Dataset second = RandomDataset(72, 250, 4);
  const ForestParams params;
  Rng reference_rng(73);
  const std::vector<DecisionTreeRegressor> first_trees =
      SerialReferenceTrees(params, first, reference_rng);
  const std::vector<DecisionTreeRegressor> second_trees =
      SerialReferenceTrees(params, second, reference_rng);
  for (const size_t lanes : {size_t{1}, size_t{3}, size_t{8}}) {
    SCOPED_TRACE(::testing::Message() << lanes << " lanes");
    ShardCrew crew(lanes);
    RandomForestRegressor forest(params, 73);
    forest.Fit(first, crew);
    ExpectSameTrees(first_trees, forest);
    forest.Fit(second, crew);
    ExpectSameTrees(second_trees, forest);
  }
}

// --- PredictGrid: one walk per tree over a sorted 2-D grid -------------------

// The rows PredictGrid stands for, predicted through PredictBatch.
std::vector<double> GridByBatch(const Regressor& model, const std::vector<double>& base,
                                size_t fx, const std::vector<double>& xs, size_t fy,
                                const std::vector<double>& ys) {
  std::vector<double> rows;
  for (const double x : xs) {
    for (const double y : ys) {
      std::vector<double> row = base;
      row[fx] = x;
      row[fy] = y;
      rows.insert(rows.end(), row.begin(), row.end());
    }
  }
  std::vector<double> out(xs.size() * ys.size());
  model.PredictBatch(rows, base.size(), out);
  return out;
}

void ExpectGridMatchesBatch(const Regressor& model, const std::vector<double>& base,
                            size_t fx, const std::vector<double>& xs, size_t fy,
                            const std::vector<double>& ys) {
  std::vector<double> grid(xs.size() * ys.size());
  model.PredictGrid(base, fx, xs, fy, ys, grid);
  const std::vector<double> reference = GridByBatch(model, base, fx, xs, fy, ys);
  for (size_t i = 0; i < grid.size(); ++i) {
    // Bitwise: tells +0.0 from -0.0, unlike ==.
    ASSERT_EQ(std::bit_cast<uint64_t>(grid[i]), std::bit_cast<uint64_t>(reference[i]))
        << model.name() << " cell (" << i / ys.size() << ", " << i % ys.size() << ")";
  }
}

// Sorted grid axis over feature f of `forest`: split thresholds on f (every
// k-th, at most ~40), each with its float32 rounding, the neighbouring
// doubles and a duplicate, plus random points inside and outside the
// training range.
std::vector<double> SplitAxis(const RandomForestRegressor& forest, size_t f, uint64_t seed) {
  std::vector<double> thresholds;
  for (size_t t = 0; t < forest.num_trees(); ++t) {
    for (const DecisionTreeRegressor::Node& n : forest.tree(t).nodes()) {
      if (n.feature == static_cast<int>(f)) {
        thresholds.push_back(n.threshold);
      }
    }
  }
  std::vector<double> axis;
  const size_t step = thresholds.size() / 40 + 1;
  for (size_t i = 0; i < thresholds.size(); i += step) {
    const double th = thresholds[i];
    const double q = static_cast<double>(static_cast<float>(th));
    axis.insert(axis.end(), {th, th, q, std::nextafter(th, -INFINITY),
                             std::nextafter(q, INFINITY)});
  }
  Rng rng(seed);
  for (int i = 0; i < 16; ++i) {
    axis.push_back(rng.Uniform(-6, 6));
  }
  std::sort(axis.begin(), axis.end());
  return axis;
}

TEST(PredictGridTest, BitIdenticalToPredictBatchInEveryLayout) {
  const Dataset d = RandomDataset(81, 300, 4);
  ForestParams params;
  params.num_trees = 12;
  RandomForestRegressor forest(params, 82);
  forest.Fit(d);
  const CompiledForest exact = CompiledForest::Compile(forest);
  const std::vector<double> xs = SplitAxis(forest, 1, 83);
  const std::vector<double> ys = SplitAxis(forest, 3, 84);
  ASSERT_GT(xs.size(), 150u);  // the forest really splits on both axes
  ASSERT_GT(ys.size(), 150u);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // The base row's values at fx/fy are ignored; a NaN fixed feature takes
  // the right branch at every split on it, as in descent.
  for (const std::vector<double>& base :
       {std::vector<double>{0.4, nan, -1.2, nan}, std::vector<double>{nan, 0.0, 2.5, 0.0}}) {
    for (const Regressor* model : {static_cast<const Regressor*>(&forest),
                                   static_cast<const Regressor*>(&exact)}) {
      ExpectGridMatchesBatch(*model, base, 1, xs, 3, ys);
      ExpectGridMatchesBatch(*model, base, 3, ys, 1, xs);  // axes swapped
    }
  }
  // Degenerate grids: one point per axis, and an empty axis.
  ExpectGridMatchesBatch(forest, {0.1, 0.2, 0.3, 0.4}, 0, {0.5}, 2, {-0.5});
  std::vector<double> none;
  forest.PredictGrid(std::vector<double>{0.1, 0.2, 0.3, 0.4}, 0, {}, 2, ys, none);
}

TEST(PredictGridTest, SingleLeafTrees) {
  Dataset d(2);
  for (int i = 0; i < 60; ++i) {
    d.Add(std::vector<double>{static_cast<double>(i), static_cast<double>(-i)}, 4.25);
  }
  ForestParams params;
  params.num_trees = 5;
  RandomForestRegressor forest(params, 3);
  forest.Fit(d);
  ASSERT_EQ(forest.compiled().num_nodes(), forest.compiled().num_trees());
  const std::vector<double> axis = {-1e9, -1.0, 0.0, 0.0, 3.5, 1e9};
  ExpectGridMatchesBatch(forest, {0.0, 0.0}, 0, axis, 1, axis);
  ExpectGridMatchesBatch(forest, {0.0, 0.0}, 1, axis, 0, axis);
}

TEST(PredictGridTest, DefaultPathMatchesPredictBatchForOtherFamilies) {
  const Dataset d = RandomDataset(91, 200, 5);
  const std::vector<double> xs = {-2.0, -0.5, -0.5, 0.0, 1.25, 4.0};
  const std::vector<double> ys = {-3.0, 0.1, 0.2, 2.0};
  for (const RegressorKind kind : {RegressorKind::kLinear, RegressorKind::kMlp}) {
    const std::unique_ptr<Regressor> model = MakeRegressor(kind, 92);
    model->Fit(d);
    ExpectGridMatchesBatch(*model, {0.3, -0.7, 1.1, 0.0, 2.0}, 2, xs, 4, ys);
  }
}

}  // namespace
}  // namespace optum::ml
