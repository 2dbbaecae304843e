// Edge-case coverage: solver stress, Medea stale-solution handling, and
// repeated parallel index loops.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "src/common/shard_crew.h"
#include "src/sched/medea.h"
#include "src/solver/assignment_solver.h"
#include "src/stats/rng.h"

namespace optum {
namespace {

TEST(SolverStressTest, LargeFeasibleInstanceSolvesWithinBudget) {
  // 15 items x 40 bins — the Medea sub-problem size from the paper (§5.1).
  solver::AssignmentProblem p;
  Rng rng(1);
  for (int i = 0; i < 15; ++i) {
    p.demands.push_back({rng.Uniform(0.05, 0.2), rng.Uniform(0.05, 0.2)});
  }
  for (int b = 0; b < 40; ++b) {
    p.capacities.push_back({1, 1});
  }
  for (int i = 0; i < 15; ++i) {
    std::vector<double> row;
    for (int b = 0; b < 40; ++b) {
      row.push_back(1.0 + rng.Uniform(0, 1));
    }
    p.scores.push_back(row);
  }
  const solver::AssignmentSolution s = solver::AssignmentSolver(500'000).Solve(p);
  // All items fit easily; every one must be assigned.
  for (int assignment : s.assignment) {
    EXPECT_GE(assignment, 0);
  }
  EXPECT_GT(s.objective, 15.0);
}

TEST(SolverStressTest, TightPackingStillOptimal) {
  // Two bins, four items of 0.5: optimal packs all four.
  solver::AssignmentProblem p;
  for (int i = 0; i < 4; ++i) {
    p.demands.push_back({0.5, 0.1});
  }
  p.capacities = {{1, 1}, {1, 1}};
  for (int i = 0; i < 4; ++i) {
    p.scores.push_back({1.0, 1.0});
  }
  const solver::AssignmentSolution s = solver::AssignmentSolver().Solve(p);
  EXPECT_TRUE(s.optimal);
  EXPECT_DOUBLE_EQ(s.objective, 4.0);
}

TEST(MedeaEdgeTest, StaleSolutionIsRevalidated) {
  // Medea solves a batch, but the chosen host fills up before the pod's
  // decision is consumed: the stale mapping must not be committed.
  AppProfile ls_app;
  ls_app.id = 0;
  ls_app.slo = SloClass::kLs;
  ls_app.request = {0.4, 0.1};
  ls_app.limit = {0.5, 0.2};
  auto make_pod = [&](PodId id) {
    PodSpec pod;
    pod.id = id;
    pod.app = 0;
    pod.slo = SloClass::kLs;
    pod.request = ls_app.request;
    pod.limit = ls_app.limit;
    return pod;
  };
  ClusterState cluster(1, kUnitResources, 8);
  MedeaOptions options;
  options.max_pods = 2;
  Medea medea(options);
  // Batch two pods; the solve assigns both to host 0 (0.8 total).
  EXPECT_FALSE(medea.Place(make_pod(1), ls_app, cluster).placed());
  const PlacementDecision d2 = medea.Place(make_pod(2), ls_app, cluster);
  ASSERT_TRUE(d2.placed());
  // Fill host 0 beyond capacity before pod 1 returns for its decision.
  cluster.Place(make_pod(2), &ls_app, 0, 0);
  cluster.Place(make_pod(10), &ls_app, 0, 0);
  // Pod 1's stored solution no longer fits: Medea must reject/re-batch
  // rather than return the stale host.
  const PlacementDecision d1 = medea.Place(make_pod(1), ls_app, cluster);
  EXPECT_FALSE(d1.placed());
}

// ShardCrew::ParallelFor replaced ThreadPool::ParallelFor; the case keeps the
// old suite name and checks the same sums on the crew.
TEST(ThreadPoolStressTest, ManyConcurrentParallelFors) {
  ShardCrew crew(4);
  std::atomic<int64_t> total{0};
  for (int round = 0; round < 20; ++round) {
    crew.ParallelFor(997, [&total](size_t i) { total.fetch_add(static_cast<int64_t>(i)); });
  }
  EXPECT_EQ(total.load(), 20LL * (996LL * 997LL / 2));
}

}  // namespace
}  // namespace optum
