// Distributed unified scheduling (paper §4.4): "When the data center scale
// is very large, the resource management system may include multiple
// distributed unified schedulers that work in parallel, and each scheduler
// is responsible for scheduling a portion of submitted pods." Decisions can
// conflict — pods landing on the same host simultaneously invalidate each
// other's usage/interference predictions — so the Deployment Module commits
// only the highest-scoring pod per host and re-dispatches the rest.
//
// DistributedCoordinator shards a batch of pending pods round-robin across
// K independent OptumScheduler instances, runs their decisions in parallel
// against a shared read-only cluster snapshot, resolves conflicts, and
// loops re-dispatched pods until the batch is placed or stably rejected.
// Parallelism is one thread per shard: a persistent ShardCrew of K - 1
// threads plus the calling thread, which runs shard 0 itself. Each shard
// scores its candidates serially.
#ifndef OPTUM_SRC_CORE_DISTRIBUTED_H_
#define OPTUM_SRC_CORE_DISTRIBUTED_H_

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/shard_crew.h"
#include "src/core/deployment.h"
#include "src/core/optum_scheduler.h"

namespace optum::core {

struct DistributedConfig {
  // Number of parallel Online Schedulers.
  size_t num_schedulers = 4;
  // Placement attempts per pod (rejections and lost conflicts both count)
  // before the pod is returned as unplaced.
  size_t max_attempts_per_pod = 4;
  // Conflict-round pipelining (DESIGN.md §12): with depth D > 1, each shard
  // keeps up to D-1 future head pods speculatively sampled and scored
  // against an epoch-snapshotted host view, and each round merely
  // re-scores the candidates whose hosts the intervening commits touched
  // (their change_epoch moved) instead of rescoring from scratch.
  // Placements, scores, spans, decision records and rounds are
  // bit-identical for every depth (OptumScheduler speculation contract);
  // depth 1 is the classic score-then-resolve loop.
  size_t pipeline_depth = 1;
  // Configuration template for each shard scheduler; the seed is salted
  // per shard so the shards sample different host subsets.
  OptumConfig scheduler_config;
};

struct DistributedOutcome {
  // One entry per pod placed this batch, in commit order.
  std::vector<ScheduleProposal> placed;
  // Pods no shard could place (resource shortage), with the last reason.
  std::vector<std::pair<const PodSpec*, WaitReason>> unplaced;
  // Conflicts resolved across all rounds (re-dispatched proposals).
  int64_t conflicts_resolved = 0;
  int64_t rounds_used = 0;
};

class DistributedCoordinator {
 public:
  // Each shard receives its own copy of `profiles` (trained models are
  // shared immutably), so shard decisions are safely parallel.
  DistributedCoordinator(const OptumProfiles& profiles, DistributedConfig config);
  ~DistributedCoordinator();

  // Schedules a batch. Each shard works through its own slice of the batch
  // one pod at a time — exactly one in-flight decision per shard per round,
  // as in a real fleet of parallel schedulers — and `commit` is invoked for
  // every winning proposal, in order; it must apply the placement to the
  // cluster so the next round's decisions see the updated state. The
  // coordinator never mutates the cluster itself.
  DistributedOutcome ScheduleBatch(
      const std::vector<const PodSpec*>& pods, const ClusterState& cluster,
      const std::function<void(const ScheduleProposal&)>& commit);

  size_t num_schedulers() const { return shards_.size(); }
  OptumScheduler& shard(size_t i) { return *shards_[i]; }

  // Unified sink attach (obs::Sinks contract). Adopts:
  //   * sinks.metrics — the coordinator publishes dist.rounds /
  //     dist.commits / dist.conflicts counters and times each
  //     conflict-resolution round into dist.round_seconds; every shard
  //     scheduler attaches (metrics only) at its own registry lane (shard s
  //     uses lane s, the crew lane its decisions run on), under prefix
  //     "optum.shard<s>" — distinct lanes keep concurrent shard updates on
  //     distinct metric shards.
  //   * sinks.span_log — pod-lifecycle spans. Only the serial
  //     conflict-resolution phase appends — placed spans for committed
  //     winners (in commit order) and conflict_retried spans for proposals
  //     that lost their host (in shard order) — never the parallel shard
  //     decisions, so the file is deterministic for a given batch.
  //   * sinks.profile — phase-level round profiler (DESIGN.md §14). Each
  //     shard lane times its head settle (finalize_revalidate) and
  //     speculative top-up (spec_score) into its own profiler lane; the
  //     serial phase times resolve/commit into lane 0, measures the barrier
  //     wall around the crew round, and closes the round via EndRound. Both
  //     scopes run on every active shard-round regardless of
  //     pipeline_depth, so scope counts stay bit-identical across the
  //     depth × ingest matrix.
  // Other fields are ignored; shard-level span/decision logs are
  // deliberately NOT forwarded (shards decide on parallel crew lanes —
  // interleaved emission would be nondeterministic). Attach those via
  // shard(i) directly, after this call, only when the caller serializes the
  // shards itself.
  void AttachSinks(const obs::Sinks& sinks);

 private:
  std::vector<std::unique_ptr<OptumScheduler>> shards_;
  DeploymentModule deployment_;
  size_t max_attempts_per_pod_;
  size_t pipeline_depth_;

  // Per-shard speculation pipeline (pipeline_depth > 1): specs[j] holds the
  // speculative score for the j-th pod still waiting in that shard's batch
  // queue, in queue order ("speculation prefix" invariant — requeues append
  // to the back of the queue, so the prefix never needs repair). `free`
  // recycles SpeculativeScore buffers so steady state allocates nothing.
  struct ShardPipeline {
    std::deque<OptumScheduler::SpeculativeScore> specs;
    std::vector<OptumScheduler::SpeculativeScore> free;
  };
  std::vector<ShardPipeline> pipelines_;

  // Nullable observability sinks (single branch when detached).
  obs::Sinks sinks_;
  obs::Counter* rounds_counter_ = nullptr;
  obs::Counter* commits_counter_ = nullptr;
  obs::Counter* conflicts_counter_ = nullptr;
  obs::Histogram* round_timer_ = nullptr;
  obs::SpanLog* span_log_ = nullptr;
  obs::RoundProfiler* profiler_ = nullptr;

  // Lane s runs shard s's decision each conflict round; lane 0 is the
  // thread calling ScheduleBatch. Declared last: its threads join before
  // any member a round body touches is destroyed.
  ShardCrew crew_;
};

}  // namespace optum::core

#endif  // OPTUM_SRC_CORE_DISTRIBUTED_H_
