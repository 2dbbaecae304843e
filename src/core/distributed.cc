#include "src/core/distributed.h"

#include <algorithm>
#include <deque>
#include <string>

#include "src/common/check.h"
#include "src/obs/profiler.h"
#include "src/obs/timer.h"

namespace optum::core {

DistributedCoordinator::DistributedCoordinator(const OptumProfiles& profiles,
                                               DistributedConfig config)
    : max_attempts_per_pod_(std::max<size_t>(1, config.max_attempts_per_pod)),
      pipeline_depth_(std::max<size_t>(1, config.pipeline_depth)),
      crew_(std::max<size_t>(1, config.num_schedulers)) {
  OPTUM_CHECK_GE(config.num_schedulers, 1u);
  pipelines_.resize(config.num_schedulers);
  shards_.reserve(config.num_schedulers);
  for (size_t i = 0; i < config.num_schedulers; ++i) {
    OptumConfig shard_config = config.scheduler_config;
    // Salt the sampling seed so shards examine different host subsets —
    // conflicts stay possible (hot hosts score high for everyone) but the
    // shards do not trivially collide on every decision.
    shard_config.seed = config.scheduler_config.seed + 0x9e3779b9u * (i + 1);
    shards_.push_back(std::make_unique<OptumScheduler>(profiles, shard_config));
  }
}

DistributedCoordinator::~DistributedCoordinator() = default;

void DistributedCoordinator::AttachSinks(const obs::Sinks& sinks) {
  sinks_ = sinks;
  span_log_ = sinks.span_log;
  profiler_ = sinks.profile;
  if (profiler_ != nullptr) {
    // One profiler lane per shard: each shard lane records its barrier
    // phases into its own lane; the serial phases use lane 0.
    profiler_->set_num_lanes(shards_.size());
  }
  obs::MetricRegistry* registry = sinks.metrics;
  // Shard s scores on crew lane s; giving it registry lane s keeps
  // concurrent shard updates on distinct metric shards. The
  // coordinator's own counters (lane 0) are only touched in the serial
  // resolution phase, never while shards are deciding. Shards receive the
  // metrics sink only — span/decision logs must not be written from
  // parallel shard tasks (see AttachSinks contract in the header), so any
  // sinks a caller attached via shard(i) directly are preserved as-is.
  if (registry != nullptr) {
    registry->set_num_lanes(shards_.size());
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    obs::Sinks shard_sinks = shards_[s]->attached_sinks();
    shard_sinks.metrics = registry;
    shards_[s]->AttachSinks(shard_sinks, /*lane_base=*/s,
                            "optum.shard" + std::to_string(s));
  }
  if (registry == nullptr) {
    rounds_counter_ = nullptr;
    commits_counter_ = nullptr;
    conflicts_counter_ = nullptr;
    round_timer_ = nullptr;
    return;
  }
  rounds_counter_ = registry->counter("dist.rounds");
  commits_counter_ = registry->counter("dist.commits");
  conflicts_counter_ = registry->counter("dist.conflicts");
  round_timer_ = registry->histogram("dist.round_seconds");
}

DistributedOutcome DistributedCoordinator::ScheduleBatch(
    const std::vector<const PodSpec*>& pods, const ClusterState& cluster,
    const std::function<void(const ScheduleProposal&)>& commit) {
  DistributedOutcome outcome;

  struct PendingEntry {
    const PodSpec* pod = nullptr;
    size_t attempts = 0;
    WaitReason last_reason = WaitReason::kOther;
  };
  // Per-shard FIFO queues: round-robin split of the batch.
  const size_t num_shards = shards_.size();
  std::vector<std::deque<PendingEntry>> queues(num_shards);
  for (size_t i = 0; i < pods.size(); ++i) {
    OPTUM_CHECK(pods[i] != nullptr);
    queues[i % num_shards].push_back(PendingEntry{pods[i]});
  }

  auto any_pending = [&queues] {
    for (const auto& q : queues) {
      if (!q.empty()) {
        return true;
      }
    }
    return false;
  };

  while (any_pending()) {
    ++outcome.rounds_used;
    obs::ScopedTimer round_timer(round_timer_);
    if (rounds_counter_ != nullptr) {
      rounds_counter_->Inc();
    }

    // Phase 1 (parallel): each shard decides for the pod at the head of
    // its own queue, all against the same cluster snapshot — the moment a
    // conflict can occur in a fleet of parallel schedulers. With pipelining
    // the shard first settles its head — finalizing a speculative score if
    // one is staged (revalidating only epoch-moved candidates), falling back
    // to a fresh PlaceScored otherwise — then tops up speculation for the
    // next pipeline_depth-1 pods still queued, against this same frozen
    // snapshot. Each attempt draws from the shard's sampling stream exactly
    // once, in queue order (= pop order), so the draw sequence — and with it
    // every candidate set, score, and decision — matches the serial loop
    // bit for bit.
    struct ShardDecision {
      bool active = false;
      PendingEntry entry;
      PlacementDecision decision;
      double score = 0.0;
    };
    std::vector<ShardDecision> decisions(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      if (!queues[s].empty()) {
        decisions[s].active = true;
        decisions[s].entry = queues[s].front();
        queues[s].pop_front();
      }
    }
    // Barrier wall for the profiler's critical-path rule: measured serially
    // around the crew round so it is the true round-bounding time even when
    // shard lanes time-slice on few cores (DESIGN.md §14).
    std::chrono::steady_clock::time_point barrier_start;
    if (profiler_ != nullptr) {
      barrier_start = std::chrono::steady_clock::now();
    }
    // Lane s decides for shard s; lane 0 runs on this thread. Every lane
    // touches only its own shard, pipeline, queue and decision slot.
    crew_.Run([&](size_t s) {
      if (!decisions[s].active) {
        return;
      }
      OptumScheduler& shard = *shards_[s];
      ShardPipeline& pipe = pipelines_[s];
      ShardDecision& d = decisions[s];
      {
        // Head settle: finalize a staged speculation or score fresh. Both
        // paths run under the same phase scope so the scope count (pods
        // settled) is identical for every pipeline_depth.
        obs::RoundProfiler::Scope settle(
            profiler_, obs::ProfilePhase::kFinalizeRevalidate, s);
        if (!pipe.specs.empty()) {
          // Head was speculated in an earlier round (specs[0] ↔ old queue
          // front, the pod just popped).
          OptumScheduler::SpeculativeScore spec = std::move(pipe.specs.front());
          pipe.specs.pop_front();
          d.decision = shard.FinalizeSpeculative(*d.entry.pod, cluster, &spec, &d.score);
          spec.Clear();
          pipe.free.push_back(std::move(spec));
        } else {
          d.decision = shard.PlaceScored(*d.entry.pod, cluster, &d.score);
        }
      }
      // Speculative top-up: always scoped — empty work at depth 1 — so the
      // scope count (active shard-rounds) is depth-invariant too.
      obs::RoundProfiler::Scope spec_scope(profiler_,
                                           obs::ProfilePhase::kSpecScore, s);
      while (pipe.specs.size() + 1 < pipeline_depth_ &&
             pipe.specs.size() < queues[s].size()) {
        OptumScheduler::SpeculativeScore spec;
        if (!pipe.free.empty()) {
          spec = std::move(pipe.free.back());
          pipe.free.pop_back();
        }
        shard.BeginSpeculative(*queues[s][pipe.specs.size()].pod, cluster, &spec);
        pipe.specs.push_back(std::move(spec));
      }
    });
    int64_t barrier_ns = 0;
    if (profiler_ != nullptr) {
      barrier_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - barrier_start)
                       .count();
    }

    // Phase 2 (sequential): conflict resolution, commits, re-dispatch.
    std::vector<ScheduleProposal> proposals;
    const DeploymentOutcome resolved = [&] {
      obs::RoundProfiler::Scope resolve_scope(profiler_,
                                              obs::ProfilePhase::kResolve, 0);
      for (const ShardDecision& d : decisions) {
        if (d.active && d.decision.placed()) {
          proposals.push_back(
              ScheduleProposal{d.entry.pod->id, d.decision.host, d.score});
        }
      }
      return deployment_.Resolve(std::move(proposals));
    }();
    // Commit phase timed explicitly (not RAII) so the record lands before
    // EndRound closes the round at the bottom of this iteration.
    std::chrono::steady_clock::time_point commit_start;
    if (profiler_ != nullptr) {
      commit_start = std::chrono::steady_clock::now();
    }
    for (const ScheduleProposal& winner : resolved.committed) {
      commit(winner);
      outcome.placed.push_back(winner);
      if (span_log_ != nullptr) {
        // The winner came from exactly one shard's in-flight decision this
        // round; recover its spec for the submit → placed wait.
        Tick wait_ticks = -1;
        for (const ShardDecision& d : decisions) {
          if (d.active && d.entry.pod->id == winner.pod) {
            wait_ticks = cluster.now() - d.entry.pod->submit_tick;
            break;
          }
        }
        span_log_->Append({.tick = cluster.now(),
                           .pod = winner.pod,
                           .phase = obs::SpanPhase::kPlaced,
                           .host = winner.host,
                           .wait_ticks = wait_ticks,
                           .has_score = true,
                           .score = winner.score});
      }
    }
    outcome.conflicts_resolved += static_cast<int64_t>(resolved.redispatched.size());
    if (commits_counter_ != nullptr) {
      commits_counter_->Inc(0, resolved.committed.size());
      conflicts_counter_->Inc(0, resolved.redispatched.size());
    }

    auto requeue = [&](size_t shard, PendingEntry entry, WaitReason reason) {
      entry.last_reason = reason;
      if (++entry.attempts >= max_attempts_per_pod_) {
        outcome.unplaced.emplace_back(entry.pod, entry.last_reason);
        return;
      }
      queues[shard].push_back(entry);
    };
    for (size_t s = 0; s < num_shards; ++s) {
      const ShardDecision& d = decisions[s];
      if (!d.active) {
        continue;
      }
      if (!d.decision.placed()) {
        requeue(s, d.entry, d.decision.reason);
        continue;
      }
      const bool committed = std::any_of(
          resolved.committed.begin(), resolved.committed.end(),
          [&](const ScheduleProposal& p) { return p.pod == d.entry.pod->id; });
      if (!committed) {
        if (span_log_ != nullptr) {
          span_log_->Append({.tick = cluster.now(),
                             .pod = d.entry.pod->id,
                             .phase = obs::SpanPhase::kConflictRetried,
                             .host = d.decision.host});
        }
        requeue(s, d.entry, WaitReason::kOther);  // lost the conflict
      }
    }
    if (profiler_ != nullptr) {
      profiler_->RecordNs(obs::ProfilePhase::kCommit, 0,
                          std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - commit_start)
                              .count());
      profiler_->EndRound(barrier_ns);
    }
  }
  return outcome;
}

}  // namespace optum::core
