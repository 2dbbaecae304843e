#include "src/core/optum_scheduler.h"

#include <algorithm>
#include <span>

#include "src/common/check.h"
#include "src/common/shard_crew.h"
#include "src/obs/timer.h"
#include "src/sched/common.h"

namespace optum::core {

OptumScheduler::OptumScheduler(OptumProfiles profiles, OptumConfig config)
    : profiles_(std::make_unique<OptumProfiles>(std::move(profiles))),
      config_(config),
      usage_predictor_(profiles_.get(),
                       config.use_triple_ero
                           ? ResourceUsagePredictor::Grouping::kTripleWise
                           : ResourceUsagePredictor::Grouping::kPairwise),
      interference_predictor_(profiles_.get()),
      rng_(config.seed) {}

OptumScheduler::~OptumScheduler() = default;

OptumScheduler::HostEvaluation OptumScheduler::EvaluateHost(const PodSpec& pod,
                                                            const Host& host) const {
  HostEvaluation eval;
  const Resources predicted = usage_predictor_.PredictHost(host, &pod);
  const double cpu_util = predicted.cpu / host.capacity.cpu;
  const double mem_util = predicted.mem / host.capacity.mem;
  // Feasibility: estimated utilization below one (Eq. 6 constraint) and the
  // memory cap of §5.1. The same thresholds classify the shortfall for
  // wait-reason accounting on rejection.
  eval.cpu_blocked = cpu_util > 1.0;
  eval.mem_blocked = mem_util > config_.mem_util_limit;
  if (eval.cpu_blocked || eval.mem_blocked || !AffinityAllows(pod, host)) {
    return eval;
  }
  double interference = 0.0;
  if (config_.score_mode == ScoreMode::kPaperAbsolute) {
    interference = interference_predictor_.TotalInterference(
        host, pod, cpu_util, mem_util, config_.omega_o, config_.omega_b);
  } else {
    const Resources before = usage_predictor_.PredictHost(host, nullptr);
    interference = interference_predictor_.MarginalInterference(
        host, pod, before.cpu / host.capacity.cpu, before.mem / host.capacity.mem,
        cpu_util, mem_util, config_.omega_o, config_.omega_b);
  }
  eval.feasible = true;
  eval.cpu_util = cpu_util;
  eval.mem_util = mem_util;
  eval.interference = interference;
  eval.score = cpu_util * mem_util - interference;
  return eval;
}

bool OptumScheduler::ScoreHost(const PodSpec& pod, const Host& host, double* score) const {
  const HostEvaluation eval = EvaluateHost(pod, host);
  if (!eval.feasible) {
    return false;
  }
  *score = eval.score;
  return true;
}

PlacementDecision OptumScheduler::Place(const PodSpec& pod, const AppProfile& app,
                                        const ClusterState& cluster) {
  (void)app;
  double unused_score = 0.0;
  return PlaceScored(pod, cluster, &unused_score);
}

PlacementDecision OptumScheduler::PlaceScored(const PodSpec& pod,
                                              const ClusterState& cluster,
                                              double* best_score) {
  {
    obs::ScopedTimer timer(sample_timer_, metrics_lane_base_);
    SampleHostsInto(cluster, config_.sample_fraction, config_.min_candidates, rng_,
                    &sample_scratch_, &candidates_);
  }
  ScoreCandidates(pod, cluster, candidates_, /*revalidate=*/false, &epochs_,
                  &scored_);
  return ReduceAndLog(pod, cluster, candidates_, scored_, best_score);
}

void OptumScheduler::ScoreCandidates(const PodSpec& pod,
                                     const ClusterState& cluster,
                                     const std::vector<HostId>& candidates,
                                     bool revalidate,
                                     std::vector<uint64_t>* epochs,
                                     std::vector<HostEvaluation>* evals) {
  usage_predictor_.ReserveHosts(cluster.num_hosts());
  obs::ScopedTimer timer(score_timer_, metrics_lane_base_);
  const size_t n = candidates.size();
  epochs->resize(n);
  evals->resize(n);
  // Each evaluation starts with cold loads at scattered addresses: the Host
  // header (epoch, capacity, pod list), the host's usage baseline and its
  // app_counts array. Prefetching them ahead overlaps those misses with
  // the evaluations in between; app_counts is reached through the header,
  // so it is prefetched nearer, once the header is likely in cache.
  constexpr size_t kHostAhead = 16;
  constexpr size_t kCountsAhead = 8;
  for (size_t i = 0; i < n; ++i) {
    if (i + kHostAhead < n) {
      const HostId ahead = candidates[i + kHostAhead];
      __builtin_prefetch(&cluster.host(ahead));
      usage_predictor_.PrefetchBaseline(ahead);
    }
    if (i + kCountsAhead < n) {
      __builtin_prefetch(cluster.host(candidates[i + kCountsAhead]).app_counts.data());
    }
    const Host& host = cluster.host(candidates[i]);
    if (revalidate && host.change_epoch == (*epochs)[i]) {
      ++evals_kept_;
      continue;
    }
    ++evals_computed_;
    (*epochs)[i] = host.change_epoch;
    (*evals)[i] = EvaluateHost(pod, host);
  }
}

PlacementDecision OptumScheduler::ReduceAndLog(
    const PodSpec& pod, const ClusterState& cluster,
    const std::vector<HostId>& candidates,
    const std::vector<HostEvaluation>& evals, double* best_score) {
  // Reduction in candidate order: ties break toward the earlier sampled
  // candidate.
  size_t best = candidates.size();
  int64_t feasible = 0;
  bool any_cpu = false, any_mem = false;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (evals[i].feasible) {
      ++feasible;
      if (best == candidates.size() || evals[i].score > evals[best].score) {
        best = i;
      }
    } else {
      any_cpu |= evals[i].cpu_blocked;
      any_mem |= evals[i].mem_blocked;
    }
  }
  PlacementDecision decision;
  if (best == candidates.size()) {
    decision = PlacementDecision::Reject(ClassifyShortfall(any_cpu, any_mem));
    if (rejections_counter_ != nullptr) {
      rejections_counter_->Inc(metrics_lane_base_);
    }
  } else {
    *best_score = evals[best].score;
    decision = PlacementDecision::Accept(candidates[best]);
    if (placements_counter_ != nullptr) {
      placements_counter_->Inc(metrics_lane_base_);
    }
  }
  if (span_log_ != nullptr) {
    // The reduction above is complete, so both spans are pure functions of
    // the candidate scores.
    span_log_->Append({.tick = cluster.now(),
                       .pod = pod.id,
                       .phase = obs::SpanPhase::kSampled,
                       .count = static_cast<int64_t>(candidates.size())});
    obs::SpanEvent scored_span{.tick = cluster.now(),
                               .pod = pod.id,
                               .phase = obs::SpanPhase::kScored,
                               .count = feasible};
    if (best != candidates.size()) {
      scored_span.has_score = true;
      scored_span.score = evals[best].score;
    }
    span_log_->Append(scored_span);
  }
  if (decision_log_ != nullptr) {
    LogDecision(pod, cluster, candidates, evals, decision);
  }
  return decision;
}

void OptumScheduler::AttachSinks(const obs::Sinks& sinks, size_t lane_base,
                                 const std::string& prefix) {
  sinks_ = sinks;
  span_log_ = sinks.span_log;
  decision_log_ = sinks.decision_log;
  obs::MetricRegistry* registry = sinks.metrics;
  metrics_ = registry;
  metrics_lane_base_ = lane_base;
  if (registry == nullptr) {
    sample_timer_ = nullptr;
    score_timer_ = nullptr;
    placements_counter_ = nullptr;
    rejections_counter_ = nullptr;
    return;
  }
  registry->set_num_lanes(lane_base + 1);
  sample_timer_ = registry->histogram(prefix + ".sample_seconds");
  score_timer_ = registry->histogram(prefix + ".score_seconds");
  placements_counter_ = registry->counter(prefix + ".placements");
  rejections_counter_ = registry->counter(prefix + ".rejections");
  // Pull-style table-read statistics: refreshed from the predictor's
  // tallies at every registry sample/export, without per-read registry
  // calls. The collector holds a pointer to this scheduler: attach once,
  // and keep the scheduler alive until the registry's final export.
  const InterferencePredictor* predictor = &interference_predictor_;
  registry->AddCollector([predictor, prefix](obs::MetricRegistry* r) {
    const InterferencePredictor::CacheStats s = predictor->cache_stats();
    const auto rate = [](uint64_t hits, uint64_t misses) {
      const uint64_t total = hits + misses;
      return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
    };
    r->gauge(prefix + ".pred_cache_hits")->Set(static_cast<double>(s.predict_hits));
    r->gauge(prefix + ".pred_cache_hit_rate")->Set(rate(s.predict_hits, s.predict_misses));
    r->gauge(prefix + ".slope_cache_hits")->Set(static_cast<double>(s.slope_hits));
    r->gauge(prefix + ".slope_cache_hit_rate")->Set(rate(s.slope_hits, s.slope_misses));
    r->gauge(prefix + ".forest_evals")->Set(static_cast<double>(s.forest_evals()));
  });
}

void OptumScheduler::LogDecision(const PodSpec& pod, const ClusterState& cluster,
                                 const std::vector<HostId>& candidates,
                                 const std::vector<HostEvaluation>& evals,
                                 const PlacementDecision& decision) {
  obs::DecisionTrace trace;
  trace.tick = cluster.now();
  trace.pod = pod.id;
  trace.app = pod.app;
  trace.slo = pod.slo;
  trace.candidates_sampled = candidates.size();
  trace.chosen = decision.host;
  trace.reject_reason = ToString(decision.reason);

  // Top-k selection by score (ties toward the earlier candidate, matching
  // the reduction); k is small, so insertion into a fixed window is fine.
  const size_t k = decision_log_->top_k();
  std::vector<size_t> top;
  top.reserve(k + 1);
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (!evals[i].feasible) {
      continue;
    }
    ++trace.candidates_feasible;
    size_t pos = top.size();
    while (pos > 0 && evals[top[pos - 1]].score < evals[i].score) {
      --pos;
    }
    if (pos < k) {
      top.insert(top.begin() + static_cast<ptrdiff_t>(pos), i);
      if (top.size() > k) {
        top.pop_back();
      }
    }
  }
  // The reduction's winner is always the top-ranked candidate: both orders
  // are by score with ties toward the earlier sample.
  if (decision.placed() && !top.empty()) {
    trace.chosen_score = evals[top[0]].score;
  }
  for (const size_t i : top) {
    const HostEvaluation& eval = evals[i];
    obs::CandidateTrace c;
    c.host = candidates[i];
    c.feasible = true;
    c.score = eval.score;
    c.cpu_util = eval.cpu_util;
    c.mem_util = eval.mem_util;
    c.usage_fit = eval.cpu_util * eval.mem_util;
    c.interference = eval.interference;
    trace.top.push_back(c);
  }
  decision_log_->Append(trace);
}

void OptumScheduler::ReplaceProfiles(OptumProfiles profiles) {
  *profiles_ = std::move(profiles);
  interference_predictor_.Reload();
  // The ERO table and memory profiles changed wholesale (and the fresh
  // table's version counter may collide with the old one), so every cached
  // host baseline is stale.
  usage_predictor_.InvalidateAll();
}

void OptumScheduler::BeginSpeculative(const PodSpec& pod,
                                      const ClusterState& cluster,
                                      SpeculativeScore* out) {
  out->pod = pod.id;
  {
    // Exactly the PlaceScored sampling step: one draw from the serial rng_
    // stream, so speculate-then-finalize and plain PlaceScored see identical
    // candidate sequences.
    obs::ScopedTimer timer(sample_timer_, metrics_lane_base_);
    SampleHostsInto(cluster, config_.sample_fraction, config_.min_candidates, rng_,
                    &sample_scratch_, &out->candidates);
  }
  ScoreCandidates(pod, cluster, out->candidates, /*revalidate=*/false,
                  &out->epochs, &out->evals);
}

PlacementDecision OptumScheduler::FinalizeSpeculative(const PodSpec& pod,
                                                      const ClusterState& cluster,
                                                      SpeculativeScore* spec,
                                                      double* best_score) {
  OPTUM_CHECK_EQ(spec->pod, pod.id);
  ScoreCandidates(pod, cluster, spec->candidates, /*revalidate=*/true,
                  &spec->epochs, &spec->evals);
  return ReduceAndLog(pod, cluster, spec->candidates, spec->evals, best_score);
}

void OptumScheduler::ObserveColocation(const ClusterState& cluster, Tick now) {
  if (config_.observe_period <= 0 || (last_observe_ >= 0 &&
                                      now - last_observe_ < config_.observe_period)) {
    return;
  }
  last_observe_ = now;
  // Each host is one co-location sample, reduced by the same ColocationGroup
  // step as the offline profiler's (tick, host) groups. The table is only
  // read until every block is collected; cells only rise, so what a block
  // drops against it would also be a no-op at its serial turn.
  constexpr size_t kHostsPerBlock = 16;
  const size_t triple_cap = config_.use_triple_ero ? SIZE_MAX : 0;
  const EroTable& ero = profiles_->ero;
  const std::span<const Host> hosts = cluster.hosts();
  const size_t num_blocks = (hosts.size() + kHostsPerBlock - 1) / kHostsPerBlock;
  if (observe_blocks_.size() < num_blocks) {
    observe_blocks_.resize(num_blocks);
  }
  auto collect = [&](size_t b) {
    ObserveBlock& block = observe_blocks_[b];
    block.changes.clear();
    const size_t end = std::min(hosts.size(), (b + 1) * kHostsPerBlock);
    for (size_t h = b * kHostsPerBlock; h < end; ++h) {
      block.group.Reset();
      for (const PodRuntime* pod : hosts[h].pods) {
        block.group.Add(pod->spec.app, pod->cpu_usage, pod->spec.request.cpu);
      }
      block.group.CollectChanges(ero, triple_cap, &block.changes);
    }
  };
  if (ShardCrew* crew = cluster.crew()) {
    crew->ParallelFor(num_blocks, collect, /*chunk=*/1);
  } else {
    for (size_t b = 0; b < num_blocks; ++b) {
      collect(b);
    }
  }
  // Host order: blocks in order, each in the order its hosts produced them.
  for (size_t b = 0; b < num_blocks; ++b) {
    for (const EroObservation& o : observe_blocks_[b].changes) {
      profiles_->ero.Apply(o);
    }
  }
}

}  // namespace optum::core
