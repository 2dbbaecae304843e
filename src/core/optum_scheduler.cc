#include "src/core/optum_scheduler.h"

#include <algorithm>

#include "src/common/check.h"
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
      interference_predictor_(profiles_.get(), /*cache_buckets=*/64,
                              /*use_host_app_counts=*/config.use_incremental_cache),
      rng_(config.seed) {
  usage_predictor_.set_cache_enabled(config_.use_incremental_cache);
}

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
  scored_.resize(candidates_.size());
  usage_predictor_.ReserveHosts(cluster.num_hosts());

  // With a decision log attached, each candidate is additionally tagged with
  // the cache-miss delta its scoring caused — reading a counter, which
  // cannot perturb the scores themselves.
  const bool tag_misses = decision_log_ != nullptr;
  {
    obs::ScopedTimer timer(score_timer_, metrics_lane_base_);
    for (size_t i = 0; i < candidates_.size(); ++i) {
      if (tag_misses) {
        const uint64_t misses_before = interference_predictor_.lane_misses(0);
        scored_[i] = EvaluateHost(pod, cluster.host(candidates_[i]));
        scored_[i].cache_misses = interference_predictor_.lane_misses(0) - misses_before;
      } else {
        scored_[i] = EvaluateHost(pod, cluster.host(candidates_[i]));
      }
    }
  }

  return ReduceAndLog(pod, cluster, candidates_, scored_, best_score,
                      /*emit_decision_log=*/true);
}

PlacementDecision OptumScheduler::ReduceAndLog(
    const PodSpec& pod, const ClusterState& cluster,
    const std::vector<HostId>& candidates,
    const std::vector<HostEvaluation>& evals, double* best_score,
    bool emit_decision_log) {
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
  // LogDecision reads the candidates_/scored_ members, so the decision log
  // is only emitted from PlaceScored, where `candidates`/`evals` ARE those
  // members; speculative finalization never runs with a decision log
  // attached (speculation_supported() gates it).
  if (emit_decision_log && decision_log_ != nullptr) {
    LogDecision(pod, cluster, decision);
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
    interference_predictor_.set_forest_timer(nullptr);
    return;
  }
  registry->set_num_lanes(lane_base + 1);
  sample_timer_ = registry->histogram(prefix + ".sample_seconds");
  score_timer_ = registry->histogram(prefix + ".score_seconds");
  placements_counter_ = registry->counter(prefix + ".placements");
  rejections_counter_ = registry->counter(prefix + ".rejections");
  interference_predictor_.set_forest_timer(
      registry->histogram(prefix + ".forest_eval_seconds"), lane_base);
  // Pull-style cache statistics: refreshed from the predictor's lane-merged
  // tallies at every registry sample/export, so the per-tick series tracks
  // hit-rate evolution without per-probe registry calls. The collector
  // holds a pointer to this scheduler: attach once, and keep the scheduler
  // alive until the registry's final export.
  const InterferencePredictor* predictor = &interference_predictor_;
  registry->AddCollector([predictor, prefix](obs::MetricRegistry* r) {
    const InterferencePredictor::CacheStats s = predictor->cache_stats();
    const auto rate = [](uint64_t hits, uint64_t misses) {
      const uint64_t total = hits + misses;
      return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
    };
    r->gauge(prefix + ".pred_cache_hits")->Set(static_cast<double>(s.predict_hits));
    r->gauge(prefix + ".pred_cache_misses")
        ->Set(static_cast<double>(s.predict_misses));
    r->gauge(prefix + ".pred_cache_hit_rate")->Set(rate(s.predict_hits, s.predict_misses));
    r->gauge(prefix + ".raw_cache_hit_rate")->Set(rate(s.raw_hits, s.raw_misses));
    r->gauge(prefix + ".slope_cache_hits")->Set(static_cast<double>(s.slope_hits));
    r->gauge(prefix + ".slope_cache_misses")
        ->Set(static_cast<double>(s.slope_misses));
    r->gauge(prefix + ".slope_cache_hit_rate")->Set(rate(s.slope_hits, s.slope_misses));
    r->gauge(prefix + ".forest_evals")->Set(static_cast<double>(s.forest_evals()));
  });
}

void OptumScheduler::LogDecision(const PodSpec& pod, const ClusterState& cluster,
                                 const PlacementDecision& decision) {
  obs::DecisionTrace trace;
  trace.tick = cluster.now();
  trace.pod = pod.id;
  trace.app = pod.app;
  trace.slo = pod.slo;
  trace.candidates_sampled = candidates_.size();
  trace.chosen = decision.host;
  trace.reject_reason = ToString(decision.reason);

  // Top-k selection by score (ties toward the earlier candidate, matching
  // the reduction); k is small, so insertion into a fixed window is fine.
  const size_t k = decision_log_->top_k();
  std::vector<size_t> top;
  top.reserve(k + 1);
  for (size_t i = 0; i < candidates_.size(); ++i) {
    if (!scored_[i].feasible) {
      continue;
    }
    ++trace.candidates_feasible;
    size_t pos = top.size();
    while (pos > 0 && scored_[top[pos - 1]].score < scored_[i].score) {
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
    trace.chosen_score = scored_[top[0]].score;
  }
  for (const size_t i : top) {
    obs::CandidateTrace c;
    c.host = candidates_[i];
    c.feasible = true;
    c.score = scored_[i].score;
    c.cpu_util = scored_[i].cpu_util;
    c.mem_util = scored_[i].mem_util;
    c.usage_fit = scored_[i].cpu_util * scored_[i].mem_util;
    c.interference = scored_[i].interference;
    c.cache_misses = scored_[i].cache_misses;
    trace.top.push_back(c);
  }
  decision_log_->Append(trace);
}

void OptumScheduler::ReplaceProfiles(OptumProfiles profiles) {
  *profiles_ = std::move(profiles);
  interference_predictor_.ClearCache();
  // The ERO table and memory profiles changed wholesale (and the fresh
  // table's version counter may collide with the old one), so every cached
  // host baseline is stale.
  usage_predictor_.InvalidateAll();
  // Retire every evaluation-memo entry at once: memoized scores depend on
  // the profile set, and the fresh ERO version may collide with the old.
  ++memo_generation_;
}

void OptumScheduler::EnsureMemo(size_t num_hosts) {
  if (!memo_.empty()) {
    return;
  }
  // ~64 slots per host keeps the direct-mapped collision rate low across
  // the population of applications scoring each host (the live key set is
  // hosts × apps, and a single hot collision pair thrashes both keys for
  // as long as they stay hot); clamped so tiny clusters still get a useful
  // table and huge ones stay bounded (512Ki entries ≈ 48 MiB — the probe
  // loop prefetches ahead, so capacity buys hit rate without paying the
  // extra LLC latency on the critical path).
  const size_t want = std::clamp<size_t>(num_hosts * 64, size_t{1} << 12,
                                         size_t{1} << 19);
  size_t slots = 1;
  while (slots < want) {
    slots <<= 1;
  }
  memo_.assign(slots, MemoEntry{});
  memo_mask_ = slots - 1;
}

OptumScheduler::MemoEntry* OptumScheduler::MemoSlot(HostId host, AppId app) {
  // Direct-mapped: one multiplicative-hash probe, stale entries overwritten
  // in place. Collisions only cost a recompute, never a wrong answer (the
  // entry stores its full key).
  uint64_t x = (static_cast<uint64_t>(static_cast<uint32_t>(app)) << 32) ^
               static_cast<uint64_t>(static_cast<uint32_t>(host));
  x *= 0x9e3779b97f4a7c15ULL;
  x ^= x >> 29;
  return &memo_[static_cast<size_t>(x) & memo_mask_];
}

void OptumScheduler::ScoreThroughMemo(const PodSpec& pod,
                                      const ClusterState& cluster,
                                      const std::vector<HostId>& candidates,
                                      const std::vector<uint8_t>* skip,
                                      std::vector<uint64_t>* epochs,
                                      std::vector<HostEvaluation>* evals) {
  const size_t n = candidates.size();
  epochs->resize(n);
  evals->resize(n);
  const uint64_t ero_version = profiles_->ero.version();

  // Serial probe pass: collect the indices the memo cannot answer. Each
  // probe touches two cold lines — a random slot of the multi-MiB memo and
  // the candidate's Host header for the epoch check — so issue both
  // prefetches a few iterations ahead; the probe itself is only a handful
  // of compares and the LLC round-trips would otherwise dominate the hit
  // path.
  // Distance tuned for a hit-dominated loop: iterations are ~20 ns of
  // compares, so 16 ahead covers a full DRAM round-trip on the big table.
  constexpr size_t kProbeAhead = 16;
  memo_miss_scratch_.clear();
  for (size_t i = 0; i < n; ++i) {
    if (i + kProbeAhead < n) {
      const HostId ahead = candidates[i + kProbeAhead];
      __builtin_prefetch(MemoSlot(ahead, pod.app));
      __builtin_prefetch(&cluster.host(ahead));
    }
    if (skip != nullptr && (*skip)[i] != 0) {
      continue;  // caller-validated entry, epoch/eval already current
    }
    const HostId id = candidates[i];
    const Host& host = cluster.host(id);
    (*epochs)[i] = host.change_epoch;
    const MemoEntry* slot = MemoSlot(id, pod.app);
    if (slot->host == id && slot->epoch == host.change_epoch &&
        slot->generation == memo_generation_ &&
        slot->ero_version == ero_version && slot->app == pod.app &&
        slot->slo == pod.slo &&
        slot->max_pods_per_host == pod.max_pods_per_host &&
        slot->req_cpu == pod.request.cpu && slot->req_mem == pod.request.mem) {
      ++memo_hits_;
      // Reconstruct the reduced evaluation; the Eq. 11 breakdown is absent
      // from the memo by design (see MemoEntry) and unused on this path.
      HostEvaluation& eval = (*evals)[i];
      eval = HostEvaluation{};
      eval.feasible = slot->feasible;
      eval.cpu_blocked = slot->cpu_blocked;
      eval.mem_blocked = slot->mem_blocked;
      eval.score = slot->score;
    } else {
      ++memo_misses_;
      memo_miss_scratch_.push_back(static_cast<uint32_t>(i));
    }
  }

  // Evaluate the misses and install them. EvaluateHost is a pure function
  // of the memo key, so the memo stays bit-identical to uncached evaluation.
  for (const uint32_t k : memo_miss_scratch_) {
    (*evals)[k] = EvaluateHost(pod, cluster.host(candidates[k]));
    const HostId id = candidates[k];
    MemoEntry* slot = MemoSlot(id, pod.app);
    slot->host = id;
    slot->epoch = (*epochs)[k];
    slot->ero_version = ero_version;
    slot->generation = memo_generation_;
    slot->app = pod.app;
    slot->slo = pod.slo;
    slot->max_pods_per_host = pod.max_pods_per_host;
    slot->req_cpu = pod.request.cpu;
    slot->req_mem = pod.request.mem;
    const HostEvaluation& eval = (*evals)[k];
    slot->feasible = eval.feasible;
    slot->cpu_blocked = eval.cpu_blocked;
    slot->mem_blocked = eval.mem_blocked;
    slot->score = eval.score;
  }
}

void OptumScheduler::BeginSpeculative(const PodSpec& pod,
                                      const ClusterState& cluster,
                                      SpeculativeScore* out) {
  OPTUM_CHECK_MSG(speculation_supported(),
                  "speculative scoring is unavailable with a decision log attached");
  out->pod = pod.id;
  {
    // Exactly the PlaceScored sampling step: one draw from the serial rng_
    // stream, so speculate-then-finalize and plain PlaceScored see identical
    // candidate sequences.
    obs::ScopedTimer timer(sample_timer_, metrics_lane_base_);
    SampleHostsInto(cluster, config_.sample_fraction, config_.min_candidates, rng_,
                    &sample_scratch_, &out->candidates);
  }
  usage_predictor_.ReserveHosts(cluster.num_hosts());
  EnsureMemo(cluster.num_hosts());
  obs::ScopedTimer timer(score_timer_, metrics_lane_base_);
  ScoreThroughMemo(pod, cluster, out->candidates, /*skip=*/nullptr,
                   &out->epochs, &out->evals);
}

PlacementDecision OptumScheduler::FinalizeSpeculative(const PodSpec& pod,
                                                      const ClusterState& cluster,
                                                      SpeculativeScore* spec,
                                                      double* best_score) {
  OPTUM_CHECK_MSG(speculation_supported(),
                  "speculative scoring is unavailable with a decision log attached");
  OPTUM_CHECK_EQ(spec->pod, pod.id);
  const size_t n = spec->candidates.size();
  // Revalidate the epoch snapshot: a candidate whose change_epoch still
  // matches was untouched by every commit since BeginSpeculative (only
  // commits mutate hosts during a batch), so its evaluation stands.
  memo_skip_scratch_.assign(n, 1);
  bool any_stale = false;
  for (size_t i = 0; i < n; ++i) {
    if (i + 16 < n) {
      __builtin_prefetch(&cluster.host(spec->candidates[i + 16]));
    }
    if (cluster.host(spec->candidates[i]).change_epoch != spec->epochs[i]) {
      memo_skip_scratch_[i] = 0;
      any_stale = true;
    }
  }
  if (any_stale) {
    obs::ScopedTimer timer(score_timer_, metrics_lane_base_);
    ScoreThroughMemo(pod, cluster, spec->candidates, &memo_skip_scratch_,
                     &spec->epochs, &spec->evals);
  }
  return ReduceAndLog(pod, cluster, spec->candidates, spec->evals, best_score,
                      /*emit_decision_log=*/false);
}

void OptumScheduler::ObserveColocation(const ClusterState& cluster, Tick now) {
  if (config_.observe_period <= 0 || (last_observe_ >= 0 &&
                                      now - last_observe_ < config_.observe_period)) {
    return;
  }
  last_observe_ = now;
  // Per host, the two highest-usage pods per application, then pairwise RO
  // updates (including same-application pairs) — mirroring the offline
  // Resource Usage Profiler.
  struct Rep {
    AppId app;
    double cpu;
    double cpu_request;
    double cpu2 = -1.0;  // second-best usage; < 0 when absent
    double cpu2_request = 0.0;
  };
  std::vector<Rep> reps;
  for (const Host& host : cluster.hosts()) {
    if (host.pods.size() < 2) {
      continue;
    }
    reps.clear();
    for (const PodRuntime* pod : host.pods) {
      bool merged = false;
      for (auto& r : reps) {
        if (r.app == pod->spec.app) {
          if (pod->cpu_usage > r.cpu) {
            r.cpu2 = r.cpu;
            r.cpu2_request = r.cpu_request;
            r.cpu = pod->cpu_usage;
            r.cpu_request = pod->spec.request.cpu;
          } else if (pod->cpu_usage > r.cpu2) {
            r.cpu2 = pod->cpu_usage;
            r.cpu2_request = pod->spec.request.cpu;
          }
          merged = true;
          break;
        }
      }
      if (!merged) {
        reps.push_back(Rep{pod->spec.app, pod->cpu_usage, pod->spec.request.cpu});
      }
    }
    for (size_t a = 0; a < reps.size(); ++a) {
      if (reps[a].cpu2 >= 0.0) {
        const double denom = reps[a].cpu_request + reps[a].cpu2_request;
        if (denom > 0) {
          profiles_->ero.Observe(reps[a].app, reps[a].app,
                                 (reps[a].cpu + reps[a].cpu2) / denom);
        }
      }
      for (size_t b = a + 1; b < reps.size(); ++b) {
        const double denom = reps[a].cpu_request + reps[b].cpu_request;
        if (denom <= 0) {
          continue;
        }
        profiles_->ero.Observe(reps[a].app, reps[b].app,
                               (reps[a].cpu + reps[b].cpu) / denom);
        if (config_.use_triple_ero) {
          for (size_t c = b + 1; c < reps.size(); ++c) {
            const double denom3 =
                reps[a].cpu_request + reps[b].cpu_request + reps[c].cpu_request;
            if (denom3 <= 0) {
              continue;
            }
            profiles_->ero.ObserveTriple(reps[a].app, reps[b].app, reps[c].app,
                                         (reps[a].cpu + reps[b].cpu + reps[c].cpu) /
                                             denom3);
          }
        }
      }
    }
  }
}

}  // namespace optum::core
