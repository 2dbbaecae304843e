#include "src/sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/common/check.h"
#include "src/obs/profiler.h"
#include "src/obs/timer.h"

namespace optum {
namespace {

// Software prefetch distances, in pods. A PodRuntime is 408 bytes (7 cache
// lines) wherever the cluster's deque and free list put it, so the tick's
// walks over pod pointers are bound by memory latency, not arithmetic.
// The host pass fetches the record two pods ahead in host.pods, which
// overlaps its misses with the current pod's draws; the record build does
// less work per pod, so it fetches further ahead in running_.
constexpr size_t kHostPassPrefetchPods = 2;
constexpr size_t kRecordPrefetchPods = 4;

// Prefetches every cache line the PodRuntime occupies.
void PrefetchPod(const PodRuntime* pod) {
  constexpr uintptr_t kLine = 64;
  const uintptr_t begin = reinterpret_cast<uintptr_t>(pod);
  const uintptr_t end = begin + sizeof(PodRuntime);
  for (uintptr_t line = begin & ~(kLine - 1); line < end; line += kLine) {
    __builtin_prefetch(reinterpret_cast<const void*>(line));
  }
}

// The newest best-effort pod on `host`, or nullptr when it runs none: the
// victim of both LSR preemption and the OOM killer.
PodRuntime* NewestBe(const Host& host) {
  for (auto it = host.pods.rbegin(); it != host.pods.rend(); ++it) {
    if ((*it)->spec.slo == SloClass::kBe) {
      return *it;
    }
  }
  return nullptr;
}

// The lifecycle record of a pod that finished at `finish_tick`, or of one
// still running at the horizon (finish_tick = -1, no completion time).
PodLifecycleRecord LifecycleOf(const PodRuntime& pod, Tick finish_tick) {
  PodLifecycleRecord rec;
  rec.pod_id = pod.spec.id;
  rec.app_id = pod.spec.app;
  rec.slo = pod.spec.slo;
  rec.submit_tick = pod.spec.submit_tick;
  rec.schedule_tick = pod.scheduled_at;
  rec.finish_tick = finish_tick;
  rec.host = pod.host;
  rec.waiting_seconds =
      static_cast<double>(pod.scheduled_at - pod.spec.submit_tick) * kSecondsPerTick;
  if (pod.spec.slo == SloClass::kBe) {
    rec.ideal_completion_ticks = pod.spec.behavior.work_ticks;
    rec.actual_completion_ticks =
        finish_tick < 0 ? 0.0 : static_cast<double>(finish_tick - pod.scheduled_at);
  }
  rec.max_cpu_psi = pod.max_psi;
  return rec;
}

}  // namespace

const char* ToString(WaitReason reason) {
  switch (reason) {
    case WaitReason::kNone:
      return "None";
    case WaitReason::kInsufficientCpu:
      return "CPU";
    case WaitReason::kInsufficientMem:
      return "Mem";
    case WaitReason::kInsufficientCpuAndMem:
      return "CPU&Mem";
    case WaitReason::kOther:
      return "Other";
  }
  return "?";
}

double SimResult::MeanCpuUtilNonIdle() const {
  if (util_series.empty()) {
    return 0.0;
  }
  double acc = 0.0;
  for (const auto& s : util_series) {
    acc += s.avg_cpu_nonidle;
  }
  return acc / static_cast<double>(util_series.size());
}

double SimResult::MeanMemUtilNonIdle() const {
  if (util_series.empty()) {
    return 0.0;
  }
  double acc = 0.0;
  for (const auto& s : util_series) {
    acc += s.avg_mem_nonidle;
  }
  return acc / static_cast<double>(util_series.size());
}

Simulator::Simulator(const Workload& workload, SimConfig config, PlacementPolicy& policy)
    : workload_(workload),
      config_(config),
      policy_(policy),
      psi_model_(config.psi),
      cluster_(workload.config.num_hosts, config.host_capacity,
               config.nsigma_history_window),
      rng_(config.seed),
      crew_(config.num_lanes) {
  OPTUM_CHECK_MSG(config_.sinks.series == nullptr || config_.sinks.metrics != nullptr,
                  "SimConfig::series requires SimConfig::metrics");
  cluster_.lend_crew(&crew_);
  wait_by_pod_.resize(workload.pods.size());
  tick_scratch_.resize(static_cast<size_t>(workload.config.num_hosts));
  if (config_.sinks.metrics != nullptr) {
    obs::MetricRegistry* m = config_.sinks.metrics;
    sim_metrics_.tick_timer = m->histogram("sim.tick_seconds");
    sim_metrics_.cpu_util = m->gauge("sim.avg_cpu_util_nonidle");
    sim_metrics_.mem_util = m->gauge("sim.avg_mem_util_nonidle");
    sim_metrics_.frac_nonidle = m->gauge("sim.frac_hosts_nonidle");
    sim_metrics_.pending = m->gauge("sim.pending_pods");
    sim_metrics_.running = m->gauge("sim.running_pods");
    sim_metrics_.scheduled = m->gauge("sim.scheduled_pods");
    sim_metrics_.oom_kills = m->gauge("sim.oom_kills");
    sim_metrics_.preemptions = m->gauge("sim.preemptions");
    sim_metrics_.violations = m->gauge("sim.violation_host_ticks");
  }
  result_.trace.nodes.reserve(static_cast<size_t>(workload.config.num_hosts));
  for (int h = 0; h < workload.config.num_hosts; ++h) {
    result_.trace.nodes.push_back(NodeMeta{h, config.host_capacity});
  }
}

void Simulator::AddRunning(PodRuntime* pod) {
  pod->running_index = running_.size();
  running_.push_back(pod);
}

void Simulator::RemoveFromRunning(PodRuntime* pod) {
  const size_t idx = pod->running_index;
  OPTUM_CHECK(idx < running_.size() && running_[idx] == pod);
  PodRuntime* moved = running_.back();
  running_[idx] = moved;
  moved->running_index = idx;
  running_.pop_back();
  pod->running_index = static_cast<size_t>(-1);
}

void Simulator::EnqueueArrivals() {
  while (next_arrival_ < workload_.pods.size() &&
         workload_.pods[next_arrival_].submit_tick <= now_) {
    const PodSpec* spec = &workload_.pods[next_arrival_];
    const int prio = SchedulingPriority(spec->slo);
    pending_[prio].push_back(PendingPod{spec, now_});
    ++next_arrival_;
    if (config_.sinks.span_log != nullptr) {
      config_.sinks.span_log->Append(
          {.tick = now_, .pod = spec->id, .phase = obs::SpanPhase::kSubmitted});
    }
  }
}

void Simulator::NoteWaitReason(const PodSpec& pod, WaitReason reason) {
  WaitSample& w = wait_by_pod_[static_cast<size_t>(pod.id)];
  w.pod = pod.id;
  w.slo = pod.slo;
  w.request = pod.request;
  w.reason = reason;
}

void Simulator::CommitPlacement(const PodSpec& spec, const AppProfile& app, HostId host) {
  PodRuntime* pod = cluster_.Place(spec, &app, host, now_);
  AddRunning(pod);
  ++result_.scheduled_pods;
  policy_.OnPodPlaced(*pod, cluster_);
  if (config_.sinks.span_log != nullptr) {
    config_.sinks.span_log->Append({.tick = now_,
                              .pod = spec.id,
                              .phase = obs::SpanPhase::kPlaced,
                              .host = host,
                              .wait_ticks = now_ - spec.submit_tick});
  }

  PodMeta meta;
  meta.pod_id = spec.id;
  meta.app_id = spec.app;
  meta.slo = spec.slo;
  meta.request = spec.request;
  meta.limit = spec.limit;
  meta.submit_tick = spec.submit_tick;
  meta.original_machine_id = host;
  result_.trace.pods.push_back(meta);
}

bool Simulator::TryPreemptForLsr(const PodSpec& pod, const AppProfile& app) {
  // Find the host whose evictable BE request mass best covers the shortfall,
  // then evict newest-first until the LSR pod's request fits the capacity.
  // Only hosts with at least one BE pod can help, and their evictable mass
  // is maintained incrementally, so the scan skips the rest of the cluster.
  HostId best = kInvalidHostId;
  double best_score = -1.0;
  for (const HostId hid : cluster_.hosts_with_be()) {
    const Host& h = cluster_.host(hid);
    if (!AffinityAllows(pod, h)) {
      continue;
    }
    const double be_request = h.be_request_cpu;
    const double after_cpu = h.request_sum.cpu - be_request + pod.request.cpu;
    const double after_mem = h.demand.mem + pod.request.mem;  // conservative
    if (after_cpu <= h.capacity.cpu && after_mem <= h.capacity.mem &&
        be_request > best_score) {
      best_score = be_request;
      best = h.id;
    }
  }
  if (best == kInvalidHostId) {
    return false;
  }
  Host& h = cluster_.mutable_host(best);
  // Evict newest BE pods until the request fits.
  while (h.request_sum.cpu + pod.request.cpu > h.capacity.cpu) {
    PodRuntime* victim = NewestBe(h);
    if (victim == nullptr) {
      break;
    }
    ++result_.preemptions;
    Evict(victim, "Preempt");
  }
  if (h.request_sum.cpu + pod.request.cpu > h.capacity.cpu) {
    return false;  // Not enough evictable mass after all.
  }
  CommitPlacement(pod, app, best);
  return true;
}

void Simulator::SchedulePending() {
  size_t attempts = 0;
  for (int prio = 3; prio >= 1; --prio) {
    auto& queue = pending_[prio];
    size_t remaining = queue.size();
    while (remaining-- > 0 && attempts < config_.max_attempts_per_tick) {
      PendingPod item = queue.front();
      queue.pop_front();
      ++attempts;
      const PodSpec& spec = *item.spec;
      const AppProfile& app = AppOf(workload_, spec.app);
      const PlacementDecision decision = policy_.Place(spec, app, cluster_);
      if (decision.placed()) {
        CommitPlacement(spec, app, decision.host);
        continue;
      }
      // LSR pods may preempt BE pods rather than wait (paper §3.1.3).
      if (spec.slo == SloClass::kLsr && config_.enable_lsr_preemption &&
          TryPreemptForLsr(spec, app)) {
        continue;
      }
      NoteWaitReason(spec, decision.reason);
      if (config_.sinks.span_log != nullptr) {
        config_.sinks.span_log->Append({.tick = now_,
                                  .pod = spec.id,
                                  .phase = obs::SpanPhase::kQueued,
                                  .reason = ToString(decision.reason)});
      }
      queue.push_back(item);  // Retry next tick.
    }
  }
}

void Simulator::UpdateUsageAndPerformance() {
  // One crew pass over hosts, one host per index, then a serial pass over
  // the rare hosts that ran out of memory. Determinism for any lane count:
  // every stochastic draw comes from a per-pod stream, each host (and so
  // each pod) is touched by exactly one lane, settling a host reads only
  // that host, and the shared state — OOM evictions, the counters and the
  // completion order — is updated serially in host order.
  QpsPatternValues(workload_.apps, now_, qps_fraction_);
  const size_t num_hosts = cluster_.num_hosts();
  crew_.ParallelFor(num_hosts, [&](size_t hi) {
    Host& host = cluster_.mutable_host(static_cast<HostId>(hi));
    TickScratch& scratch = tick_scratch_[hi];
    scratch.had_pods = !host.pods.empty();
    // Each resident pod's raw demand from its own noise stream, summed in
    // host.pods order.
    Resources demand = kZeroResources;
    const size_t num_pods = host.pods.size();
    for (size_t i = 0; i < num_pods; ++i) {
      if (i + kHostPassPrefetchPods < num_pods) {
        PrefetchPod(host.pods[i + kHostPassPrefetchPods]);
      }
      PodRuntime* pod = host.pods[i];
      const AppProfile& app = *pod->app;
      const PodBehavior& behavior = pod->spec.behavior;
      const double qps_fraction = qps_fraction_[static_cast<size_t>(pod->spec.app)];
      const double cpu = std::min(PodCpuDemand(app, behavior, qps_fraction, pod->noise),
                                  pod->spec.limit.cpu);
      const double mem = std::min(PodMemDemand(app, behavior, qps_fraction, pod->noise),
                                  pod->spec.limit.mem);
      pod->cpu_demand = cpu;
      pod->mem_usage = mem;
      pod->qps = PodQps(app, behavior, qps_fraction, pod->noise);
      demand += Resources{cpu, mem};
    }
    scratch.demand = demand;
    // A host over memory capacity is settled by the serial pass below,
    // after its OOM kills.
    if (demand.mem <= host.capacity.mem) {
      SettleHost(host, scratch);
    }
  });

  // Serial, rare: memory over-capacity triggers OOM kills of the newest BE
  // pods ("running out-of-memory can kill all programs on the host",
  // §3.1.2; we model the kernel killing best-effort victims first), then the
  // host is settled on what survives. Mutates pending_/running_/cluster_,
  // so it stays on the calling thread.
  for (size_t hi = 0; hi < num_hosts; ++hi) {
    TickScratch& scratch = tick_scratch_[hi];
    Resources& demand = scratch.demand;
    Host& host = cluster_.mutable_host(static_cast<HostId>(hi));
    if (demand.mem <= host.capacity.mem) {
      continue;
    }
    while (demand.mem > host.capacity.mem) {
      PodRuntime* victim = NewestBe(host);
      if (victim == nullptr) {
        victim = host.pods.back();  // Pathological: no BE to kill.
      }
      ++result_.oom_kills;
      demand -= Resources{victim->cpu_demand, victim->mem_usage};
      Evict(victim, "OOM");
      if (host.pods.empty()) {
        break;
      }
    }
    SettleHost(host, scratch);
  }

  // Serial reduce: shared counters, in host order.
  for (size_t hi = 0; hi < num_hosts; ++hi) {
    result_.nonidle_host_ticks += tick_scratch_[hi].had_pods ? 1 : 0;
    result_.violation_host_ticks += tick_scratch_[hi].violation ? 1 : 0;
  }
}

void Simulator::SettleHost(Host& host, TickScratch& scratch) {
  scratch.done.clear();
  scratch.violation = false;
  if (host.pods.empty()) {
    host.demand = kZeroResources;
    host.usage = kZeroResources;
    host.PushHistory(0.0, config_.nsigma_history_window);
    return;
  }
  const Resources demand = scratch.demand;
  host.demand = demand;
  scratch.violation = demand.cpu > host.capacity.cpu + 1e-9;

  // CPU is work-conserving: when demand exceeds capacity every pod is
  // throttled proportionally and contention (PSI) rises.
  const double scale =
      demand.cpu > host.capacity.cpu ? host.capacity.cpu / demand.cpu : 1.0;
  const double demand_ratio = demand.cpu / host.capacity.cpu;
  const double mem_ratio = demand.mem / host.capacity.mem;

  Resources usage = kZeroResources;
  for (PodRuntime* pod : host.pods) {
    pod->cpu_usage = pod->cpu_demand * scale;
    pod->max_cpu_usage = std::max(pod->max_cpu_usage, pod->cpu_usage);
    pod->max_mem_usage = std::max(pod->max_mem_usage, pod->mem_usage);
    pod->RecordCpuSample(pod->cpu_usage, pod->reservoir_rng);
    usage += Resources{pod->cpu_usage, pod->mem_usage};

    const AppProfile& app = *pod->app;
    if (IsLatencySensitive(app.slo)) {
      const double pod_util =
          pod->spec.request.cpu > 0 ? pod->cpu_usage / pod->spec.request.cpu : 0.0;
      pod->psi60 = psi_model_.CpuPsi60(app, demand_ratio, pod_util,
                                       qps_fraction_[static_cast<size_t>(pod->spec.app)],
                                       pod->noise);
      pod->psi300 = psi_model_.CpuPsi300(pod->psi300, pod->psi60);
      pod->max_psi = std::max(pod->max_psi, pod->psi60);
    } else if (app.slo == SloClass::kBe) {
      pod->progress += psi_model_.BeProgressRate(app, demand_ratio, mem_ratio);
    }
    if (pod->spec.slo == SloClass::kBe &&
        pod->progress + 1e-9 >= pod->spec.behavior.work_ticks) {
      scratch.done.push_back(pod);
    }
  }
  host.usage = usage;
  host.PushHistory(usage.cpu / host.capacity.cpu, config_.nsigma_history_window);
}

void Simulator::Evict(PodRuntime* victim, const char* reason) {
  policy_.OnPodFinished(*victim, cluster_);
  if (config_.sinks.span_log != nullptr) {
    config_.sinks.span_log->Append({.tick = now_,
                              .pod = victim->spec.id,
                              .phase = obs::SpanPhase::kEvicted,
                              .host = victim->host,
                              .reason = reason});
  }
  // Resubmit the victim: progress is lost, waiting restarts now.
  pending_[SchedulingPriority(victim->spec.slo)].push_back(
      PendingPod{&workload_.pods[static_cast<size_t>(victim->spec.id)], now_});
  RemoveFromRunning(victim);
  cluster_.Remove(victim);
}

void Simulator::FinishPod(PodRuntime* pod, Tick finish_tick) {
  result_.trace.lifecycles.push_back(LifecycleOf(*pod, finish_tick));
  policy_.OnPodFinished(*pod, cluster_);
  if (config_.sinks.span_log != nullptr) {
    config_.sinks.span_log->Append({.tick = finish_tick,
                              .pod = pod->spec.id,
                              .phase = obs::SpanPhase::kFinished,
                              .host = pod->host});
  }
  RemoveFromRunning(pod);
  cluster_.Remove(pod);
}

void Simulator::HandleCompletions() {
  // Finish the BE pods each host's settle flagged, in running_ order. Sort
  // before the first FinishPod, which swap-removes from running_ and so
  // moves other pods' running_index.
  done_.clear();
  for (const TickScratch& scratch : tick_scratch_) {
    done_.insert(done_.end(), scratch.done.begin(), scratch.done.end());
  }
  std::sort(done_.begin(), done_.end(), [](const PodRuntime* a, const PodRuntime* b) {
    return a->running_index < b->running_index;
  });
  for (PodRuntime* pod : done_) {
    FinishPod(pod, now_);
  }
}

void Simulator::RecordRunningState() {
  if (config_.node_usage_period > 0 && now_ % config_.node_usage_period == 0) {
    double cpu_acc = 0.0, mem_acc = 0.0, cpu_max = 0.0;
    int nonidle = 0;
    for (const Host& host : cluster_.hosts()) {
      const double cpu_util = host.usage.cpu / host.capacity.cpu;
      const double mem_util = host.usage.mem / host.capacity.mem;
      cpu_max = std::max(cpu_max, cpu_util);
      if (host.HasSloWorkload()) {
        ++nonidle;
        cpu_acc += cpu_util;
        mem_acc += mem_util;
        result_.trace.node_usage.push_back(NodeUsageRecord{
            host.id, now_, cpu_util, mem_util,
            /*disk=*/0.3 * mem_util, /*net=*/0.2 * cpu_util});
      }
    }
    UtilSample sample;
    sample.tick = now_;
    sample.avg_cpu_nonidle = nonidle > 0 ? cpu_acc / nonidle : 0.0;
    sample.avg_mem_nonidle = nonidle > 0 ? mem_acc / nonidle : 0.0;
    sample.max_cpu = cpu_max;
    sample.frac_hosts_nonidle =
        static_cast<double>(nonidle) / static_cast<double>(cluster_.num_hosts());
    result_.util_series.push_back(sample);
  }

  if (config_.pod_usage_period > 0 && now_ % config_.pod_usage_period == 0) {
    // Rows (and their per-pod PSI/response-time draws) are built on the crew
    // and written in place at base + running_ position: pod_usage's chunks
    // never move, so its page faults fall on the writing lanes.
    const size_t num_running = running_.size();
    ChunkedRows<PodUsageRecord>& usage = result_.trace.pod_usage;
    const size_t base = usage.Grow(num_running);
    crew_.ParallelFor(num_running, [&](size_t i) {
      if (i + kRecordPrefetchPods < num_running) {
        PrefetchPod(running_[i + kRecordPrefetchPods]);
      }
      PodRuntime* pod = running_[i];
      PodUsageRecord rec;
      rec.pod_id = pod->spec.id;
      rec.host = pod->host;
      rec.collect_tick = now_;
      rec.cpu_usage = pod->cpu_usage;
      rec.mem_usage = pod->mem_usage;
      rec.disk_usage = 0.2 * pod->mem_usage;
      rec.cpu_psi_60 = pod->psi60;
      rec.cpu_psi_10 = psi_model_.CpuPsi10(pod->psi60, pod->noise);
      rec.cpu_psi_300 = pod->psi300;
      const Host& host = cluster_.host(pod->host);
      rec.mem_psi_some_60 = psi_model_.MemPsiSome60(host.MemRatio(), pod->noise);
      rec.mem_psi_full_60 = psi_model_.MemPsiFull60(rec.mem_psi_some_60);
      if (IsLatencySensitive(pod->spec.slo)) {
        rec.qps = pod->qps;
        rec.response_time = psi_model_.ResponseTime(
            *pod->app, pod->psi60, pod->spec.behavior.rt_scale, pod->noise);
      }
      usage[base + i] = rec;
    });
  }
}

void Simulator::FinalizeAtHorizon() {
  // Long-running pods (and unfinished BE pods): record their lifecycle with
  // finish_tick = -1.
  for (const PodRuntime* pod : running_) {
    result_.trace.lifecycles.push_back(LifecycleOf(*pod, -1));
  }

  // Never-scheduled pods.
  for (int prio = 1; prio <= 3; ++prio) {
    for (const PendingPod& item : pending_[prio]) {
      const PodSpec& spec = *item.spec;
      ++result_.never_scheduled_pods;
      PodLifecycleRecord rec;
      rec.pod_id = spec.id;
      rec.app_id = spec.app;
      rec.slo = spec.slo;
      rec.submit_tick = spec.submit_tick;
      rec.schedule_tick = -1;
      rec.finish_tick = -1;
      rec.waiting_seconds =
          static_cast<double>(workload_.config.horizon - spec.submit_tick) *
          kSecondsPerTick;
      result_.trace.lifecycles.push_back(rec);
    }
  }

  // Flush wait samples: every pod with a recorded reason waited >= 1 tick.
  for (auto& w : wait_by_pod_) {
    if (w.pod == kInvalidPodId) {
      continue;
    }
    // Fill in the final waiting time from the lifecycle data later; here we
    // approximate it from the recorded pod state (computed below).
    result_.waits.push_back(w);
  }
  // Attach waiting durations from lifecycle records.
  std::vector<double> waited(wait_by_pod_.size(), 0.0);
  for (const auto& rec : result_.trace.lifecycles) {
    if (rec.pod_id >= 0 && static_cast<size_t>(rec.pod_id) < waited.size()) {
      waited[static_cast<size_t>(rec.pod_id)] = rec.waiting_seconds;
    }
  }
  for (auto& w : result_.waits) {
    w.waited_seconds = waited[static_cast<size_t>(w.pod)];
  }
}

void Simulator::SampleMetrics() {
  double cpu_acc = 0.0, mem_acc = 0.0;
  int nonidle = 0;
  for (const Host& host : cluster_.hosts()) {
    if (host.pods.empty()) {
      continue;
    }
    ++nonidle;
    cpu_acc += host.usage.cpu / host.capacity.cpu;
    mem_acc += host.usage.mem / host.capacity.mem;
  }
  size_t pending = 0;
  for (const auto& queue : pending_) {
    pending += queue.size();
  }
  sim_metrics_.cpu_util->Set(nonidle > 0 ? cpu_acc / nonidle : 0.0);
  sim_metrics_.mem_util->Set(nonidle > 0 ? mem_acc / nonidle : 0.0);
  sim_metrics_.frac_nonidle->Set(static_cast<double>(nonidle) /
                                 static_cast<double>(cluster_.num_hosts()));
  sim_metrics_.pending->Set(static_cast<double>(pending));
  sim_metrics_.running->Set(static_cast<double>(running_.size()));
  sim_metrics_.scheduled->Set(static_cast<double>(result_.scheduled_pods));
  sim_metrics_.oom_kills->Set(static_cast<double>(result_.oom_kills));
  sim_metrics_.preemptions->Set(static_cast<double>(result_.preemptions));
  sim_metrics_.violations->Set(static_cast<double>(result_.violation_host_ticks));
}

void Simulator::SamplePressure() {
  obs::HostPressureMonitor* monitor = config_.pressure;
  monitor->BeginTick(now_);
  for (const Host& host : cluster_.hosts()) {
    obs::HostPressureInput in;
    in.cpu_util = host.CpuDemandRatio();
    in.mem_util = host.MemRatio();
    in.pods_be = host.slo_pods[static_cast<size_t>(SloClass::kBe)];
    in.pods_ls = host.slo_pods[static_cast<size_t>(SloClass::kLs)];
    in.pods_lsr = host.slo_pods[static_cast<size_t>(SloClass::kLsr)];
    const int32_t ls_pods = in.pods_ls + in.pods_lsr;
    if (ls_pods > 0 && config_.pressure_interference) {
      in.interference =
          config_.pressure_interference(host, in.cpu_util, in.mem_util) /
          static_cast<double>(ls_pods);
    }
    monitor->ObserveHost(host.id, in);
  }
  monitor->EndTick();
}

SimResult Simulator::Run() {
  OPTUM_CHECK_MSG(!ran_, "Simulator::Run may only be called once");
  ran_ = true;
  const Tick horizon = workload_.config.horizon;
  // Tick-phase profiling (DESIGN.md §14): arrivals → ingest_wait, scheduling
  // → spec_score (the sim has no speculation split — all scoring is "fresh"),
  // usage/performance → resolve, completions + state capture → commit, the
  // pressure/series sweep → pressure_sweep. One lane, one EndRound per tick
  // (barrier_ns 0 ⇒ the scheduling busy time substitutes for the wall).
  obs::RoundProfiler* profiler = config_.sinks.profile;
  for (now_ = 0; now_ < horizon; ++now_) {
    cluster_.set_now(now_);
    {
      obs::ScopedTimer tick_timer(sim_metrics_.tick_timer);
      {
        obs::RoundProfiler::Scope s(profiler, obs::ProfilePhase::kIngestWait, 0);
        EnqueueArrivals();
      }
      {
        obs::RoundProfiler::Scope s(profiler, obs::ProfilePhase::kSpecScore, 0);
        SchedulePending();
      }
      {
        obs::RoundProfiler::Scope s(profiler, obs::ProfilePhase::kResolve, 0);
        UpdateUsageAndPerformance();
      }
      obs::RoundProfiler::Scope s(profiler, obs::ProfilePhase::kCommit, 0);
      HandleCompletions();
      RecordRunningState();
    }
    if (config_.sinks.metrics != nullptr) {
      SampleMetrics();
    }
    {
      obs::RoundProfiler::Scope s(profiler, obs::ProfilePhase::kPressureSweep, 0);
      if (config_.pressure != nullptr) {
        SamplePressure();
      }
      if (config_.sinks.series != nullptr) {
        config_.sinks.series->Sample(now_);
      }
    }
    if (config_.on_tick_end) {
      config_.on_tick_end(cluster_, now_);
    }
    if (profiler != nullptr) {
      profiler->EndRound();
    }
  }
  FinalizeAtHorizon();
  if (config_.pressure != nullptr) {
    config_.pressure->Finalize();
  }
  if (config_.sinks.span_log != nullptr) {
    config_.sinks.span_log->Flush();
  }
  if (config_.sinks.series != nullptr) {
    config_.sinks.series->Flush();
  }
  if (profiler != nullptr) {
    profiler->Finalize();
  }
  return std::move(result_);
}

}  // namespace optum
