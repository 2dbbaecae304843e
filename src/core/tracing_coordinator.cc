#include "src/core/tracing_coordinator.h"

#include <algorithm>

#include "src/common/check.h"

namespace optum::core {

TracingCoordinator::TracingCoordinator(TracingConfig config) : config_(config) {
  OPTUM_CHECK_GT(config_.window, 0);
}

void TracingCoordinator::Evict(Tick now) {
  const Tick cutoff = now - config_.window;
  while (!node_usage_.empty() && node_usage_.front().collect_tick < cutoff) {
    node_usage_.pop_front();
  }
  while (!pod_usage_.empty() && pod_usage_.front().collect_tick < cutoff) {
    pod_usage_.pop_front();
  }
  while (!lifecycles_.empty() && lifecycles_.front().finish_tick < cutoff) {
    lifecycles_.pop_front();
  }
  // Pod metadata for pods not seen within the window.
  for (auto it = pod_last_seen_.begin(); it != pod_last_seen_.end();) {
    if (it->second < cutoff) {
      pods_.erase(it->first);
      it = pod_last_seen_.erase(it);
    } else {
      ++it;
    }
  }
}

void TracingCoordinator::OnTick(const ClusterState& cluster, Tick now) {
  if (nodes_.empty()) {
    nodes_.reserve(cluster.num_hosts());
    for (const Host& host : cluster.hosts()) {
      nodes_.push_back(NodeMeta{host.id, host.capacity});
    }
  }

  // Track currently running pods and detect departures.
  std::unordered_map<PodId, PodLifecycleRecord> now_running;
  now_running.reserve(cluster.num_running_pods());

  const bool sample_nodes =
      config_.node_sample_period > 0 && now % config_.node_sample_period == 0;
  const bool sample_pods =
      config_.pod_sample_period > 0 && now % config_.pod_sample_period == 0;

  for (const Host& host : cluster.hosts()) {
    if (sample_nodes && !host.IsIdle()) {
      node_usage_.push_back(NodeUsageRecord{host.id, now,
                                            host.usage.cpu / host.capacity.cpu,
                                            host.usage.mem / host.capacity.mem, 0.0, 0.0});
    }
    for (const PodRuntime* pod : host.pods) {
      // Lifecycle bookkeeping.
      auto running_it = running_.find(pod->spec.id);
      if (running_it == running_.end()) {
        PodLifecycleRecord rec;
        rec.pod_id = pod->spec.id;
        rec.app_id = pod->spec.app;
        rec.slo = pod->spec.slo;
        rec.submit_tick = pod->spec.submit_tick;
        rec.schedule_tick = pod->scheduled_at;
        rec.host = host.id;
        rec.waiting_seconds =
            static_cast<double>(pod->scheduled_at - pod->spec.submit_tick) *
            kSecondsPerTick;
        rec.ideal_completion_ticks = pod->spec.behavior.work_ticks;
        now_running.emplace(pod->spec.id, rec);
      } else {
        now_running.emplace(pod->spec.id, running_it->second);
      }
      PodLifecycleRecord& rec = now_running[pod->spec.id];
      rec.max_cpu_psi = std::max(rec.max_cpu_psi, pod->psi60);

      if (sample_pods) {
        // Refresh metadata.
        PodMeta meta;
        meta.pod_id = pod->spec.id;
        meta.app_id = pod->spec.app;
        meta.slo = pod->spec.slo;
        meta.request = pod->spec.request;
        meta.limit = pod->spec.limit;
        meta.submit_tick = pod->spec.submit_tick;
        meta.original_machine_id = host.id;
        pods_[pod->spec.id] = meta;
        pod_last_seen_[pod->spec.id] = now;

        PodUsageRecord usage;
        usage.pod_id = pod->spec.id;
        usage.host = host.id;
        usage.collect_tick = now;
        usage.cpu_usage = pod->cpu_usage;
        usage.mem_usage = pod->mem_usage;
        usage.cpu_psi_60 = pod->psi60;
        usage.cpu_psi_10 = pod->psi60;  // 10 s window unavailable here
        usage.cpu_psi_300 = pod->psi300;
        usage.qps = pod->qps;
        pod_usage_.push_back(usage);
      }
    }
  }

  // Pods that were running last tick but are gone now have completed (or
  // were killed/preempted — indistinguishable from the tracing layer, as in
  // a real cluster where the coordinator sees container exit events).
  for (const auto& [pod_id, rec] : running_) {
    if (now_running.find(pod_id) != now_running.end()) {
      continue;
    }
    PodLifecycleRecord done = rec;
    done.finish_tick = now;
    done.actual_completion_ticks = static_cast<double>(now - done.schedule_tick);
    lifecycles_.push_back(done);
  }
  running_ = std::move(now_running);
  last_tick_ = now;
  Evict(now);
}

TraceBundle TracingCoordinator::Snapshot() const {
  TraceBundle out;
  out.nodes = nodes_;
  out.pods.reserve(pods_.size());
  for (const auto& [id, meta] : pods_) {
    out.pods.push_back(meta);
  }
  out.node_usage.assign(node_usage_.begin(), node_usage_.end());
  for (const PodUsageRecord& rec : pod_usage_) {
    out.pod_usage.push_back(rec);
  }
  out.lifecycles.assign(lifecycles_.begin(), lifecycles_.end());
  return out;
}

}  // namespace optum::core
