#include "src/sim/cluster.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace optum {

namespace {
// Reservoir size for per-pod CPU percentile queries.
constexpr size_t kCpuReservoir = 128;
}  // namespace

double PodRuntime::CpuUsagePercentile(double q) const {
  if (cpu_samples.empty()) {
    return cpu_usage;
  }
  if (percentile_cache_q_ == q && percentile_cache_count_ == cpu_stats.count()) {
    return percentile_cache_;
  }
  percentile_cache_ = Percentile(cpu_samples, q);
  percentile_cache_q_ = q;
  percentile_cache_count_ = cpu_stats.count();
  return percentile_cache_;
}

void PodRuntime::RecordCpuSample(double value, Rng& slot_rng) {
  cpu_stats.Add(value);
  if (cpu_samples.size() < kCpuReservoir) {
    cpu_samples.push_back(value);
    return;
  }
  // Vitter's Algorithm R keeps a uniform sample of the whole stream.
  const uint64_t seen = static_cast<uint64_t>(cpu_stats.count());
  const uint64_t slot = slot_rng.NextBelow(seen);
  if (slot < kCpuReservoir) {
    cpu_samples[slot] = value;
  }
}

void Host::PushHistory(double cpu_util, size_t window) {
  if (cpu_history.size() < window) {
    cpu_history.resize(window, 0.0);
  }
  if (history_count == window) {
    const double evicted = cpu_history[history_next];
    history_sum -= evicted;
    history_sum_sq -= evicted * evicted;
  } else {
    ++history_count;
  }
  cpu_history[history_next] = cpu_util;
  history_sum += cpu_util;
  history_sum_sq += cpu_util * cpu_util;
  history_next = (history_next + 1) % window;
}

void Host::HistoryStats(double* mean, double* stddev) const {
  if (history_count == 0) {
    *mean = 0.0;
    *stddev = 0.0;
    return;
  }
  const double n = static_cast<double>(history_count);
  const double m = history_sum / n;
  // Incremental sums can drift slightly negative near zero variance.
  const double var = std::max(0.0, history_sum_sq / n - m * m);
  *mean = m;
  *stddev = std::sqrt(var);
}

void CountPodsBySlo(const Host& host, int32_t out[kNumSloClasses]) {
  for (int c = 0; c < kNumSloClasses; ++c) {
    out[c] = host.slo_pods[c];
  }
}

bool AffinityAllows(const PodSpec& pod, const Host& host) {
  if (pod.max_pods_per_host <= 0) {
    return true;
  }
  // Host::app_counts is sorted by AppId, so the same-app count is a binary
  // search away instead of a pod-list scan.
  const auto it = std::lower_bound(
      host.app_counts.begin(), host.app_counts.end(), pod.app,
      [](const HostAppCount& c, AppId a) { return c.app < a; });
  return it == host.app_counts.end() || it->app != pod.app ||
         it->count < pod.max_pods_per_host;
}

ClusterState::ClusterState(int num_hosts, Resources capacity, size_t history_window)
    : history_window_(history_window) {
  OPTUM_CHECK_GT(num_hosts, 0);
  hosts_.resize(static_cast<size_t>(num_hosts));
  be_index_pos_.assign(static_cast<size_t>(num_hosts), -1);
  for (int h = 0; h < num_hosts; ++h) {
    hosts_[static_cast<size_t>(h)].id = h;
    hosts_[static_cast<size_t>(h)].capacity = capacity;
  }
}

namespace {

// Insert-or-increment into the AppId-sorted per-host count list.
void BumpAppCount(std::vector<HostAppCount>& counts, AppId app, SloClass slo) {
  auto it = std::lower_bound(
      counts.begin(), counts.end(), app,
      [](const HostAppCount& c, AppId a) { return c.app < a; });
  if (it != counts.end() && it->app == app) {
    ++it->count;
    return;
  }
  counts.insert(it, HostAppCount{app, slo, 1});
}

void DropAppCount(std::vector<HostAppCount>& counts, AppId app) {
  auto it = std::lower_bound(
      counts.begin(), counts.end(), app,
      [](const HostAppCount& c, AppId a) { return c.app < a; });
  OPTUM_CHECK(it != counts.end() && it->app == app);
  if (--it->count == 0) {
    counts.erase(it);
  }
}

}  // namespace

PodRuntime* ClusterState::Place(const PodSpec& spec, const AppProfile* app, HostId host,
                                Tick at) {
  OPTUM_CHECK(host >= 0 && static_cast<size_t>(host) < hosts_.size());
  PodRuntime* pod;
  if (!free_list_.empty()) {
    pod = free_list_.back();
    free_list_.pop_back();
    *pod = PodRuntime{};
  } else {
    pods_.emplace_back();
    pod = &pods_.back();
  }
  pod->spec = spec;
  pod->app = app;
  pod->host = host;
  pod->scheduled_at = at;
  pod->noise = Rng(0x9e3779b9u ^ static_cast<uint64_t>(spec.id) * 0x2545f4914f6cdd1dULL);
  pod->reservoir_rng =
      Rng(0xda3e39cb94b95bdbULL ^ static_cast<uint64_t>(spec.id) * 0x9e3779b97f4a7c15ULL);

  Host& h = mutable_host(host);
  h.pods.push_back(pod);
  h.request_sum += spec.request;
  h.limit_sum += spec.limit;
  ++h.change_epoch;
  BumpAppCount(h.app_counts, spec.app, spec.slo);
  ++h.slo_pods[static_cast<size_t>(spec.slo)];
  if (spec.slo == SloClass::kBe) {
    h.be_request_cpu += spec.request.cpu;
    if (++h.be_pod_count == 1) {
      be_index_pos_[static_cast<size_t>(host)] =
          static_cast<int32_t>(hosts_with_be_.size());
      hosts_with_be_.push_back(host);
    }
  }
  ++num_running_;
  return pod;
}

void ClusterState::Remove(PodRuntime* pod) {
  OPTUM_CHECK(pod != nullptr && pod->host != kInvalidHostId);
  Host& h = mutable_host(pod->host);
  auto it = std::find(h.pods.begin(), h.pods.end(), pod);
  OPTUM_CHECK(it != h.pods.end());
  h.pods.erase(it);
  h.request_sum -= pod->spec.request;
  h.limit_sum -= pod->spec.limit;
  // Numerical hygiene: sums drift toward zero, never below.
  h.request_sum = h.request_sum.Max(kZeroResources);
  h.limit_sum = h.limit_sum.Max(kZeroResources);
  ++h.change_epoch;
  DropAppCount(h.app_counts, pod->spec.app);
  OPTUM_CHECK_GT(h.slo_pods[static_cast<size_t>(pod->spec.slo)], 0);
  --h.slo_pods[static_cast<size_t>(pod->spec.slo)];
  if (pod->spec.slo == SloClass::kBe) {
    h.be_request_cpu = std::max(0.0, h.be_request_cpu - pod->spec.request.cpu);
    if (--h.be_pod_count == 0) {
      h.be_request_cpu = 0.0;
      const int32_t pos = be_index_pos_[static_cast<size_t>(h.id)];
      const HostId moved = hosts_with_be_.back();
      hosts_with_be_[static_cast<size_t>(pos)] = moved;
      be_index_pos_[static_cast<size_t>(moved)] = pos;
      hosts_with_be_.pop_back();
      be_index_pos_[static_cast<size_t>(h.id)] = -1;
    }
  }
  pod->host = kInvalidHostId;
  --num_running_;
  free_list_.push_back(pod);
}

}  // namespace optum
