#include "src/sim/cluster.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

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

// Insert-or-increment into the AppId-sorted per-host count list. An entry
// keeps the slo of the pod that created it, so every pod of an app on one
// host must carry that slo.
void BumpAppCount(std::vector<HostAppCount>& counts, AppId app, SloClass slo) {
  auto it = std::lower_bound(
      counts.begin(), counts.end(), app,
      [](const HostAppCount& c, AppId a) { return c.app < a; });
  if (it != counts.end() && it->app == app) {
    OPTUM_CHECK_MSG(it->slo == slo, "an app's pods on one host share one SLO class");
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

namespace {

std::string Str(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
std::string Str(const Resources& r) { return "{" + Str(r.cpu) + ", " + Str(r.mem) + "}"; }
std::string Str(const HostAppCount& c) {
  return "{app " + std::to_string(c.app) + ", slo " + std::to_string(static_cast<int>(c.slo)) +
         ", count " + std::to_string(c.count) + "}";
}

}  // namespace

std::string ClusterState::CheckInvariants() const {
  const auto bad = [](const std::string& field, HostId id, const std::string& stored,
                      const std::string& expected) {
    return field + " of host " + std::to_string(id) + ": " + stored + ", expected " + expected;
  };
  const auto near = [](const Resources& a, const Resources& b) {
    return std::abs(a.cpu - b.cpu) <= 1e-9 && std::abs(a.mem - b.mem) <= 1e-9;
  };
  size_t running = 0;
  size_t indexed = 0;
  std::vector<HostAppCount> counts;
  for (const Host& h : hosts_) {
    const HostId id = h.id;
    const int32_t pos = be_index_pos_[static_cast<size_t>(id)];
    const bool in_index = pos >= 0 && static_cast<size_t>(pos) < hosts_with_be_.size() &&
                          hosts_with_be_[static_cast<size_t>(pos)] == id;
    if (in_index != (h.be_pod_count > 0) || (!in_index && pos != -1)) {
      return bad("hosts_with_be_", id, "be_index_pos_ " + std::to_string(pos),
                 "an entry iff be_pod_count " + std::to_string(h.be_pod_count) + " > 0");
    }
    indexed += in_index ? 1 : 0;

    counts.clear();
    int32_t slo_pods[kNumSloClasses] = {};
    int be_pods = 0;
    double be_cpu = 0.0;
    Resources request;
    Resources limit;
    for (const PodRuntime* pod : h.pods) {
      const PodSpec& spec = pod->spec;
      if (pod->host != id) {
        return bad("PodRuntime::host", id, "pod " + std::to_string(spec.id) + " records " +
                   std::to_string(pod->host), std::to_string(id));
      }
      const auto it = std::find_if(counts.begin(), counts.end(),
                                   [&](const HostAppCount& c) { return c.app == spec.app; });
      if (it == counts.end()) {
        counts.push_back(HostAppCount{spec.app, spec.slo, 1});  // first pod's slo
      } else {
        ++it->count;
      }
      ++slo_pods[static_cast<size_t>(spec.slo)];
      if (spec.slo == SloClass::kBe) {
        ++be_pods;
        be_cpu += spec.request.cpu;
      }
      request += spec.request;
      limit += spec.limit;
    }
    running += h.pods.size();

    for (size_t i = 1; i < h.app_counts.size(); ++i) {
      if (h.app_counts[i - 1].app >= h.app_counts[i].app) {
        return bad("app_counts", id, "entry " + std::to_string(i) + " " + Str(h.app_counts[i]),
                   "strictly sorted by AppId");
      }
    }
    std::sort(counts.begin(), counts.end(),
              [](const HostAppCount& a, const HostAppCount& b) { return a.app < b.app; });
    if (h.app_counts.size() != counts.size()) {
      return bad("app_counts", id, std::to_string(h.app_counts.size()) + " entries",
                 std::to_string(counts.size()));
    }
    const auto [stored, rebuilt] = std::mismatch(
        h.app_counts.begin(), h.app_counts.end(), counts.begin(),
        [](const HostAppCount& a, const HostAppCount& b) {
          return a.app == b.app && a.slo == b.slo && a.count == b.count;
        });
    if (stored != h.app_counts.end()) {
      return bad("app_counts", id, Str(*stored), Str(*rebuilt));
    }
    for (int c = 0; c < kNumSloClasses; ++c) {
      if (h.slo_pods[c] != slo_pods[c]) {
        return bad("slo_pods[" + std::to_string(c) + "]", id, std::to_string(h.slo_pods[c]),
                   std::to_string(slo_pods[c]));
      }
    }
    if (h.be_pod_count != be_pods) {
      return bad("be_pod_count", id, std::to_string(h.be_pod_count), std::to_string(be_pods));
    }
    if (std::abs(h.be_request_cpu - be_cpu) > 1e-12) {
      return bad("be_request_cpu", id, Str(h.be_request_cpu), Str(be_cpu));
    }
    if (!near(h.request_sum, request)) {
      return bad("request_sum", id, Str(h.request_sum), Str(request));
    }
    if (!near(h.limit_sum, limit)) {
      return bad("limit_sum", id, Str(h.limit_sum), Str(limit));
    }
  }
  if (hosts_with_be_.size() != indexed) {
    return "hosts_with_be_: " + std::to_string(hosts_with_be_.size()) + " entries, expected " +
           std::to_string(indexed);
  }
  if (num_running_ != running) {
    return "num_running_: " + std::to_string(num_running_) + ", expected " +
           std::to_string(running);
  }
  return {};
}

}  // namespace optum
