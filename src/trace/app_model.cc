#include "src/trace/app_model.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace optum {
namespace {

// Lognormal multiplier with mean 1 and the requested coefficient of
// variation: sigma^2 = ln(1 + cov^2), mu = -sigma^2/2.
double LogNormalUnitMean(double cov, Rng& rng) {
  if (cov <= 0.0) {
    return 1.0;
  }
  const double sigma2 = std::log(1.0 + cov * cov);
  const double mu = -0.5 * sigma2;
  return rng.LogNormal(mu, std::sqrt(sigma2));
}

}  // namespace

PodBehavior SamplePodBehavior(const AppProfile& app, Rng& rng) {
  PodBehavior b;
  b.cpu_scale = LogNormalUnitMean(app.cpu_pod_cov, rng);
  b.mem_scale = LogNormalUnitMean(app.mem_pod_cov, rng);
  if (IsLatencySensitive(app.slo)) {
    // QPS is well balanced across pods of an app (Fig. 12a: CoV < 0.1).
    b.qps_scale = LogNormalUnitMean(0.05, rng);
    // Dependency-chain position is fixed per pod (Fig. 12a: RT is the one
    // inconsistent metric within an application).
    b.rt_scale = rng.LogNormal(0.0, app.rt_dependency_sigma);
  }
  if (app.slo == SloClass::kBe) {
    b.work_ticks = std::max(1.0, app.work_mean_ticks * LogNormalUnitMean(app.work_cov, rng));
    // Larger inputs need both more CPU and more time (Fig. 16: completion
    // time correlates with pod CPU utilization).
    b.work_ticks *= 0.5 + 0.5 * b.cpu_scale;
  }
  return b;
}

double PodCpuDemand(const AppProfile& app, const PodBehavior& behavior, double qps_fraction,
                    Rng& noise) {
  const double base = app.request.cpu * app.cpu_usage_fraction * behavior.cpu_scale;
  // LS CPU tracks QPS: diurnal (Fig. 4a).
  const double temporal = IsLatencySensitive(app.slo) ? qps_fraction : 1.0;
  // Small measurement/runtime noise, bounded by the app's burst ceiling.
  const double jitter = std::max(0.0, noise.Gaussian(1.0, 0.06));
  const double ceiling = app.cpu_usage_ceiling * app.request.cpu;
  return std::clamp(base * temporal * jitter, 0.0, ceiling);
}

double PodMemDemand(const AppProfile& app, const PodBehavior& behavior, double qps_fraction,
                    Rng& noise) {
  (void)qps_fraction;  // Memory usage is stable over time (paper Fig. 4b).
  const double base = app.request.mem * app.mem_usage_fraction * behavior.mem_scale;
  const double jitter = std::max(0.0, noise.Gaussian(1.0, 0.005));
  return std::max(0.0, base * jitter);
}

PodSpec MakePodSpec(PodId id, const AppProfile& app, Tick submit_tick) {
  PodSpec spec;
  spec.id = id;
  spec.app = app.id;
  spec.slo = app.slo;
  spec.request = app.request;
  spec.limit = app.limit;
  spec.submit_tick = submit_tick;
  spec.max_pods_per_host = app.max_pods_per_host;
  return spec;
}

double PodQps(const AppProfile& app, const PodBehavior& behavior, double qps_fraction,
              Rng& noise) {
  if (!IsLatencySensitive(app.slo) || app.qps_base <= 0.0) {
    return 0.0;
  }
  const double jitter = std::max(0.0, noise.Gaussian(1.0, 0.05));
  return app.qps_base * qps_fraction * behavior.qps_scale * jitter;
}

void QpsPatternValues(std::span<const AppProfile> apps, Tick t, std::vector<double>& out) {
  out.resize(apps.size());
  for (size_t i = 0; i < apps.size(); ++i) {
    out[i] = apps[i].qps_pattern.At(t);
  }
}

}  // namespace optum
