// Application behaviour models. Each application owns the distributions its
// pods draw from; pods of the same application behave consistently
// (paper Fig. 12: CoV < 1 for >90% of applications), which is exactly the
// property Optum's per-application profiles exploit.
#ifndef OPTUM_SRC_TRACE_APP_MODEL_H_
#define OPTUM_SRC_TRACE_APP_MODEL_H_

#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/stats/patterns.h"
#include "src/stats/rng.h"

namespace optum {

// Static per-application behaviour parameters.
struct AppProfile {
  AppId id = kInvalidAppId;
  SloClass slo = SloClass::kUnknown;

  Resources request;  // per-pod resource request
  Resources limit;    // per-pod resource limit (>= request)

  // Anti-affinity: maximum pods of this application per host (0 = no
  // limit). Long-running services spread replicas for fault tolerance;
  // SYSTEM/VMEnv pods behave like per-host daemons (paper §2.1 submits
  // requests "with affinity requirements").
  int max_pods_per_host = 0;

  // Mean fraction of the *request* the pod actually uses (paper Fig. 6:
  // usage is far below request, ~5x gap for LS CPU).
  double cpu_usage_fraction = 0.3;
  double mem_usage_fraction = 0.5;

  // Hard ceiling on instantaneous CPU demand as a fraction of the request.
  // Production pods burst to a bounded multiple of their typical usage,
  // far below the request — this gap is precisely what makes pairwise peak
  // profiling (Eq. 3) profitable.
  double cpu_usage_ceiling = 0.6;

  // Pod-to-pod consistency: multiplicative lognormal jitter CoV.
  double cpu_pod_cov = 0.15;
  double mem_pod_cov = 0.05;

  // --- LS/LSR-specific -------------------------------------------------
  double qps_base = 0.0;               // mean per-pod QPS at diurnal peak
  DiurnalPattern qps_pattern{0.4, 0.0};  // shared per-app phase
  // Sensitivity of CPU PSI to host contention (ground-truth model input).
  double psi_sensitivity = 1.0;
  // Dispersion of the per-pod dependency-chain RT multiplier: a pod's RT
  // includes the processing time of everything it calls (§3.3.1), so pods
  // of one service can have very different baseline RTs.
  double rt_dependency_sigma = 1.0;

  // --- BE-specific -------------------------------------------------------
  double work_mean_ticks = 40.0;  // contention-free completion time
  double work_cov = 0.5;          // input-size variability (CPU CoV is
                                  // higher for BE, Fig. 12b)
  // Sensitivity of completion time to host CPU/memory contention.
  double slowdown_sensitivity = 1.5;
};

// Per-pod draw from an application profile. Multipliers are fixed at pod
// creation; temporal variation comes from the app-level patterns.
struct PodBehavior {
  double cpu_scale = 1.0;   // pod-level multiplier on app cpu usage
  double mem_scale = 1.0;
  double qps_scale = 1.0;   // LS: per-pod load-balancing imbalance (small)
  double rt_scale = 1.0;    // LS: persistent dependency-chain RT multiplier
  double work_ticks = 0.0;  // BE: contention-free work, in ticks
};

// Specification of a single pod as submitted to the scheduler.
struct PodSpec {
  PodId id = kInvalidPodId;
  AppId app = kInvalidAppId;
  SloClass slo = SloClass::kUnknown;
  Resources request;
  Resources limit;
  Tick submit_tick = 0;
  PodBehavior behavior;
  bool long_running = false;  // LS/LSR/System pods run until the horizon
  // Anti-affinity copied from the application profile (0 = unlimited).
  int max_pods_per_host = 0;
};

// Samples a PodBehavior consistent with the application profile.
PodBehavior SamplePodBehavior(const AppProfile& app, Rng& rng);

// A PodSpec carrying the application's request/limit/SLO/affinity, submitted
// at `submit_tick` — the common construction for synthetic placement streams
// (hot-path benches, the serve-layer arrival driver, concurrency tests).
// The behavior draw is left at its defaults; callers that simulate usage
// dynamics sample it separately.
PodSpec MakePodSpec(PodId id, const AppProfile& app, Tick submit_tick = 0);

// Per-tick demand draws. `qps_fraction` is app.qps_pattern.At(t) for the
// current tick t, computed once per application per tick
// (QpsPatternValues) and shared by all of the app's pods.

// Instantaneous CPU usage (fraction of host capacity) of a pod, before any
// limit clamping, given its app profile and behaviour draw.
double PodCpuDemand(const AppProfile& app, const PodBehavior& behavior, double qps_fraction,
                    Rng& noise);

// Instantaneous memory usage; memory is far more stable than CPU, so
// `qps_fraction` is unused (paper Fig. 4b).
double PodMemDemand(const AppProfile& app, const PodBehavior& behavior, double qps_fraction,
                    Rng& noise);

// Instantaneous QPS of an LS pod (0 for non-LS apps).
double PodQps(const AppProfile& app, const PodBehavior& behavior, double qps_fraction,
              Rng& noise);

// Fills out[i] = apps[i].qps_pattern.At(t) for every application.
void QpsPatternValues(std::span<const AppProfile> apps, Tick t, std::vector<double>& out);

}  // namespace optum

#endif  // OPTUM_SRC_TRACE_APP_MODEL_H_
