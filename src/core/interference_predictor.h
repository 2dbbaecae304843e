// Optum's Interference Predictor (paper §4.3.3, Eq. 9-10): estimates, for
// every pod on a candidate host, the interference it would suffer after a
// new pod is placed there — the profiled PSI for LS pods, the profiled
// normalized completion time for BE pods. Predictions depend only on the
// pod's application and the host's predicted utilization, so they are
// cached per (app, utilization bucket).
//
// Every cached value is a pure function of its cache key: the model is
// evaluated at the bucket's canonical point, not at the raw utilization
// that happened to trigger the miss. That makes predictions independent of
// cache history (warm vs cold, cleared vs not) and lets concurrent callers
// keep one private cache shard per lane while staying bit-identical to a
// single-lane caller — whichever lane computes a value, it computes the
// same one.
#ifndef OPTUM_SRC_CORE_INTERFERENCE_PREDICTOR_H_
#define OPTUM_SRC_CORE_INTERFERENCE_PREDICTOR_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/core/prediction_cache.h"
#include "src/core/profiles.h"
#include "src/obs/metrics.h"
#include "src/sim/cluster.h"

namespace optum::core {

class InterferencePredictor {
 public:
  // `profiles` must outlive the predictor. cache_buckets controls the
  // utilization-space granularity of the prediction cache.
  //
  // use_host_app_counts selects how the per-host application histogram is
  // obtained: true reads Host::app_counts (maintained incrementally by
  // ClusterState); false rebuilds it from Host::pods on every call — the
  // pre-incremental behaviour, kept as the benchmark baseline and for
  // equivalence testing against the incremental structures.
  explicit InterferencePredictor(const OptumProfiles* profiles,
                                 size_t cache_buckets = 64,
                                 bool use_host_app_counts = true);

  // Creates `n` (>= 1) private cache shards. A `lane` argument below indexes
  // them; concurrent calls are safe iff they use distinct lanes. Existing
  // shards keep their contents; results never depend on lane assignment
  // because cached values are pure functions of their keys.
  void set_num_lanes(size_t n);
  size_t num_lanes() const { return lanes_.size(); }

  // RI for one pod of application `app` on a host whose predicted CPU/mem
  // utilizations (POC/Cap, POM/Cap) are given. Returns 0 when the app has
  // no usable model (no interference information, paper §5.2 optimizes only
  // apps with accurate profiles).
  double Predict(AppId app, double host_cpu_util, double host_mem_util,
                 size_t lane = 0) const;

  // Sum of RI over all pods currently on `host` plus the incoming pod, at
  // the given post-placement utilization (paper Eq. 11, literal form).
  // Pods of the same application share one prediction (their Eq. 9/10
  // features are identical), so cost is O(#distinct apps).
  double TotalInterference(const Host& host, const PodSpec& incoming,
                           double host_cpu_util, double host_mem_util,
                           double weight_ls, double weight_be,
                           size_t lane = 0) const;

  // Sum of RI over the pods already resident on `host` — no incoming pod —
  // at the host's *current* utilization, snapped to a coarse 8-bucket grid
  // (the signal rides an EWMA; candidate-scoring resolution would buy
  // nothing but cache misses). The pressure sensor (DESIGN.md §13) feeds
  // this into the per-host pressure signal; a per-host memo keyed on
  // (change_epoch, coarse buckets, weights) makes repeated sweeps O(1) per
  // unchanged host, and every computed value comes from the key-pure lane
  // cache, so results are independent of cache history and thread count.
  // Serial callers only (see ResidentMemo below).
  double ResidentInterference(const Host& host, double host_cpu_util,
                              double host_mem_util, double weight_ls,
                              double weight_be, size_t lane = 0) const;

  // Marginal form: the increase in interference the incoming pod causes to
  // the pods already on the host (RI at post-placement utilization minus RI
  // at current utilization), plus the incoming pod's own absolute RI. This
  // is the exact greedy step for the global objective of Eq. 6 — the
  // literal Eq. 11 sum adds a per-pod constant that double-counts
  // pre-existing interference across candidate hosts.
  //
  // A single pod shifts host utilization by ~1%, below both the tree
  // granularity of the forest and the output discretization, so the delta
  // is estimated as a finite-difference slope over a wider utilization span
  // on the raw (undiscretized) model output.
  double MarginalInterference(const Host& host, const PodSpec& incoming,
                              double cpu_util_before, double mem_util_before,
                              double cpu_util_after, double mem_util_after,
                              double weight_ls, double weight_be,
                              size_t lane = 0) const;

  // Raw model output (no output discretization), cached on a fine
  // utilization grid; used for slope estimation.
  double PredictRaw(AppId app, double host_cpu_util, double host_mem_util,
                    size_t lane = 0) const;

  // Both endpoints of a finite-difference slope in one call: raw model
  // output at (cpu_lo, mem) and (cpu_hi, mem). Cache-missing endpoints are
  // gathered into one feature block and evaluated with a single
  // PredictBatch, so the forest amortizes tree descent across the pair.
  // Bit-identical to two PredictRaw calls (hi first, then lo).
  void PredictRawSpan(AppId app, double cpu_lo, double cpu_hi, double mem_util,
                      size_t lane, double* out_lo, double* out_hi) const;

  // Drops all cached predictions (every lane) and re-syncs the AppId-indexed
  // model table; call after the profiles object is replaced wholesale.
  void ClearCache();
  size_t cache_size() const { return lanes_[0].cache.size(); }

  // Hit/miss tallies of the three caches, maintained unconditionally (each
  // is one lane-private non-atomic increment on an already-hot line, well
  // inside the observability overhead budget). Merged across lanes; read
  // only while no lane is scoring.
  struct CacheStats {
    uint64_t predict_hits = 0, predict_misses = 0;
    uint64_t raw_hits = 0, raw_misses = 0;
    uint64_t slope_hits = 0, slope_misses = 0;
    // Forest evaluations (DecisionTreeRegressor descents) actually run —
    // every cache miss costs exactly one.
    uint64_t forest_evals() const { return predict_misses + raw_misses; }
    uint64_t hits() const { return predict_hits + raw_hits + slope_hits; }
    uint64_t misses() const { return predict_misses + raw_misses + slope_misses; }
  };
  CacheStats cache_stats() const;
  // Total misses charged to one lane; the scheduler uses before/after
  // deltas to tag decision-log candidates with their cache-miss cost.
  uint64_t lane_misses(size_t lane) const {
    const LaneCaches& l = lanes_[lane];
    return l.predict_misses + l.raw_misses + l.slope_misses;
  }

  // Attaches the forest-evaluation timer: slope-cache misses (two raw-model
  // evaluations each) record their latency into `sink` at shard
  // `lane_base + lane`. The sink must have at least lane_base + num_lanes()
  // shards; nullptr (the default) disables timing entirely.
  void set_forest_timer(obs::Histogram* sink, size_t lane_base = 0) {
    forest_timer_ = sink;
    forest_timer_lane_base_ = lane_base;
  }

 private:
  // One lane's private shard of the three caches. Cache-line aligned so two
  // lanes' hot metadata (size/mask) never share a line across workers.
  struct alignas(64) LaneCaches {
    PredictionCache cache;        // discretized Predict values
    PredictionCache raw_cache;    // undiscretized PredictRaw values
    // Finite-difference slopes for MarginalInterference, keyed on (app,
    // coarse before/after utilization buckets); shared by both histogram
    // paths so the incremental and rebuild modes stay numerically identical.
    PredictionCache slope_cache;
    // Lane-private hit/miss tallies (see CacheStats). Survive Clear() —
    // they count work over the predictor's lifetime, not cache contents.
    uint64_t predict_hits = 0, predict_misses = 0;
    uint64_t raw_hits = 0, raw_misses = 0;
    uint64_t slope_hits = 0, slope_misses = 0;
  };

  // Bucket index of a utilization value on a `buckets`-wide grid over [0, 2]
  // (the packing the cache keys use).
  static uint64_t UtilBucket(double v, size_t buckets);
  // Canonical evaluation point of a bucket: its center, clamped to [0, 2].
  // All cache misses for the bucket evaluate the model here, making the
  // stored value key-pure.
  static double BucketPoint(uint64_t bucket, size_t buckets);

  double PredictImpl(const AppModel& model, double host_cpu_util,
                     double host_mem_util) const;
  // Flat-index lookup; AppIds are dense, so this replaces a hash find on
  // the scoring hot path. Null when the app has no profile.
  const AppModel* FindModel(AppId app) const {
    return app >= 0 && static_cast<size_t>(app) < by_app_.size()
               ? by_app_[static_cast<size_t>(app)]
               : nullptr;
  }
  void RebuildAppIndex();

  // Per-host memo for ResidentInterference (the DESIGN.md §13 pressure
  // sweep). The weighted sum is a pure function of the host's app_counts
  // histogram — versioned by Host::change_epoch — and the coarse
  // utilization buckets Predict quantizes its inputs to, so a sweep only
  // pays the per-app cache walk for hosts that changed since the last one.
  // Lane is deliberately absent from the key: cached Predict values are
  // key-pure, so every lane returns the same number. Callers are the serial
  // pressure paths (simulator tick, placement-service round, bench mirror);
  // concurrent ResidentInterference calls are NOT safe, matching the
  // serial-emission contract of the monitor this feeds.
  struct ResidentMemo {
    uint64_t epoch = std::numeric_limits<uint64_t>::max();  // never a real epoch
    uint64_t cpu_bucket = 0;
    uint64_t mem_bucket = 0;
    double weight_ls = 0.0;
    double weight_be = 0.0;
    double value = 0.0;
  };

  // Side of the coarse utilization grid ResidentInterference snaps its
  // inputs to (see the .cc): kResidentBuckets^2 cells over [0, 2]^2.
  static constexpr size_t kResidentBuckets = 8;

  const OptumProfiles* profiles_;
  size_t cache_buckets_;
  bool use_host_app_counts_;
  // Pointers into profiles_->apps values; valid until the map is mutated
  // (profile replacement calls ClearCache, which rebuilds the index).
  // Read-only during scoring, so safely shared across lanes.
  std::vector<const AppModel*> by_app_;
  mutable std::vector<LaneCaches> lanes_;
  // Indexed by host id, grown on demand; dropped by ClearCache() with the
  // lane caches (model replacement invalidates every stored sum).
  mutable std::vector<ResidentMemo> resident_memo_;
  // Flat per-app cache over the coarse resident grid: cell
  // [app * 64 + cpu_bucket * 8 + mem_bucket] holds exactly what
  // Predict(app, cell center) returns (filled through Predict on first
  // touch, so values stay bit-identical to the lane-cache path). Turns the
  // per-app walk for a changed host into direct loads instead of hash
  // probes. Serial pressure callers only; sized by RebuildAppIndex, cleared
  // with the lane caches.
  mutable std::vector<double> resident_grid_;
  mutable std::vector<uint8_t> resident_grid_valid_;
  // Nullable observability sink (see set_forest_timer).
  obs::Histogram* forest_timer_ = nullptr;
  size_t forest_timer_lane_base_ = 0;
};

}  // namespace optum::core

#endif  // OPTUM_SRC_CORE_INTERFERENCE_PREDICTOR_H_
