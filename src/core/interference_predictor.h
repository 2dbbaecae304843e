// Optum's Interference Predictor (paper §4.3.3, Eq. 9-10): estimates, for
// every pod on a candidate host, the interference it would suffer after a
// new pod is placed there — the profiled PSI for LS pods, the profiled
// normalized completion time for BE pods. Predictions depend only on the
// pod's application and the host's predicted utilization bucket, so every
// value the scheduler reads is precomputed into the application's
// InterferenceTable when the profiles are built: a prediction or a slope is
// one indexed load, bit-identical to evaluating the model on demand. The
// per-host application histogram is Host::app_counts, maintained
// incrementally by ClusterState and sorted by AppId, so every sum iterates
// in one canonical order; ClusterState::CheckInvariants() checks it against
// the host's pod list.
#ifndef OPTUM_SRC_CORE_INTERFERENCE_PREDICTOR_H_
#define OPTUM_SRC_CORE_INTERFERENCE_PREDICTOR_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/core/profiles.h"
#include "src/sim/cluster.h"

namespace optum {
class ShardCrew;
}  // namespace optum

namespace optum::core {

class InterferencePredictor {
 public:
  // `profiles` must outlive the predictor. Usable models without a table
  // (profiles assembled by hand rather than by OfflineProfiler) get one
  // filled here, owned by this predictor.
  explicit InterferencePredictor(const OptumProfiles* profiles);
  // tables_ may point into own_tables_.
  InterferencePredictor(const InterferencePredictor&) = delete;
  InterferencePredictor& operator=(const InterferencePredictor&) = delete;

  // RI for one pod of application `app` on a host whose predicted CPU/mem
  // utilizations (POC/Cap, POM/Cap) are given: the model at the canonical
  // point of their bucket, discretized. Returns 0 when the app has no
  // usable model (no interference information, paper §5.2 optimizes only
  // apps with accurate profiles).
  double Predict(AppId app, double host_cpu_util, double host_mem_util) const;

  // Sum of RI over all pods currently on `host` plus the incoming pod, at
  // the given post-placement utilization (paper Eq. 11, literal form).
  // Pods of the same application share one prediction (their Eq. 9/10
  // features are identical), so cost is O(#distinct apps).
  double TotalInterference(const Host& host, const PodSpec& incoming,
                           double host_cpu_util, double host_mem_util,
                           double weight_ls, double weight_be) const;

  // Sum of RI over the pods already resident on `host` — no incoming pod —
  // at the host's *current* utilization, snapped to a coarse 8-bucket grid
  // (the signal rides an EWMA). The pressure sensor (DESIGN.md §13) feeds
  // this into the per-host pressure signal; a per-host memo keyed on
  // (change_epoch, coarse buckets, weights) makes repeated sweeps O(1) per
  // unchanged host. `lane` is unused and kept for existing callers. Serial
  // callers only (see ResidentMemo below).
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
  // on the raw (undiscretized) model output (InterferenceTable::slope).
  double MarginalInterference(const Host& host, const PodSpec& incoming,
                              double cpu_util_before, double mem_util_before,
                              double cpu_util_after, double mem_util_after,
                              double weight_ls, double weight_be) const;

  // Re-reads the profiles' models and tables; call after the profiles
  // object is replaced wholesale.
  void Reload();

  // Sets AppModel::table for every usable model in `profiles` that has
  // none, one app per crew index. Each table is a pure function of its
  // model, so the result is the same for every crew size.
  static void FillTables(OptumProfiles* profiles, ShardCrew& crew);

  // Table-read tallies, in the hit/miss shape their readers (the metrics
  // collector, perfbench) consume: every read is a hit, so the miss and raw
  // fields stay 0 and no forest is evaluated after set-up. Read only while
  // no thread is scoring with this predictor.
  struct CacheStats {
    uint64_t predict_hits = 0, predict_misses = 0;
    uint64_t raw_hits = 0, raw_misses = 0;
    uint64_t slope_hits = 0, slope_misses = 0;
    uint64_t forest_evals() const { return predict_misses + raw_misses; }
  };
  CacheStats cache_stats() const {
    return CacheStats{.predict_hits = predict_reads_, .slope_hits = slope_reads_};
  }

 private:
  // Bucket index of a utilization value on a `buckets`-wide grid over [0, 2].
  static uint64_t UtilBucket(double v, size_t buckets);
  // Canonical evaluation point of a bucket: its center, clamped to [0, 2].
  static double BucketPoint(uint64_t bucket, size_t buckets);
  // Fills one application's table; `model` must be usable.
  static void FillTable(const AppModel& model, InterferenceTable* table);

  // Flat lookup by AppId (ids are dense); null when the app has no usable
  // model.
  const InterferenceTable* TableOf(AppId app) const {
    return app >= 0 && static_cast<size_t>(app) < tables_.size()
               ? tables_[static_cast<size_t>(app)]
               : nullptr;
  }
  double PredictCell(const InterferenceTable& table, uint64_t cpu_bucket,
                     uint64_t mem_bucket) const {
    ++predict_reads_;
    return table.predict[cpu_bucket * InterferenceTable::kBuckets + mem_bucket];
  }

  // Per-host memo for ResidentInterference (the DESIGN.md §13 pressure
  // sweep). The weighted sum is a pure function of the host's app_counts
  // histogram — versioned by Host::change_epoch — and the coarse
  // utilization buckets, so a sweep only walks the apps of hosts that
  // changed since the last one. Callers are the serial pressure paths
  // (simulator tick, placement-service round, bench mirror); concurrent
  // ResidentInterference calls are NOT safe, matching the serial-emission
  // contract of the monitor this feeds.
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
  // Indexed by AppId; points into the profiles' tables or own_tables_.
  std::vector<const InterferenceTable*> tables_;
  // Tables this predictor filled for usable models that came without one.
  std::vector<InterferenceTable> own_tables_;
  // Table reads (see CacheStats). One predictor scores on one thread at a
  // time, so plain counters suffice.
  mutable uint64_t predict_reads_ = 0;
  mutable uint64_t slope_reads_ = 0;
  // Indexed by host id, grown on demand; dropped by Reload() (model
  // replacement invalidates every stored sum).
  mutable std::vector<ResidentMemo> resident_memo_;
};

}  // namespace optum::core

#endif  // OPTUM_SRC_CORE_INTERFERENCE_PREDICTOR_H_
