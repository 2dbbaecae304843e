// Lightweight metrics registry for the scheduler/simulator hot paths
// (observability layer, DESIGN.md §9). Three metric kinds:
//
//   Counter   — monotonic uint64, lane-sharded, merged (summed) on read.
//   Gauge     — double with last-write-wins semantics across lanes (each
//               write is stamped with a global sequence number).
//   Histogram — fixed base-2 log-scale buckets plus count/sum/max,
//               lane-sharded, merged on read. Unit-agnostic; the scoped
//               timers feed it seconds.
//
// Sharding follows the prediction-cache design: every metric owns one
// cache-line-aligned shard per lane, updates name a lane and touch only that
// shard, and reads merge all shards. Concurrent updates are safe iff they
// use distinct lanes (the coordinator's shard s updates at lane s); merged
// reads require quiescence (no in-flight updates), which every call site —
// per-tick sampling, final export — satisfies by construction.
//
// Instrumented code holds nullable pointers to metrics ("single branch on a
// nullable sink"): when no registry is attached the only cost is a
// well-predicted null check, so disabled instrumentation stays within the
// ≤2% hot-path overhead budget (bench_hotpath records the measured number).
//
// Metric updates never feed back into scheduling decisions, so attaching a
// registry cannot perturb placements: parallel PlaceScored stays
// bit-identical to serial with metrics on (tests/concurrency_test).
#ifndef OPTUM_SRC_OBS_METRICS_H_
#define OPTUM_SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace optum::obs {

class MetricRegistry;

// Monotonic counter. Inc() on distinct lanes is contention-free.
class Counter {
 public:
  void Inc(size_t lane = 0, uint64_t n = 1) { shards_[lane].v += n; }

  // Merged total; call only while no lane is updating.
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v;
    }
    return total;
  }

  const std::string& name() const { return name_; }

 private:
  friend class MetricRegistry;
  struct alignas(64) Shard {
    uint64_t v = 0;
  };
  std::string name_;
  std::vector<Shard> shards_;
};

// Last-write-wins gauge. Each Set() stamps its shard with a global sequence
// number (relaxed fetch_add — gauges are off the per-candidate hot path),
// and Value() returns the most recently written shard.
class Gauge {
 public:
  void Set(double v, size_t lane = 0) {
    Shard& s = shards_[lane];
    s.v = v;
    s.seq = 1 + next_seq_.fetch_add(1, std::memory_order_relaxed);
  }

  // Merged read: the value with the highest write stamp (0.0 if never set).
  double Value() const {
    double v = 0.0;
    uint64_t best = 0;
    for (const Shard& s : shards_) {
      if (s.seq > best) {
        best = s.seq;
        v = s.v;
      }
    }
    return v;
  }

  bool ever_set() const {
    for (const Shard& s : shards_) {
      if (s.seq != 0) {
        return true;
      }
    }
    return false;
  }

  const std::string& name() const { return name_; }

 private:
  friend class MetricRegistry;
  struct alignas(64) Shard {
    double v = 0.0;
    uint64_t seq = 0;  // 0 = never written
  };
  std::string name_;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> next_seq_{0};
};

// Fixed log-scale histogram: 64 base-2 buckets, bucket i covering
// [2^(i-30), 2^(i-29)), i.e. ~0.93 ns .. ~2^34 s when fed seconds. Values
// below the first bound clamp to bucket 0, above the last to bucket 63.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 64;
  static constexpr int kMinExponent = -30;  // lower bound of bucket 0 = 2^-30

  // Bucket index of a value (clamped; non-positive values land in 0).
  static size_t BucketIndex(double v);
  // Inclusive lower bound of bucket i: 2^(i + kMinExponent).
  static double BucketLowerBound(size_t i);

  void Record(double v, size_t lane = 0) {
    Shard& s = shards_[lane];
    ++s.buckets[BucketIndex(v)];
    ++s.count;
    s.sum += v;
    if (v > s.max) {
      s.max = v;
    }
  }

  // Merged reads; call only while no lane is updating.
  uint64_t Count() const;
  double Sum() const;
  double Max() const;
  double Mean() const { return Count() > 0 ? Sum() / static_cast<double>(Count()) : 0.0; }
  std::array<uint64_t, kNumBuckets> MergedBuckets() const;
  // Percentile estimate from the merged buckets (p in [0, 100]): linear
  // interpolation within the bucket that crosses the target rank.
  double Percentile(double p) const;

  const std::string& name() const { return name_; }

 private:
  friend class MetricRegistry;
  struct alignas(64) Shard {
    std::array<uint64_t, kNumBuckets> buckets{};
    uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
  };
  std::string name_;
  std::vector<Shard> shards_;
};

// Owns all metrics of one run. Metric creation (counter()/gauge()/
// histogram()) is mutex-protected and idempotent — repeated lookups of the
// same name return the same stable pointer — while updates through the
// returned pointers are lock-free under the lane contract above.
class MetricRegistry {
 public:
  explicit MetricRegistry(size_t num_lanes = 1);

  // Grows every metric (existing and future) to `n` shards. Must be called
  // while no lane is updating — e.g. before handing the registry to a
  // scheduler with a thread pool. Grow-only, like the prediction caches.
  void set_num_lanes(size_t n);
  size_t num_lanes() const { return num_lanes_; }

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  // Pull-style metrics: collectors run right before each CollectGauges()
  // and each export, letting instrumented components publish internal
  // statistics (e.g. prediction-cache hit counts) as gauges without paying
  // per-event registry calls on the hot path.
  void AddCollector(std::function<void(MetricRegistry*)> fn);

  // Snapshots every gauge value in registration order after running the
  // collectors: appends names of gauges created since the last call to
  // `names` (so a caller-held column list stays aligned) and overwrites
  // `values` with one entry per name. Serial-context only (the streaming
  // TimeSeriesRecorder calls it once per sampled tick, after the parallel
  // phases). The per-tick history itself lives in obs/timeseries.h — the
  // registry deliberately holds no sample buffer, so registry memory is
  // independent of run length.
  void CollectGauges(std::vector<std::string>* names, std::vector<double>* values);

  // Full dump: schema header and merged counters/gauges/histograms. The
  // schema is pinned by tests/obs_test.
  std::string ToJson();
  bool WriteJsonFile(const std::string& path);

 private:
  void RunCollectors();

  mutable std::mutex mu_;  // guards metric creation and collector list
  size_t num_lanes_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::vector<Gauge*> gauge_order_;  // registration order, for series columns
  std::vector<std::function<void(MetricRegistry*)>> collectors_;
};

}  // namespace optum::obs

#endif  // OPTUM_SRC_OBS_METRICS_H_
