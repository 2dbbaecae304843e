// Long-lived open-loop placement service (DESIGN.md §12): the layer that
// turns the batch-oriented DistributedCoordinator into a running service.
//
//   ArrivalDriver → AdmissionQueue → coordinator shards → §4.4 conflict
//   round → commit into ClusterState → latency percentiles + span log
//
// Time advances in *rounds*: one round = ArrivalConfig::round_seconds of
// model time, and the cluster clock ticks once per round (in this layer one
// tick == one round, unlike the simulator's fixed 30 s ticks). Every
// latency is derived from round arithmetic — placement latency of a pod is
// (placed_round - submit_round) * round_seconds — so all exported rows are
// bit-deterministic for a given config: independent of wall-clock, of how
// the coordinator's shard lanes interleave (each shard decides on its own
// crew lane against the same frozen snapshot), and of the shard-histogram
// merge order.
//
// Each service round:
//   1. arrivals  — the open-loop driver emits this round's pods; each is
//      offered to the bounded admission queue (rejection = backpressure,
//      counted, never blocks the driver — that is what keeps the loop open).
//      With ServeConfig::ingest_threads == 1 the emission runs on a
//      producer thread during the previous round and is applied at a
//      hand-off barrier here — same offers, same spans, same counters.
//   2. schedule  — up to max_schedule_per_round pods pop round-robin across
//      queue shards and go through one DistributedCoordinator batch
//      (parallel shard decisions, serial conflict resolution). Winners
//      commit into the cluster and record their latency; losers requeue
//      until their cross-round requeue budget runs out, then drop. With
//      ServeConfig::pipeline_depth > 1 each shard additionally keeps its
//      next head pods speculatively scored against an epoch-snapshotted
//      host view (DESIGN.md §12) — bit-identical decisions, fewer fresh
//      evaluations per round.
//   3. departures — pods whose exponential residency expired free their
//      hosts. Residency is drawn from a per-pod-id-seeded stream, so depart
//      rounds are identical regardless of placement order or shard count.
#ifndef OPTUM_SRC_SERVE_PLACEMENT_SERVICE_H_
#define OPTUM_SRC_SERVE_PLACEMENT_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <queue>
#include <vector>

#include "src/core/distributed.h"
#include "src/obs/pressure.h"
#include "src/obs/timeseries.h"
#include "src/serve/admission_queue.h"
#include "src/serve/arrival_driver.h"
#include "src/serve/latency.h"
#include "src/sim/cluster.h"

namespace optum::serve {

struct ServeConfig {
  ArrivalConfig arrival;
  // Shard fleet: distributed.num_schedulers is also the admission-queue
  // shard count, so queue partitioning matches scheduler ownership.
  core::DistributedConfig distributed;
  // Conflict-round pipelining depth (DESIGN.md §12): with depth D > 1 each
  // coordinator shard keeps up to D-1 future head pods speculatively scored
  // against an epoch-snapshotted host view while the serial resolver
  // commits the current round. Rows, placed sets, and SLO counters are
  // bit-identical for every depth; depth 1 is the classic serial loop.
  // Forwarded into distributed.pipeline_depth (the larger of the two wins).
  size_t pipeline_depth = 1;
  // Ingest threads: 1 moves arrival generation onto a producer thread that
  // pre-builds the next round's pods while the current round schedules, and
  // applies them (pod registration, submitted spans, queue offers) at a
  // hand-off barrier — so backpressure decisions and every exported row
  // stay bit-identical to inline ingest (0). The Poisson arrival stream is
  // a single serial rng, so at most one ingest thread is supported.
  size_t ingest_threads = 0;
  // Bounded ingest: Offer() rejects once a shard's sub-queue holds this many.
  size_t queue_capacity_per_shard = 4096;
  // Service-rate cap: pods handed to the coordinator per round. Offered
  // load above this builds queue depth — the regime where tail latency
  // becomes interesting.
  size_t max_schedule_per_round = 512;
  // Cross-round retries for a pod the coordinator returned unplaced (its
  // own intra-batch attempts are separate); exhausted ⇒ dropped.
  int max_requeues = 8;
  // Mean pod residency in rounds (exponential); 0 = pods never depart.
  double mean_residency_rounds = 0.0;
  uint64_t residency_seed = 97;
  // Streaming estimator shape (one histogram per shard, merged on export).
  LatencyHistogram::Options latency;
  // Side-by-side exact ring for tests; leave off for long runs.
  bool keep_exact_latencies = false;
  size_t exact_capacity = 1 << 16;
};

struct ServeCounters {
  int64_t rounds = 0;
  int64_t arrivals = 0;         // pods emitted by the driver
  int64_t placed = 0;
  int64_t dropped = 0;          // requeue budget exhausted
  int64_t departed = 0;
  int64_t conflicts = 0;        // §4.4 re-dispatches across all batches
  int64_t schedule_rounds = 0;  // coordinator conflict rounds used
};

class PlacementService {
 public:
  // `workload` supplies the application population (the same one `profiles`
  // was trained on); `cluster` is the fleet the service places into. Both
  // must outlive the service.
  PlacementService(const Workload& workload, const core::OptumProfiles& profiles,
                   ClusterState* cluster, ServeConfig config);

  // Runs `rounds` full service rounds (arrivals + scheduling + departures).
  void RunRounds(int64_t rounds);

  // Runs arrival-free rounds until the admission queue is empty (shutdown
  // semantics: stop ingesting, finish or drop everything in flight).
  // Terminates because the requeue budget bounds every pod's retries.
  // Returns the number of drain rounds used.
  int64_t Drain();

  const ServeCounters& counters() const { return counters_; }
  AdmissionStats admission_stats() const { return queue_.stats(); }
  int64_t round() const { return round_; }
  size_t queue_depth() const { return queue_.depth(); }

  // Per-shard streaming estimators (shard = pod id % num_shards) and their
  // merge. Merging is commutative/associative integer addition, so the
  // merged percentiles are identical for every shard order.
  const LatencyHistogram& shard_latency(size_t shard) const {
    return shard_latency_[shard];
  }
  size_t num_shards() const { return shard_latency_.size(); }
  LatencyHistogram MergedLatency() const;
  // Non-null only with ServeConfig::keep_exact_latencies.
  const ExactLatencyRing* exact_latencies() const { return exact_.get(); }

  // Ids of every pod placed so far, ascending. The cross-thread/shard
  // invariance tests compare these sets directly.
  std::vector<PodId> PlacedPodIds() const;

  // One optum.latency.v1 row describing the run so far.
  LatencyRow MakeLatencyRow() const;

  // Unified sink attach (obs::Sinks contract). Adopts:
  //   * sinks.metrics — serve.* counters (arrivals/admitted/rejected/
  //     placed/dropped/departed, lane 0 — the round loop is serial) plus
  //     the coordinator's dist.* and per-shard metrics.
  //   * sinks.span_log — the service appends submitted spans for arrivals
  //     and finished spans for departures; the coordinator appends placed
  //     (with wait_ticks in rounds) and conflict_retried. With ingest
  //     threads, submitted spans are appended by the producer strictly
  //     while the round loop is parked at the hand-off barrier, honoring
  //     the SpanLog serial contract.
  //   * sinks.series — streaming gauge series, sampled once per round after
  //     the pressure gauges update (requires sinks.metrics).
  //   * sinks.profile — phase-level round profiler (DESIGN.md §14). The
  //     round loop times arrivals (ingest_wait — the whole step, inline
  //     emit or hand-off barrier wait alike, so the scope count is one per
  //     arrivals round regardless of ingest_threads), departures (folded
  //     into commit), and the pressure/series sweep (pressure_sweep), all
  //     at lane 0; the coordinator times the barrier phases per shard lane
  //     and closes each conflict round. The caller owns the profiler and
  //     calls Finalize() on it after the last round.
  // Other fields are ignored here (attach a decision log per shard via
  // coordinator().shard(i), and a hotspot log via the pressure monitor).
  // Fields left nullptr detach.
  void AttachSinks(const obs::Sinks& sinks);

  // Host-pressure monitor (DESIGN.md §13; nullptr detaches). At the end of
  // every round the service feeds each host — in id order, on the serial
  // round loop — its request-based utilization, the shard-0 predictor's
  // resident-interference estimate (mean RI per LS/LSR pod, lane 0; key-pure
  // caches keep it independent of cache history), and the resident
  // class counts. serve.pressure.* / serve.slo.* gauges come from the
  // monitor's AttachSinks; the caller owns the monitor and calls Finalize()
  // on it after the last round.
  void set_pressure_monitor(obs::HostPressureMonitor* monitor) {
    pressure_ = monitor;
  }

  core::DistributedCoordinator& coordinator() { return coordinator_; }

  const ArrivalDriver& driver() const { return driver_; }

 private:
  void RunRound(bool with_arrivals);
  void RecordPlacement(const core::ScheduleProposal& winner);
  void ProcessDepartures();
  void SamplePressure();
  // Registers one round's arrivals: pod storage, submitted spans, queue
  // offers, counters. Called inline (ingest_threads == 0) or by the ingest
  // producer while the round loop is parked at the barrier.
  void ApplyArrivals(int64_t round, const std::vector<PodSpec>& specs);
  // Producer body for rounds [first, last]: pre-generates round r+1's
  // arrivals while the consumer schedules round r, applies them once the
  // consumer opens round r+1's barrier, then signals readiness.
  void IngestLoop(int64_t first, int64_t last);

  const Workload& workload_;
  ClusterState* cluster_;
  ServeConfig config_;
  ArrivalDriver driver_;
  core::DistributedCoordinator coordinator_;
  AdmissionQueue queue_;

  // Pod storage: deque keeps addresses stable; ids are dense from 0, so
  // pods_by_id_[id] is the lookup the commit callback uses.
  std::deque<ServePod> pods_;
  std::vector<ServePod*> pods_by_id_;

  // Departure schedule ordered by (depart_round, pod id) — deterministic.
  using Departure = std::pair<int64_t, PodId>;
  std::priority_queue<Departure, std::vector<Departure>, std::greater<>>
      departures_;

  std::vector<LatencyHistogram> shard_latency_;
  std::unique_ptr<ExactLatencyRing> exact_;
  double latency_seconds_sum_ = 0.0;

  ServeCounters counters_;
  int64_t round_ = -1;  // last completed round; first RunRound executes 0

  // Scratch reused across rounds.
  std::vector<PodSpec> arrival_scratch_;
  std::vector<ServePod*> batch_scratch_;
  std::vector<const PodSpec*> spec_scratch_;

  // Ingest hand-off state (ingest_threads == 1). The consumer publishes
  // `allow` (arrivals for rounds <= allow may be applied) and waits for
  // `ready` (arrivals through this round are applied); the producer applies
  // a round's arrivals only inside that window, while the consumer is
  // parked — so all shared mutation is barrier-serialized and every
  // counter, span, and backpressure decision lands exactly as inline
  // ingest would order it.
  bool ingest_active_ = false;  // consumer-owned
  std::mutex ingest_mu_;
  std::condition_variable ingest_cv_;
  int64_t ingest_allow_ = -1;  // guarded by ingest_mu_
  int64_t ingest_ready_ = -1;  // guarded by ingest_mu_

  obs::Sinks sinks_;
  obs::SpanLog* span_log_ = nullptr;
  obs::HostPressureMonitor* pressure_ = nullptr;
  obs::TimeSeriesRecorder* series_ = nullptr;
  obs::RoundProfiler* profiler_ = nullptr;
  obs::Counter* arrivals_counter_ = nullptr;
  obs::Counter* admitted_counter_ = nullptr;
  obs::Counter* rejected_counter_ = nullptr;
  obs::Counter* placed_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
  obs::Counter* departed_counter_ = nullptr;
};

}  // namespace optum::serve

#endif  // OPTUM_SRC_SERVE_PLACEMENT_SERVICE_H_
