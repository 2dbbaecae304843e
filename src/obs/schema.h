// Single source of truth for the JSON schema tags stamped on every exported
// document (the "schema" key consumers dispatch on). Tools, exporters, and
// golden tests all read these constants; bump a version here — and only
// here — when a document's shape changes.
#ifndef OPTUM_SRC_OBS_SCHEMA_H_
#define OPTUM_SRC_OBS_SCHEMA_H_

namespace optum::obs {

// MetricRegistry::ToJson — counters/gauges/histograms
// (`runsim --metrics-json` writes this document). v2 dropped the embedded
// per-tick gauge series: time series now stream through the JSONL
// optum.series.v1 sink (`runsim --series-json`) so memory stays bounded on
// long runs.
inline constexpr const char* kMetricsSchema = "optum.metrics.v2";

// `runsim --json` — one simulation run: config echo, headline results, and
// an embedded optum.summary.v1 under "summary".
inline constexpr const char* kRunsimSchema = "optum.runsim.v1";

// RenderSummaryJson — per-class trace summary
// (`trace_summary --json` and the "summary" object of optum.runsim.v1).
inline constexpr const char* kSummarySchema = "optum.summary.v1";

// SpanLog — JSONL pod-lifecycle span stream (`runsim --span-log`): header
// line carrying this tag, then one line per phase transition.
inline constexpr const char* kSpansSchema = "optum.spans.v1";

// TimeSeriesRecorder — JSONL streaming gauge time series
// (`runsim --series-json`): header line carrying this tag, then one line
// per sampled tick.
inline constexpr const char* kSeriesSchema = "optum.series.v1";

// serve::RenderLatencyRow — JSONL placement-latency percentile rows from
// the open-loop placement service (`serve_bench`, bench_hotpath --serve-only):
// header line carrying this tag, then one row per service configuration.
inline constexpr const char* kLatencySchema = "optum.latency.v1";

// HotspotLog — JSONL hotspot-episode stream from the HotspotDetector
// (`serve_bench --hotspot-log`, `runsim --hotspot-log`): header line
// carrying this tag, then one line per closed episode.
inline constexpr const char* kHotspotSchema = "optum.hotspot.v1";

// SloAccumulator::RenderJson — per-class SLO-violation-seconds document
// (`serve_bench --slo-json`, `runsim --slo-json`), merged across shards.
inline constexpr const char* kSloSchema = "optum.slo.v1";

// ProfileLog — JSONL phase-profile stream from the RoundProfiler
// (`serve_bench --profile-json`, `runsim --profile-json`): header line
// carrying this tag, then per-window summary / per-shard phase /
// critical-path rows (DESIGN.md §14).
inline constexpr const char* kProfileSchema = "optum.profile.v1";

// DecisionLog — JSONL per-placement Eq. 11 decision records
// (`runsim --decision-log`): header line carrying this tag, then one line
// per PlaceScored call.
inline constexpr const char* kDecisionSchema = "optum.decision.v1";

struct SchemaInfo {
  const char* tag;
  const char* producer;
};

// Every schema this repo emits, for tooling that enumerates or validates
// exported documents.
inline constexpr SchemaInfo kSchemas[] = {
    {kMetricsSchema, "MetricRegistry::ToJson / runsim --metrics-json"},
    {kRunsimSchema, "runsim --json"},
    {kSummarySchema, "RenderSummaryJson / trace_summary --json"},
    {kSpansSchema, "SpanLog / runsim --span-log"},
    {kSeriesSchema, "TimeSeriesRecorder / runsim --series-json"},
    {kLatencySchema, "serve::RenderLatencyRow / serve_bench"},
    {kHotspotSchema, "HotspotLog / serve_bench --hotspot-log"},
    {kSloSchema, "SloAccumulator::RenderJson / serve_bench --slo-json"},
    {kProfileSchema, "ProfileLog / serve_bench --profile-json"},
    {kDecisionSchema, "DecisionLog / runsim --decision-log"},
};

}  // namespace optum::obs

#endif  // OPTUM_SRC_OBS_SCHEMA_H_
