// Core value types shared across every Optum library.
//
// All resource quantities are normalized: a host has capacity 1.0 in each
// dimension, and pod requests/usages are fractions of that capacity. This
// mirrors the normalization applied by Alibaba's tracing system (paper §2.2).
#ifndef OPTUM_SRC_COMMON_TYPES_H_
#define OPTUM_SRC_COMMON_TYPES_H_

#include <cstdint>
#include <limits>
#include <string>

namespace optum {

// One simulation tick corresponds to the trace sampling interval of 30 s.
using Tick = int64_t;

inline constexpr Tick kTicksPerMinute = 2;
inline constexpr Tick kTicksPerHour = 120;
inline constexpr Tick kTicksPerDay = 2880;
inline constexpr double kSecondsPerTick = 30.0;

using PodId = int64_t;
using AppId = int32_t;
using HostId = int32_t;

inline constexpr PodId kInvalidPodId = -1;
inline constexpr AppId kInvalidAppId = -1;
inline constexpr HostId kInvalidHostId = -1;

// Valid application ids lie in [0, kAppIdLimit). EroTable packs three ids
// into one 60-bit triple key and indexes its slots by id, and
// ReadTraceBundle rejects any app_id outside the range.
inline constexpr AppId kAppIdLimit = AppId{1} << 20;

// SLO classes observed in the trace (paper Fig. 2b). LSR binds CPU cores and
// may preempt BE; LS is long-running latency-sensitive; BE is batch.
enum class SloClass : uint8_t {
  kBe = 0,
  kLs = 1,
  kLsr = 2,
  kSystem = 3,
  kVmEnv = 4,
  kUnknown = 5,
};

inline constexpr int kNumSloClasses = 6;

const char* ToString(SloClass slo);

// Returns true for classes with explicit latency SLOs (LS and LSR). The
// characterization (§3.1.1) merges LS and LSR because their utilization
// patterns match; we follow that convention wherever the paper does.
inline bool IsLatencySensitive(SloClass slo) {
  return slo == SloClass::kLs || slo == SloClass::kLsr;
}

// Scheduling priority: larger value is served first (§3.1.3: LSR can preempt
// BE; LS has higher priority than BE).
inline int SchedulingPriority(SloClass slo) {
  switch (slo) {
    case SloClass::kLsr:
      return 3;
    case SloClass::kLs:
      return 2;
    case SloClass::kSystem:
      return 2;
    default:
      return 1;
  }
}

// A two-dimensional resource vector (CPU, memory). The paper's scheduler
// jointly optimizes both dimensions (§4.3.1), so the vector form appears
// throughout the API.
struct Resources {
  double cpu = 0.0;
  double mem = 0.0;

  constexpr Resources() = default;
  constexpr Resources(double cpu_in, double mem_in) : cpu(cpu_in), mem(mem_in) {}

  constexpr Resources operator+(const Resources& o) const { return {cpu + o.cpu, mem + o.mem}; }
  constexpr Resources operator-(const Resources& o) const { return {cpu - o.cpu, mem - o.mem}; }
  constexpr Resources operator*(double s) const { return {cpu * s, mem * s}; }
  Resources& operator+=(const Resources& o) {
    cpu += o.cpu;
    mem += o.mem;
    return *this;
  }
  Resources& operator-=(const Resources& o) {
    cpu -= o.cpu;
    mem -= o.mem;
    return *this;
  }
  constexpr bool operator==(const Resources& o) const = default;

  // Component-wise comparison used by feasibility checks: true iff both
  // dimensions fit within `capacity`.
  constexpr bool FitsWithin(const Resources& capacity) const {
    return cpu <= capacity.cpu && mem <= capacity.mem;
  }

  // Inner product; the alignment score of §3.2.1 is Dot(request, host_load).
  constexpr double Dot(const Resources& o) const { return cpu * o.cpu + mem * o.mem; }

  constexpr Resources Clamped(double lo, double hi) const {
    auto clamp = [lo, hi](double v) { return v < lo ? lo : (v > hi ? hi : v); };
    return {clamp(cpu), clamp(mem)};
  }

  constexpr Resources Max(const Resources& o) const {
    return {cpu > o.cpu ? cpu : o.cpu, mem > o.mem ? mem : o.mem};
  }

  std::string ToString() const;
};

inline constexpr Resources kZeroResources{0.0, 0.0};
inline constexpr Resources kUnitResources{1.0, 1.0};

}  // namespace optum

#endif  // OPTUM_SRC_COMMON_TYPES_H_
