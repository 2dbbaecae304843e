// Helpers of the repository benchmark (perfbench/README.md): percentile
// summaries, pod failure accounting, seed derivation, and the rendering of
// the run manifest and of the one-line result the benchmark prints last.
#ifndef OPTUM_PERFBENCH_PERFBENCH_UTIL_H_
#define OPTUM_PERFBENCH_PERFBENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace optum::perfbench {

// Nearest-rank percentile (k = ceil(q/100 * n), value = k-th smallest) —
// the same definition as the serve layer's latency rows — with the sample
// count and how many samples lie beyond the reported rank, so a reader can
// tell a tail backed by many samples from one backed by a handful.
struct Percentile {
  double value = 0.0;
  int64_t samples = 0;
  int64_t beyond = 0;  // samples strictly above rank k
};

// q in (0, 100]. An empty sample set yields {0, 0, 0}.
Percentile NearestRank(std::vector<double> samples, double q);

// Pod outcome accounting for one measured episode. `attempted` counts pods
// offered to the system (serve arrivals, simulator workload pods); a pod
// fails when it is rejected at admission, dropped after exhausting its
// requeue budget, or never scheduled before the run ends.
struct PodLedger {
  int64_t attempted = 0;
  int64_t rejected = 0;
  int64_t dropped = 0;
  int64_t never_scheduled = 0;

  int64_t failed() const { return rejected + dropped + never_scheduled; }
  double failed_share() const;
  // 1 - failed_share(); the end-to-end form, which is never zero.
  double placed_share() const { return 1.0 - failed_share(); }
};

// Independent per-stream seed derived from the run's --seed (splitmix64 of
// the seed and a hash of the stream name), so one command-line seed fixes
// every stream while each stream stays overridable on its own.
uint64_t DeriveSeed(uint64_t seed, std::string_view stream);

// FNV-1a over 64-bit words; used for placement digests.
class Digest {
 public:
  void Add(uint64_t word);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

// Shortest decimal that round-trips to the same double (std::to_chars),
// so reported values carry every measured digit.
std::string FormatNumber(double v);

// Run manifest: which build on which machine produced a result, and with
// what inputs.
struct Manifest {
  int nproc = 0;
  std::string build_type;
  std::string source;  // `git describe` or a source-tree digest
  std::string compiler;
  std::string workload;
  int64_t run_seconds = 0;
  int trace = 0;
  std::vector<std::pair<std::string, std::string>> params;
  std::vector<std::pair<std::string, uint64_t>> seeds;
};

std::string RenderManifest(const Manifest& manifest);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;  // timings: how many measurements back the value
};

// The benchmark's last stdout line: exactly the keys correct, attempted,
// failed and metrics ({name: {"value", "unit"}}).
std::string RenderResultLine(bool correct, int64_t attempted, int64_t failed,
                             const std::vector<Metric>& metrics);

}  // namespace optum::perfbench

#endif  // OPTUM_PERFBENCH_PERFBENCH_UTIL_H_
