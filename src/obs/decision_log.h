// Structured per-placement decision log (observability layer, DESIGN.md
// §9). The JSONL stream opens with one header line carrying the
// optum.decision.v1 schema tag; then, for every placement decision
// (PlaceScored, or FinalizeSpeculative in pipelined rounds), the
// scheduler can emit one record: the pod, how many candidates were sampled
// and feasible, the chosen host, and the top-k candidates with their Eq. 11
// score broken into its terms (usage fit POC/Cap * POM/Cap and weighted
// interference).
//
// Records are rendered by the scheduler's serial reduction phase, so the
// log never sees concurrent appends from one scheduler; distinct schedulers
// must use distinct logs. A null DecisionLog* disables logging at the cost
// of one branch.
#ifndef OPTUM_SRC_OBS_DECISION_LOG_H_
#define OPTUM_SRC_OBS_DECISION_LOG_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace optum::obs {

// One scored candidate, in descending score order within the record.
struct CandidateTrace {
  HostId host = -1;
  bool feasible = false;
  double score = 0.0;
  double cpu_util = 0.0;       // predicted post-placement POC/CapC
  double mem_util = 0.0;       // predicted post-placement POM/CapM
  double usage_fit = 0.0;      // Eq. 11 first term: cpu_util * mem_util
  double interference = 0.0;   // Eq. 11 weighted interference sum
};

struct DecisionTrace {
  Tick tick = 0;
  PodId pod = -1;
  AppId app = -1;
  SloClass slo = SloClass::kUnknown;
  size_t candidates_sampled = 0;
  size_t candidates_feasible = 0;
  HostId chosen = -1;          // -1 = rejected
  double chosen_score = 0.0;
  const char* reject_reason = "None";
  std::vector<CandidateTrace> top;  // best-first, at most the log's top_k
};

class DecisionLog {
 public:
  // Opens `path` for writing (truncates) and writes the header line. top_k
  // bounds the per-record candidate breakdown.
  explicit DecisionLog(const std::string& path, size_t top_k = 3);
  ~DecisionLog();

  DecisionLog(const DecisionLog&) = delete;
  DecisionLog& operator=(const DecisionLog&) = delete;

  bool ok() const { return file_ != nullptr; }
  size_t top_k() const { return top_k_; }
  int64_t records_written() const { return records_written_; }

  // Appends one record as a single JSON line.
  void Append(const DecisionTrace& trace);

  // The exact line format (without trailing newline); exposed so the golden
  // schema test pins it.
  static std::string Render(const DecisionTrace& trace);
  // The header line: {"schema":"optum.decision.v1"}.
  static std::string RenderHeader();

 private:
  std::FILE* file_ = nullptr;
  size_t top_k_;
  int64_t records_written_ = 0;
};

}  // namespace optum::obs

#endif  // OPTUM_SRC_OBS_DECISION_LOG_H_
