#include "src/obs/decision_log.h"

#include "src/obs/json_writer.h"
#include "src/obs/schema.h"

namespace optum::obs {

DecisionLog::DecisionLog(const std::string& path, size_t top_k)
    : file_(OpenJsonSink(path)), top_k_(top_k) {
  if (file_ != nullptr) {
    const std::string header = RenderHeader();
    std::fwrite(header.data(), 1, header.size(), file_);
    std::fputc('\n', file_);
  }
}

DecisionLog::~DecisionLog() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

std::string DecisionLog::RenderHeader() {
  JsonWriter w;
  w.BeginObject();
  w.KV("schema", kDecisionSchema);
  w.EndObject();
  return w.TakeString();
}

std::string DecisionLog::Render(const DecisionTrace& trace) {
  JsonWriter w;
  w.BeginObject();
  w.KV("tick", static_cast<int64_t>(trace.tick));
  w.KV("pod", static_cast<int64_t>(trace.pod));
  w.KV("app", static_cast<int64_t>(trace.app));
  w.KV("slo", ToString(trace.slo));
  w.KV("sampled", trace.candidates_sampled);
  w.KV("feasible", trace.candidates_feasible);
  w.KV("chosen", static_cast<int64_t>(trace.chosen));
  w.KV("score", trace.chosen_score);
  w.KV("reason", trace.reject_reason);
  w.Key("top").BeginArray();
  for (const CandidateTrace& c : trace.top) {
    w.BeginObject();
    w.KV("host", static_cast<int64_t>(c.host));
    w.KV("score", c.score);
    w.KV("cpu_util", c.cpu_util);
    w.KV("mem_util", c.mem_util);
    w.KV("usage_fit", c.usage_fit);
    w.KV("interference", c.interference);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

void DecisionLog::Append(const DecisionTrace& trace) {
  if (file_ == nullptr) {
    return;
  }
  const std::string line = Render(trace);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  ++records_written_;
}

}  // namespace optum::obs
