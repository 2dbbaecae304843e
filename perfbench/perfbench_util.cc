#include "perfbench/perfbench_util.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>

#include "src/obs/json_writer.h"

namespace optum::perfbench {

Percentile NearestRank(std::vector<double> samples, double q) {
  Percentile out;
  out.samples = static_cast<int64_t>(samples.size());
  if (samples.empty()) {
    return out;
  }
  const size_t n = samples.size();
  size_t k = static_cast<size_t>(std::ceil(q / 100.0 * static_cast<double>(n)));
  k = std::clamp<size_t>(k, 1, n);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   samples.end());
  out.value = samples[k - 1];
  out.beyond = static_cast<int64_t>(n - k);
  return out;
}

double PodLedger::failed_share() const {
  return attempted > 0 ? static_cast<double>(failed()) / static_cast<double>(attempted)
                       : 0.0;
}

uint64_t DeriveSeed(uint64_t seed, std::string_view stream) {
  Digest name;
  for (const char c : stream) {
    name.Add(static_cast<unsigned char>(c));
  }
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (name.value() | 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Digest::Add(uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (word >> (8 * i)) & 0xff;
    h_ *= 1099511628211ULL;
  }
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string RenderManifest(const Manifest& manifest) {
  obs::JsonWriter w;
  w.BeginObject();
  w.KV("schema", "optum.perfbench.manifest.v1");
  w.KV("workload", manifest.workload);
  w.KV("nproc", manifest.nproc);
  w.KV("build_type", manifest.build_type);
  w.KV("source", manifest.source);
  w.KV("compiler", manifest.compiler);
  w.KV("run_seconds", manifest.run_seconds);
  w.KV("trace", manifest.trace);
  w.Key("params").BeginObject();
  for (const auto& [key, value] : manifest.params) {
    w.KV(key, value);
  }
  w.EndObject();
  w.Key("seeds").BeginObject();
  for (const auto& [stream, seed] : manifest.seeds) {
    w.KV(stream, seed);
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

std::string RenderResultLine(bool correct, int64_t attempted, int64_t failed,
                             const std::vector<Metric>& metrics) {
  obs::JsonWriter w;
  w.BeginObject();
  w.KV("correct", correct);
  w.KV("attempted", attempted);
  w.KV("failed", failed);
  w.Key("metrics").BeginObject();
  for (const Metric& m : metrics) {
    w.Key(m.name).BeginObject();
    w.Key("value").RawValue(FormatNumber(m.value));
    w.KV("unit", m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

}  // namespace optum::perfbench
