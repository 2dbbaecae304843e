// bench_diff: compares two BENCH_hotpath.json documents and fails on
// throughput regressions — the repo's first CI-able perf gate
// (tools/bench_runner.sh runs it against the committed baseline).
//
// Throughput leaves are recognized by key prefix: pods_per_sec* and
// ticks_per_sec* are higher-is-better, ns_row* is lower-is-better. Rows in
// bench arrays are matched by their identifying fields (hosts, pods,
// lanes, batch, ...), not by index, so reordering or appending rows never
// misattributes a number.
//
// Usage:
//   bench_diff [--threshold PCT] old.json new.json
//
// Exit codes: 0 = no regression (including the no-baseline case: a missing
// old.json prints how to record one and passes, so fresh checkouts are not
// gated on a file they cannot have), 1 = at least one metric regressed more
// than the threshold, 2 = usage or parse error. The default threshold is
// deliberately generous (30%) because the reference numbers come from
// noisy shared machines; tighten it with --threshold on quiet hardware.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/obs/json_reader.h"

using optum::obs::JsonValue;

namespace {

bool ReadFile(const std::string& path, std::string* out, bool* opened) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (opened != nullptr) {
      *opened = false;
      return false;
    }
    std::fprintf(stderr, "bench_diff: cannot open %s\n", path.c_str());
    return false;
  }
  if (opened != nullptr) {
    *opened = true;
  }
  char buf[1 << 16];
  size_t n;
  out->clear();
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  std::fclose(f);
  return true;
}

enum class Direction { kNotAMetric, kHigherBetter, kLowerBetter };

Direction Classify(const std::string& key) {
  if (key.rfind("pods_per_sec", 0) == 0 || key.rfind("ticks_per_sec", 0) == 0) {
    return Direction::kHigherBetter;
  }
  // ns/row (forest inference) and latency_s_* (serve-layer placement
  // latency percentiles) are both lower-is-better. The latency values are
  // deterministic model-time arithmetic, so any nonzero change means
  // service behavior changed, not machine noise.
  if (key.rfind("ns_row", 0) == 0 || key.rfind("latency_s", 0) == 0) {
    return Direction::kLowerBetter;
  }
  return Direction::kNotAMetric;
}

// Fields that identify a bench row across the two files (never compared as
// metrics themselves).
constexpr const char* kIdentityKeys[] = {"hosts",   "pods",  "lanes",
                                         "batch",   "ticks", "candidates_per_pod",
                                         "trees",   "rows",  "features",
                                         "shards",  "offered_pods_per_sec",
                                         "rounds",  "pipeline_depth"};

std::string RowSignature(const JsonValue& row) {
  std::string sig;
  for (const char* key : kIdentityKeys) {
    const JsonValue* v = row.Find(key);
    if (v != nullptr && v->is_number()) {
      sig += key;
      sig += '=';
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", v->number);
      sig += buf;
      sig += ',';
    }
  }
  return sig;
}

struct Comparison {
  std::string path;
  double old_value = 0.0;
  double new_value = 0.0;
  double change_pct = 0.0;  // signed; positive = improved
  bool regressed = false;
};

void Compare(const JsonValue& before, const JsonValue& after,
             const std::string& path, double threshold_pct,
             std::vector<Comparison>* out, int* missing) {
  if (before.is_object() && after.is_object()) {
    for (const auto& [key, old_child] : before.members) {
      const JsonValue* new_child = after.Find(key);
      const Direction dir = Classify(key);
      if (dir != Direction::kNotAMetric && old_child.is_number()) {
        if (new_child == nullptr || !new_child->is_number()) {
          ++*missing;
          continue;
        }
        Comparison c;
        c.path = path + key;
        c.old_value = old_child.number;
        c.new_value = new_child->number;
        if (c.old_value != 0.0) {
          const double delta = (c.new_value - c.old_value) / c.old_value * 100.0;
          c.change_pct = dir == Direction::kHigherBetter ? delta : -delta;
        }
        c.regressed = c.change_pct < -threshold_pct;
        out->push_back(c);
        continue;
      }
      if (new_child == nullptr) {
        if (old_child.is_object() || old_child.is_array()) {
          ++*missing;
        }
        continue;
      }
      Compare(old_child, *new_child, path + key + ".", threshold_pct, out, missing);
    }
    return;
  }
  if (before.is_array() && after.is_array()) {
    for (size_t i = 0; i < before.items.size(); ++i) {
      const JsonValue& old_row = before.items[i];
      if (!old_row.is_object()) {
        continue;  // plain value arrays carry no named metrics
      }
      const std::string sig = RowSignature(old_row);
      const JsonValue* match = nullptr;
      for (const JsonValue& new_row : after.items) {
        if (new_row.is_object() && RowSignature(new_row) == sig) {
          match = &new_row;
          break;
        }
      }
      if (match == nullptr) {
        ++*missing;
        continue;
      }
      Compare(old_row, *match, path + "[" + sig + "].", threshold_pct, out,
              missing);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  optum::FlagParser flags;
  if (!flags.Parse(argc, argv) || flags.positional().size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_diff [--threshold PCT] old.json new.json\n");
    return 2;
  }
  const double threshold = flags.GetDouble("threshold", 30.0);

  std::string old_text, new_text;
  bool baseline_exists = true;
  if (!ReadFile(flags.positional()[0], &old_text, &baseline_exists)) {
    if (!baseline_exists) {
      // A missing baseline is the expected state of a fresh checkout or a
      // machine that has never benched — tell the user how to create one and
      // pass the gate instead of failing it.
      std::printf(
          "bench_diff: no baseline at %s — nothing to compare against.\n"
          "Run tools/bench_runner.sh --write-baseline to record one, then "
          "commit it.\n",
          flags.positional()[0].c_str());
      return 0;
    }
    return 2;
  }
  if (!ReadFile(flags.positional()[1], &new_text, nullptr)) {
    return 2;
  }
  JsonValue before, after;
  std::string error;
  if (!optum::obs::ParseJson(old_text, &before, &error)) {
    std::fprintf(stderr, "bench_diff: %s: %s\n", flags.positional()[0].c_str(),
                 error.c_str());
    return 2;
  }
  if (!optum::obs::ParseJson(new_text, &after, &error)) {
    std::fprintf(stderr, "bench_diff: %s: %s\n", flags.positional()[1].c_str(),
                 error.c_str());
    return 2;
  }

  std::vector<Comparison> comparisons;
  int missing = 0;
  Compare(before, after, "", threshold, &comparisons, &missing);

  int regressions = 0;
  for (const Comparison& c : comparisons) {
    if (c.regressed) {
      ++regressions;
    }
    std::printf("%-11s %+7.1f%%  %-60s %12.1f -> %12.1f\n",
                c.regressed ? "REGRESSION" : "ok", c.change_pct, c.path.c_str(),
                c.old_value, c.new_value);
  }
  if (missing > 0) {
    std::printf("note: %d metric(s)/row(s) present in old but missing in new "
                "(not compared)\n",
                missing);
  }
  std::printf("%zu metric(s) compared, %d regression(s) beyond %.1f%%\n",
              comparisons.size(), regressions, threshold);
  if (comparisons.empty()) {
    std::fprintf(stderr, "bench_diff: no comparable throughput metrics found\n");
    return 2;
  }
  return regressions > 0 ? 1 : 0;
}
