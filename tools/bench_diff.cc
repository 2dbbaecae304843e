// bench_diff: the perf gate over google-benchmark JSON documents
// (bench_hotpath --benchmark_out=FILE --benchmark_out_format=json;
// tools/bench_runner.sh runs it against the committed BENCH_hotpath.json).
//
//   bench_diff [--threshold PCT] old.json new.json
//
// Benchmarks are matched by name and summarized by the `median` and `mad`
// aggregates of cpu_time (the thread's CPU time per iteration). A
// one-repetition run has no aggregates: its single run is its median, and
// its spread is unknown. Checks:
//   regression  the new median is slower than the old by more than PCT
//               percent (default 10) AND by more than mad_old + mad_new;
//   budget      each overhead budget of kBudgets, on the new file alone: the
//               overhead of a configuration over its base fails only when it
//               exceeds the limit by more than the pair's spread
//               ((mad + mad_base) / median_base); a run with one repetition
//               has no spread, so its budgets are printed, not gated;
//   hard        error_occurred, a benchmark missing from the baseline, or a
//               zero or non-finite median (a zero baseline could never
//               regress) fails the gate.
// Baseline benchmarks absent from the new file are listed and pass, so a
// --benchmark_filter run can be diffed against the full baseline.
//
// Exit codes: 0 = gate passed (also when old.json does not exist: a fresh
// checkout cannot have a baseline, so it prints how to record one), 1 = gate
// failed, 2 = usage or parse error.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/obs/json_reader.h"

using optum::obs::JsonValue;

namespace {

// The overhead budgets DESIGN.md states, gated on every run. A name matches
// the benchmark of that name, with or without google-benchmark's
// "/iterations:N" suffix. Spans and profile carry their measured budgets:
// rendering three spans (~0.35 us) and closing a profiler round after every
// placement cost more than 2% of a ~6.5 us placement (DESIGN.md §11, §14).
struct Budget {
  const char* name;
  const char* base;
  double max_pct;
};
constexpr Budget kBudgets[] = {
    {"Sinks/metrics_on", "Sinks/metrics_off", 2.0},  // DESIGN.md §9
    {"Sinks/spans", "Sinks/metrics_on", 8.0},        // DESIGN.md §11
    {"Sinks/pressure", "Sinks/metrics_on", 2.0},     // DESIGN.md §13
    {"Sinks/profile", "Sinks/metrics_on", 5.0},      // DESIGN.md §14
};

struct Summary {
  double median_ns = NAN;
  double mad_ns = 0.0;
  bool has_spread = false;  // false: one repetition, spread unknown
  int runs = 0;             // iteration entries
  double single_run_ns = NAN;
  std::string error;        // error_message of a failed run
};

double ToNs(const JsonValue& entry, const char* key) {
  const JsonValue* unit = entry.Find("time_unit");
  const std::string u = unit != nullptr ? unit->string_value : "ns";
  const double scale = u == "s" ? 1e9 : u == "ms" ? 1e6 : u == "us" ? 1e3 : 1.0;
  const JsonValue* v = entry.Find(key);
  return v != nullptr && v->is_number() ? v->number * scale : NAN;
}

std::string Str(const JsonValue& entry, const char* key) {
  const JsonValue* v = entry.Find(key);
  return v != nullptr && v->is_string() ? v->string_value : "";
}

// Loads one document: 0 = ok, 1 = the file does not exist, 2 = unreadable
// or not a google-benchmark JSON document.
int Load(const std::string& path, std::map<std::string, Summary>* out) {
  std::string text;
  if (!optum::obs::ReadWholeFile(path, &text)) {
    return 1;
  }
  JsonValue doc;
  std::string error;
  if (!optum::obs::ParseJson(text, &doc, &error)) {
    std::fprintf(stderr, "bench_diff: %s: %s\n", path.c_str(), error.c_str());
    return 2;
  }
  const JsonValue* benchmarks = doc.Find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    std::fprintf(stderr, "bench_diff: %s: no \"benchmarks\" array\n", path.c_str());
    return 2;
  }
  for (const JsonValue& entry : benchmarks->items) {
    std::string name = Str(entry, "run_name");
    if (name.empty()) {
      name = Str(entry, "name");
    }
    if (name.empty()) {
      std::fprintf(stderr, "bench_diff: %s: benchmark entry without a name\n",
                   path.c_str());
      return 2;
    }
    Summary& s = (*out)[name];
    const JsonValue* failed = entry.Find("error_occurred");
    if (failed != nullptr && failed->bool_value) {
      s.error = Str(entry, "error_message");
      if (s.error.empty()) {
        s.error = "error_occurred";
      }
    }
    if (Str(entry, "run_type") == "aggregate") {
      const std::string aggregate = Str(entry, "aggregate_name");
      if (aggregate == "median") {
        s.median_ns = ToNs(entry, "cpu_time");
      } else if (aggregate == "mad") {
        s.mad_ns = ToNs(entry, "cpu_time");
        s.has_spread = true;
      }
    } else {
      ++s.runs;
      s.single_run_ns = ToNs(entry, "cpu_time");
    }
  }
  for (auto& [name, s] : *out) {
    if (std::isnan(s.median_ns) && s.runs == 1) {
      s.median_ns = s.single_run_ns;
    }
  }
  return 0;
}

bool Usable(double median_ns) { return std::isfinite(median_ns) && median_ns > 0.0; }

const Summary* FindBudgetOperand(const std::map<std::string, Summary>& runs,
                                 const std::string& key) {
  for (const auto& [run_name, s] : runs) {
    if (run_name == key || run_name.rfind(key + "/iterations:", 0) == 0) {
      return &s;
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  optum::FlagParser flags;
  if (!flags.Parse(argc, argv) || flags.positional().size() != 2) {
    std::fprintf(stderr, "usage: bench_diff [--threshold PCT] old.json new.json\n");
    return 2;
  }
  const double threshold = flags.GetDouble("threshold", 10.0);
  const std::string& old_path = flags.positional()[0];
  const std::string& new_path = flags.positional()[1];

  std::map<std::string, Summary> before, after;
  const int old_status = Load(old_path, &before);
  if (old_status == 1) {
    std::printf(
        "bench_diff: no baseline at %s — nothing to compare against.\n"
        "Run tools/bench_runner.sh --write-baseline to record one, then commit it.\n",
        old_path.c_str());
    return 0;
  }
  if (old_status == 2) {
    return 2;
  }
  const int new_status = Load(new_path, &after);
  if (new_status != 0) {
    if (new_status == 1) {
      std::fprintf(stderr, "bench_diff: cannot open %s\n", new_path.c_str());
    }
    return 2;
  }

  int failures = 0;
  for (const auto& [name, s] : after) {
    const auto old_it = before.find(name);
    if (!s.error.empty()) {
      std::printf("ERROR       %s: %s\n", name.c_str(), s.error.c_str());
      ++failures;
      continue;
    }
    if (!Usable(s.median_ns)) {
      std::printf("ERROR       %s: median cpu_time %g ns is zero or not finite\n",
                  name.c_str(), s.median_ns);
      ++failures;
      continue;
    }
    if (old_it == before.end()) {
      std::printf("NEW         %s: not in the baseline; re-record it with "
                  "tools/bench_runner.sh --write-baseline\n",
                  name.c_str());
      ++failures;
      continue;
    }
    const Summary& o = old_it->second;
    if (!o.error.empty() || !Usable(o.median_ns)) {
      std::printf("ERROR       %s: the baseline has no usable median (%s)\n", name.c_str(),
                  o.error.empty() ? "zero or not finite" : o.error.c_str());
      ++failures;
      continue;
    }
    const double delta = s.median_ns - o.median_ns;
    const double change_pct = delta / o.median_ns * 100.0;
    const double spread = o.mad_ns + s.mad_ns;
    const bool regressed = change_pct > threshold && delta > spread;
    failures += regressed ? 1 : 0;
    std::printf("%-11s %+7.1f%%  %-40s %12.1f -> %12.1f ns  (mad %.1f + %.1f)\n",
                regressed ? "REGRESSION" : "ok", change_pct, name.c_str(), o.median_ns,
                s.median_ns, o.mad_ns, s.mad_ns);
  }

  for (const Budget& b : kBudgets) {
    const Summary* s = FindBudgetOperand(after, b.name);
    const Summary* base = FindBudgetOperand(after, b.base);
    if (s == nullptr || base == nullptr) {
      std::printf("note: budget %s vs %s not run (filtered)\n", b.name, b.base);
      continue;
    }
    if (!s->error.empty() || !base->error.empty() || !Usable(s->median_ns) ||
        !Usable(base->median_ns)) {
      continue;  // already a hard failure above
    }
    const double overhead_pct = (s->median_ns / base->median_ns - 1.0) * 100.0;
    const double spread_pct = (s->mad_ns + base->mad_ns) / base->median_ns * 100.0;
    const bool gated = s->has_spread && base->has_spread;
    const bool breached = gated && overhead_pct > b.max_pct + spread_pct;
    failures += breached ? 1 : 0;
    std::printf("%-11s %+7.2f%%  %s vs %s  (limit %.1f%% + spread %.2f%%)%s\n",
                !gated ? "budget n/a" : breached ? "OVER BUDGET" : "budget ok",
                overhead_pct, b.name, b.base, b.max_pct, spread_pct,
                gated ? "" : " — one repetition has no spread: not gated");
  }

  int absent = 0;
  for (const auto& [name, s] : before) {
    if (after.find(name) == after.end()) {
      std::printf("note: %s is in the baseline but not in the new run\n", name.c_str());
      ++absent;
    }
  }
  if (after.empty()) {
    std::printf("ERROR       %s holds no benchmarks\n", new_path.c_str());
    ++failures;
  }
  std::printf("%zu benchmark(s), %d absent from the new run, %d failure(s); regression "
              "threshold %.1f%% beyond the MAD spread\n",
              after.size(), absent, failures, threshold);
  return failures > 0 ? 1 : 0;
}
