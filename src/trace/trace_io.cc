#include "src/trace/trace_io.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <type_traits>
#include <vector>

namespace optum {
namespace {

struct FileCloser {
  void operator()(FILE* f) const {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
};
using FilePtr = std::unique_ptr<FILE, FileCloser>;

FilePtr OpenFor(const std::string& dir, const char* name, const char* mode) {
  const std::string path = dir + "/" + name;
  return FilePtr(std::fopen(path.c_str(), mode));
}

// Parses one CSV line of doubles into `out`. Returns false unless it holds
// exactly `expected_fields` comma-separated fields, all finite (strtod also
// accepts "nan" and "inf"), followed by nothing but blanks and the line end.
bool ParseRow(const char* line, size_t expected_fields, std::vector<double>& out) {
  out.clear();
  const char* p = line;
  while (true) {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p || !std::isfinite(v)) {
      return false;
    }
    out.push_back(v);
    p = end;
    if (*p != ',') {
      break;
    }
    ++p;
  }
  while (*p == ' ' || *p == '\t' || *p == '\r') {
    ++p;
  }
  return (*p == '\n' || *p == '\0') && out.size() == expected_fields;
}

// An id or tick column: an integer inside Int's range. Casting any other
// double to Int is undefined behaviour.
template <typename Int>
bool ParseInt(double v, Int* out) {
  static_assert(std::is_signed_v<Int>);
  // -min is 2^(bits - 1), exact as a double, so v < -kMin excludes max + 1.
  constexpr double kMin = static_cast<double>(std::numeric_limits<Int>::min());
  if (!(v >= kMin && v < -kMin) || v != std::floor(v)) {
    return false;
  }
  *out = static_cast<Int>(v);
  return true;
}

// An app_id column: an integer in [0, kAppIdLimit).
bool ParseAppId(double v, AppId* out) {
  AppId app = 0;
  if (!ParseInt(v, &app) || app < 0 || app >= kAppIdLimit) {
    return false;
  }
  *out = app;
  return true;
}

// An SloClass column: an integer in [0, kNumSloClasses).
bool ParseSlo(double v, SloClass* out) {
  int slo = 0;
  if (!ParseInt(v, &slo) || slo < 0 || slo >= kNumSloClasses) {
    return false;
  }
  *out = static_cast<SloClass>(slo);
  return true;
}

// Calls fn on every data row after the header; stops and returns false on
// a malformed row or when fn rejects one. A line that does not fit the
// buffer is malformed: reading it in pieces would parse its tail as a row
// of its own.
bool ForEachRow(FILE* f, size_t expected_fields,
                const std::function<bool(const std::vector<double>&)>& fn) {
  char line[512];
  std::vector<double> fields;
  bool first = true;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    const size_t len = std::strlen(line);
    // fgets stops at a newline, a full buffer or the end of the file; only
    // the last may leave a complete line without its newline.
    if (len > 0 && line[len - 1] != '\n' && std::fgetc(f) != EOF) {
      return false;
    }
    if (first) {
      first = false;  // Skip the header row.
      continue;
    }
    if (line[0] == '\n' || line[0] == '\0') {
      continue;
    }
    if (!ParseRow(line, expected_fields, fields) || !fn(fields)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool WriteTraceBundle(const TraceBundle& bundle, const std::string& directory) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return false;
  }

  {
    FilePtr f = OpenFor(directory, "nodes.csv", "w");
    if (!f) return false;
    std::fprintf(f.get(), "machine_id,cpu_capacity,mem_capacity\n");
    for (const auto& n : bundle.nodes) {
      std::fprintf(f.get(), "%d,%.17g,%.17g\n", n.machine_id, n.capacity.cpu, n.capacity.mem);
    }
  }
  {
    FilePtr f = OpenFor(directory, "pods.csv", "w");
    if (!f) return false;
    std::fprintf(f.get(),
                 "pod_id,app_id,slo,cpu_request,mem_request,cpu_limit,mem_limit,"
                 "submit_tick,original_machine_id\n");
    for (const auto& p : bundle.pods) {
      std::fprintf(f.get(), "%lld,%d,%d,%.17g,%.17g,%.17g,%.17g,%lld,%d\n",
                   static_cast<long long>(p.pod_id), p.app_id, static_cast<int>(p.slo),
                   p.request.cpu, p.request.mem, p.limit.cpu, p.limit.mem,
                   static_cast<long long>(p.submit_tick), p.original_machine_id);
    }
  }
  {
    FilePtr f = OpenFor(directory, "node_usage.csv", "w");
    if (!f) return false;
    std::fprintf(f.get(), "machine_id,tick,cpu,mem,disk,net\n");
    for (const auto& r : bundle.node_usage) {
      std::fprintf(f.get(), "%d,%lld,%.17g,%.17g,%.17g,%.17g\n", r.machine_id,
                   static_cast<long long>(r.collect_tick), r.cpu_usage, r.mem_usage,
                   r.disk_usage, r.net_usage);
    }
  }
  {
    FilePtr f = OpenFor(directory, "pod_usage.csv", "w");
    if (!f) return false;
    std::fprintf(f.get(),
                 "pod_id,host,tick,cpu,mem,disk,cpu_psi_10,cpu_psi_60,cpu_psi_300,"
                 "mem_psi_some_60,mem_psi_full_60,qps,response_time\n");
    for (const auto& r : bundle.pod_usage) {
      std::fprintf(f.get(),
                   "%lld,%d,%lld,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n",
                   static_cast<long long>(r.pod_id), r.host,
                   static_cast<long long>(r.collect_tick),
                   r.cpu_usage, r.mem_usage, r.disk_usage, r.cpu_psi_10, r.cpu_psi_60,
                   r.cpu_psi_300, r.mem_psi_some_60, r.mem_psi_full_60, r.qps,
                   r.response_time);
    }
  }
  {
    FilePtr f = OpenFor(directory, "lifecycles.csv", "w");
    if (!f) return false;
    std::fprintf(f.get(),
                 "pod_id,app_id,slo,submit_tick,schedule_tick,finish_tick,host,"
                 "waiting_seconds,ideal_ct,actual_ct,max_cpu_psi\n");
    for (const auto& r : bundle.lifecycles) {
      std::fprintf(f.get(), "%lld,%d,%d,%lld,%lld,%lld,%d,%.17g,%.17g,%.17g,%.17g\n",
                   static_cast<long long>(r.pod_id), r.app_id, static_cast<int>(r.slo),
                   static_cast<long long>(r.submit_tick),
                   static_cast<long long>(r.schedule_tick),
                   static_cast<long long>(r.finish_tick), r.host, r.waiting_seconds,
                   r.ideal_completion_ticks, r.actual_completion_ticks, r.max_cpu_psi);
    }
  }
  return true;
}

bool ReadTraceBundle(const std::string& directory, TraceBundle* out) {
  *out = TraceBundle{};
  {
    FilePtr f = OpenFor(directory, "nodes.csv", "r");
    if (!f) return false;
    if (!ForEachRow(f.get(), 3, [&](const std::vector<double>& v) {
          NodeMeta n;
          // A host needs positive capacity: utilization divides by it.
          if (!ParseInt(v[0], &n.machine_id) || !(v[1] > 0.0) || !(v[2] > 0.0)) {
            return false;
          }
          n.capacity = {v[1], v[2]};
          out->nodes.push_back(n);
          return true;
        })) {
      return false;
    }
  }
  {
    FilePtr f = OpenFor(directory, "pods.csv", "r");
    if (!f) return false;
    if (!ForEachRow(f.get(), 9, [&](const std::vector<double>& v) {
          PodMeta p;
          if (!ParseInt(v[0], &p.pod_id) || !ParseAppId(v[1], &p.app_id) ||
              !ParseSlo(v[2], &p.slo) || !ParseInt(v[7], &p.submit_tick) ||
              !ParseInt(v[8], &p.original_machine_id) || v[3] < 0.0 || v[4] < 0.0 ||
              v[5] < 0.0 || v[6] < 0.0) {
            return false;
          }
          p.request = {v[3], v[4]};
          p.limit = {v[5], v[6]};
          out->pods.push_back(p);
          return true;
        })) {
      return false;
    }
  }
  {
    FilePtr f = OpenFor(directory, "node_usage.csv", "r");
    if (!f) return false;
    if (!ForEachRow(f.get(), 6, [&](const std::vector<double>& v) {
          NodeUsageRecord r;
          if (!ParseInt(v[0], &r.machine_id) || !ParseInt(v[1], &r.collect_tick)) {
            return false;
          }
          r.cpu_usage = v[2];
          r.mem_usage = v[3];
          r.disk_usage = v[4];
          r.net_usage = v[5];
          out->node_usage.push_back(r);
          return true;
        })) {
      return false;
    }
  }
  {
    FilePtr f = OpenFor(directory, "pod_usage.csv", "r");
    if (!f) return false;
    Tick last_tick = std::numeric_limits<Tick>::min();
    if (!ForEachRow(f.get(), 13, [&](const std::vector<double>& v) {
          PodUsageRecord r;
          // pod_usage is tick-major with host ids >= 0 (see schema.h).
          if (!ParseInt(v[0], &r.pod_id) || !ParseInt(v[1], &r.host) ||
              !ParseInt(v[2], &r.collect_tick) || r.host < 0 || r.collect_tick < last_tick) {
            return false;
          }
          last_tick = r.collect_tick;
          r.cpu_usage = v[3];
          r.mem_usage = v[4];
          r.disk_usage = v[5];
          r.cpu_psi_10 = v[6];
          r.cpu_psi_60 = v[7];
          r.cpu_psi_300 = v[8];
          r.mem_psi_some_60 = v[9];
          r.mem_psi_full_60 = v[10];
          r.qps = v[11];
          r.response_time = v[12];
          out->pod_usage.push_back(r);
          return true;
        })) {
      return false;
    }
  }
  {
    FilePtr f = OpenFor(directory, "lifecycles.csv", "r");
    if (!f) return false;
    if (!ForEachRow(f.get(), 11, [&](const std::vector<double>& v) {
          PodLifecycleRecord r;
          if (!ParseInt(v[0], &r.pod_id) || !ParseAppId(v[1], &r.app_id) ||
              !ParseSlo(v[2], &r.slo) || !ParseInt(v[3], &r.submit_tick) ||
              !ParseInt(v[4], &r.schedule_tick) || !ParseInt(v[5], &r.finish_tick) ||
              !ParseInt(v[6], &r.host)) {
            return false;
          }
          r.waiting_seconds = v[7];
          r.ideal_completion_ticks = v[8];
          r.actual_completion_ticks = v[9];
          r.max_cpu_psi = v[10];
          out->lifecycles.push_back(r);
          return true;
        })) {
      return false;
    }
  }
  return true;
}

}  // namespace optum
