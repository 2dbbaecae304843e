// CSV serialization for trace bundles. The column layout matches the record
// structs in schema.h one-to-one, so real cluster traces can be massaged
// into the same files and replayed through the benches.
#ifndef OPTUM_SRC_TRACE_TRACE_IO_H_
#define OPTUM_SRC_TRACE_TRACE_IO_H_

#include <string>

#include "src/trace/schema.h"

namespace optum {

// Writes the bundle as a set of CSVs under `directory` (created if needed):
// nodes.csv, pods.csv, node_usage.csv, pod_usage.csv, lifecycles.csv.
// Every double is written with %.17g, so ReadTraceBundle returns exactly
// the bundle written. Returns false (with errno intact) on I/O failure.
bool WriteTraceBundle(const TraceBundle& bundle, const std::string& directory);

// Reads a bundle previously written by WriteTraceBundle. Returns false on
// missing files or malformed rows: a wrong field count, characters after
// the last field, a line longer than 511 bytes, a non-finite field, an id or
// tick that is not an integer inside its type's range, an slo outside
// [0, kNumSloClasses), an app_id (pods.csv, lifecycles.csv) outside
// [0, kAppIdLimit), a nodes.csv capacity that is not positive, a pods.csv
// request or limit below zero (zero is accepted), or a pod_usage.csv row with
// a negative host or a tick below the previous row's (pod_usage is
// tick-major, host >= 0).
bool ReadTraceBundle(const std::string& directory, TraceBundle* out);

}  // namespace optum

#endif  // OPTUM_SRC_TRACE_TRACE_IO_H_
