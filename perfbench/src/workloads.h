// The three perfbench workloads. Each generates its inputs from the
// seed, runs its correctness gates on every operation, and fills a
// Result: end-to-end metrics in a plain run, per-layer metrics (from
// the staged, span-traced run plus library counters) in a traced run.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <map>
#include <string>

#include "harness.h"

namespace perfbench {

/// monitor_tumbling and monitor_sliding_poly.
Result RunMonitorWorkload(const RunOptions& options);

/// trust_batch.
Result RunTrustWorkload(const RunOptions& options);

/// Appends every per-layer metric, in a fixed order and with its unit;
/// layers a workload bypasses report 0.
void AddLayerMetrics(const std::map<std::string, double>& values,
                     Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
