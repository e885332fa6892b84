// perfbench: end-to-end and per-layer benchmark of the conformance-
// constraint library. See perfbench/README.md for the workloads, the
// metrics and the protocol; perfbench/run.py builds and runs it.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--plant-mismatch]
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace perfbench {

void AddLayerMetrics(const std::map<std::string, double>& values,
                     Result* result) {
  static const char* const kLayerMetrics[][2] = {
      {"dataframe.read_chunk.self_ms", "ms"},
      {"dataframe.read_chunk.mb_per_s", "MB/s"},
      {"dataframe.read_chunk.share", "ratio"},
      {"stream.windower_push.self_ms", "ms"},
      {"stream.window.copy_amplification", "ratio"},
      {"stream.chunk_queue.push_wait_ms", "ms"},
      {"stream.chunk_queue.pop_wait_ms", "ms"},
      {"stream.window_queue.push_wait_ms", "ms"},
      {"stream.window_queue.pop_wait_ms", "ms"},
      {"stream.chunk_queue.peak", "count"},
      {"stream.window_queue.peak", "count"},
      {"core.monitor_create.self_ms", "ms"},
      {"core.synthesize_simple.self_ms", "ms"},
      {"core.synthesize_disjunctive.self_ms", "ms"},
      {"core.envelope_fit.self_ms", "ms"},
      {"core.observe_windows.self_ms", "ms"},
      {"core.observe_windows.windows_per_s", "1/s"},
      {"core.profile_fold.self_ms", "ms"},
      {"core.profile_fold.rows", "count"},
      {"core.profile_refresh.self_ms", "ms"},
      {"core.profile_refresh.count", "count"},
      {"core.assess_all.self_ms", "ms"},
      {"core.violation_simple.self_ms", "ms"},
      {"core.violation_disjunctive.self_ms", "ms"},
      {"linalg.gram_accumulate.self_ms", "ms"},
      {"linalg.gram_accumulate.rows_per_s", "rows/s"},
      {"core.synthesize_from_gram.self_ms", "ms"},
      {"common.cpu_util", "ratio"},
      {"staged.wall_ms", "ms"},
      {"staged.unaccounted_share", "ratio"},
      {"pipeline.overlap_speedup", "ratio"},
      {"obs.session_overhead_pct", "%"},
  };
  for (const auto& metric : kLayerMetrics) {
    auto it = values.find(metric[0]);
    result->Add(metric[0], it == values.end() ? 0.0 : it->second, metric[1]);
  }
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <monitor_tumbling|"
               "monitor_sliding_poly|trust_batch> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny] [--plant-mismatch]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--plant-mismatch") {
      options.plant_mismatch = true;
    } else {
      return Usage();
    }
  }
  if (!(options.seconds > 0.0)) return Usage();
  perfbench::Result result;
  if (options.workload == "monitor_tumbling" ||
      options.workload == "monitor_sliding_poly") {
    result = perfbench::RunMonitorWorkload(options);
  } else if (options.workload == "trust_batch") {
    result = perfbench::RunTrustWorkload(options);
  } else {
    return Usage();
  }
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %llu operations, %llu failed\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               static_cast<unsigned long long>(result.attempted),
               static_cast<unsigned long long>(result.failed));
  std::printf("%s\n", result.ToJson().c_str());
  return 0;
}
