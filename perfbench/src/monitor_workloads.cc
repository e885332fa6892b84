// monitor_tumbling and monitor_sliding_poly: the streaming drift monitor
// (paper §4.3.2) driven end to end through stream::StreamPipeline, and
// the staged serial run that calls the same public functions in
// pipeline order with benchmark-owned spans around each call.

#include <algorithm>
#include <istream>
#include <sstream>

#include "common/parallel.h"
#include "common/random.h"
#include "core/kernel.h"
#include "core/monitor.h"
#include "dataframe/csv.h"
#include "linalg/gram.h"
#include "obs/metrics.h"
#include "stream/pipeline.h"
#include "stream/windower.h"
#include "synth/har.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ccs::Rng;
using ccs::core::WindowScore;
using ccs::dataframe::DataFrame;

constexpr size_t kRefreshEvery = 16;
constexpr size_t kMinLatencySamples = 200;

struct MonitorSpec {
  DataFrame reference;
  /// The stream as CSV bytes, formatted once before anything is timed.
  std::string csv;
  /// Byte offset one past each data row's newline.
  std::vector<size_t> row_end;
  /// First data row after the drift.
  size_t drift_row = 0;
  /// An alarm must fire within this many windows of the first window
  /// holding drifted rows.
  size_t alarm_within = 0;
  ccs::stream::StreamPipelineOptions options;

  size_t step() const {
    return options.slide_rows == 0 ? options.window_rows : options.slide_rows;
  }
  size_t num_windows() const {
    if (row_end.size() < options.window_rows) return 0;
    return (row_end.size() - options.window_rows) / step() + 1;
  }
  size_t last_row(size_t window) const {
    return window * step() + options.window_rows - 1;
  }
  /// The first window holding a drifted row.
  size_t first_drifted_window() const {
    if (drift_row + 1 <= options.window_rows) return 0;
    return (drift_row + 1 - options.window_rows + step() - 1) / step();
  }
};

void FinishSpec(const DataFrame& stream, MonitorSpec* spec) {
  std::ostringstream out;
  CheckOk(ccs::dataframe::WriteCsv(stream, out), "WriteCsv");
  spec->csv = out.str();
  // Generated cells are never quoted, so every newline ends a line.
  bool header = true;
  for (size_t i = 0; i < spec->csv.size(); ++i) {
    if (spec->csv[i] != '\n') continue;
    if (!header) spec->row_end.push_back(i + 1);
    header = false;
  }
  spec->options.refresh_every = kRefreshEvery;
  spec->options.num_threads = kLanes;
  spec->options.chunk_rows = 1024;
}

DataFrame Shuffled(const DataFrame& df, Rng* rng) {
  return df.Gather(rng->Permutation(df.num_rows())).Materialize();
}

// HAR-shaped stream: the reference and the stream's first half are
// sedentary activities, the second half mobile ones.
MonitorSpec MakeHarTumbling(uint64_t seed, bool tiny) {
  const std::vector<std::string> persons = ccs::synth::HarPersons(8);
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 11);
  MonitorSpec spec;
  auto reference = ccs::synth::GenerateHar(
      persons, ccs::synth::SedentaryActivities(), tiny ? 60 : 400, &rng);
  CheckOk(reference.status(), "GenerateHar");
  spec.reference = std::move(*reference);
  auto sedentary = ccs::synth::GenerateHar(
      persons, ccs::synth::SedentaryActivities(), tiny ? 128 : 1024, &rng);
  auto mobile = ccs::synth::GenerateHar(
      persons, ccs::synth::MobileActivities(), tiny ? 192 : 1536, &rng);
  CheckOk(sedentary.status(), "GenerateHar");
  CheckOk(mobile.status(), "GenerateHar");
  auto stream = Shuffled(*sedentary, &rng).Concat(Shuffled(*mobile, &rng));
  CheckOk(stream.status(), "Concat");
  spec.drift_row = sedentary->num_rows();
  spec.alarm_within = 4;
  spec.options.window_rows = 256;
  FinishSpec(*stream, &spec);
  return spec;
}

// bench_stream_pipeline's latent-factor generator at 8 attributes: every
// column follows one shared factor; from `drift_from` on, odd columns
// drop off it (relationship drift, not magnitude drift).
DataFrame LatentFactorFrame(size_t rows, Rng* rng, size_t drift_from) {
  constexpr size_t kAttributes = 8;
  std::vector<std::vector<double>> cols(kAttributes, std::vector<double>(rows));
  for (size_t r = 0; r < rows; ++r) {
    const double base = rng->Gaussian(0.0, 1.0);
    const double broken = r >= drift_from ? 4.0 : 0.0;
    for (size_t c = 0; c < kAttributes; ++c) {
      const double factor = c % 2 == 1 ? base + broken : base;
      cols[c][r] = factor * (0.2 + 0.05 * static_cast<double>(c)) +
                   rng->Gaussian(0.0, 0.1);
    }
  }
  DataFrame df;
  for (size_t c = 0; c < kAttributes; ++c) {
    CheckOk(df.AddNumericColumn("a" + std::to_string(c), std::move(cols[c])),
            "AddNumericColumn");
  }
  return df;
}

MonitorSpec MakeSlidingPoly(uint64_t seed, bool tiny) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 23);
  MonitorSpec spec;
  const size_t stream_rows = tiny ? 4096 : 16384;
  spec.reference = LatentFactorFrame(tiny ? 2000 : 16000, &rng, ~size_t{0});
  spec.drift_row = stream_rows / 2;
  spec.options.window_rows = 512;
  spec.options.slide_rows = 64;
  spec.options.expand_polynomial = true;
  spec.alarm_within = 512 / 64 + 4;
  FinishSpec(LatentFactorFrame(stream_rows, &rng, spec.drift_row), &spec);
  return spec;
}

// ------------------------------------------------------------ staged

struct StagedCounts {
  size_t fold_rows = 0;
  size_t windows = 0;
};

// The pipeline's work done serially, one public call at a time, in the
// order the pipeline's stages do it: Create (monitor + profile seeded
// with the reference), then per chunk read -> window -> score batch ->
// fold -> refresh at the cadence boundary. The profile is kept as the
// GramAccumulator IncrementalSynthesizer wraps, so the Gram walk and the
// synthesis from it get spans of their own; the history is bitwise the
// pipeline's.
std::vector<WindowScore> RunStaged(const MonitorSpec& spec, Tracer* tracer,
                                   StagedCounts* counts) {
  const ccs::stream::StreamPipelineOptions& o = spec.options;
  ccs::StatusOr<ccs::core::StreamMonitor> monitor =
      ccs::Status::Internal("unset");
  {
    Tracer::Span span(tracer, "core.monitor_create");
    monitor = ccs::core::StreamMonitor::Create(
        spec.reference, o.alarm_threshold, o.synthesis,
        o.expand_polynomial ? &o.expansion : nullptr);
  }
  CheckOk(monitor.status(), "StreamMonitor::Create");
  const std::vector<std::string> base = spec.reference.NumericNames();
  std::vector<std::string> names = base;
  std::vector<ccs::dataframe::ColumnExpr> exprs;
  if (o.expand_polynomial) {
    names = ccs::core::ExpandedNames(base, o.expansion);
    exprs = ccs::core::ExpansionExprs(base, o.expansion);
  }
  ccs::linalg::GramAccumulator gram(names.size());
  auto fold = [&](const DataFrame& df) {
    Tracer::Span span(tracer, "core.profile_fold");
    auto view = exprs.empty() ? df.NumericViewFor(names)
                              : df.DerivedViewFor(exprs);
    CheckOk(view.status(), "profile view");
    {
      Tracer::Span inner(tracer, "linalg.gram_accumulate");
      gram.AddView(*view);
    }
    if (counts != nullptr) counts->fold_rows += df.num_rows();
  };
  fold(spec.reference);
  const ccs::core::Synthesizer synthesizer(o.synthesis);

  TimedStreambuf buf(spec.csv, nullptr);
  std::istream in(&buf);
  ccs::dataframe::CsvChunkReader reader(&in, spec.reference.schema());
  auto windower = ccs::stream::Windower::Create(o.window_rows, o.slide_rows);
  CheckOk(windower.status(), "Windower::Create");
  while (true) {
    ccs::StatusOr<DataFrame> chunk = ccs::Status::Internal("unset");
    {
      Tracer::Span span(tracer, "dataframe.read_chunk");
      chunk = reader.ReadChunk(o.chunk_rows);
    }
    CheckOk(chunk.status(), "ReadChunk");
    if (chunk->num_rows() == 0) break;
    ccs::StatusOr<std::vector<DataFrame>> windows =
        ccs::Status::Internal("unset");
    {
      Tracer::Span span(tracer, "stream.windower_push");
      windows = windower->Push(*chunk);
    }
    CheckOk(windows.status(), "Windower::Push");
    size_t next = 0;
    while (next < windows->size()) {
      // Like the pipeline, a batch never spans a refresh boundary.
      const size_t until_refresh =
          o.refresh_every - monitor->history_size() % o.refresh_every;
      const size_t take = std::min(
          {windows->size() - next, until_refresh, o.max_batch_windows});
      std::vector<DataFrame> batch(windows->begin() + next,
                                   windows->begin() + next + take);
      next += take;
      {
        Tracer::Span span(tracer, "core.observe_windows");
        CheckOk(monitor->ObserveWindows(batch, o.num_threads).status(),
                "ObserveWindows");
      }
      if (counts != nullptr) counts->windows += batch.size();
      for (const DataFrame& window : batch) fold(window);
      if (monitor->history_size() % o.refresh_every != 0) continue;
      Tracer::Span span(tracer, "core.profile_refresh");
      ccs::StatusOr<ccs::core::SimpleConstraint> refreshed =
          ccs::Status::Internal("unset");
      {
        Tracer::Span inner(tracer, "core.synthesize_from_gram");
        refreshed = synthesizer.SynthesizeSimpleFromGram(names, gram);
      }
      CheckOk(refreshed.status(), "SynthesizeSimpleFromGram");
      CheckOk(monitor->RefreshReference(*refreshed), "RefreshReference");
    }
  }
  return monitor->history();
}

// ----------------------------------------------------------- gates

// Windows whose committed score differs, bitwise, from `expected`.
size_t CountMismatches(const std::vector<WindowScore>& expected,
                       std::vector<WindowScore> got, bool* plant) {
  if (*plant && !got.empty()) {
    got.front().drift = FlipLowBit(got.front().drift);
    *plant = false;
  }
  const size_t common = std::min(expected.size(), got.size());
  size_t mismatches = std::max(expected.size(), got.size()) - common;
  for (size_t i = 0; i < common; ++i) {
    if (expected[i].window_index != got[i].window_index ||
        !SameBits(expected[i].drift, got[i].drift) ||
        expected[i].alarm != got[i].alarm) {
      ++mismatches;
    }
  }
  return mismatches;
}

// False alarms before the drift, plus one if no alarm fires within
// `alarm_within` windows of the first drifted window.
size_t AlarmGateFailures(const MonitorSpec& spec,
                         const std::vector<WindowScore>& history) {
  size_t failures = 0;
  bool caught = false;
  for (size_t i = 0; i < history.size(); ++i) {
    if (spec.last_row(i) < spec.drift_row) {
      if (history[i].alarm) ++failures;
      continue;
    }
    if (i < spec.first_drifted_window() + spec.alarm_within &&
        history[i].alarm) {
      caught = true;
    }
  }
  return failures + (caught ? 0 : 1);
}

// ----------------------------------------------------------- pipeline

struct PassOutcome {
  double create_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  std::vector<WindowScore> history;
  std::vector<double> latency_ms;
  ccs::stream::PipelineStats stats;
};

// One product-path pass: StreamPipeline::Create, then Run over the
// in-memory stream. Latency runs from the block that ends a window's
// last row being handed to the reader to that window's on_score.
PassOutcome RunPipelinePass(const MonitorSpec& spec) {
  PassOutcome out;
  const uint64_t t0 = NowNs();
  auto pipeline = ccs::stream::StreamPipeline::Create(spec.reference,
                                                      spec.options);
  out.create_s = Seconds(t0, NowNs());
  CheckOk(pipeline.status(), "StreamPipeline::Create");

  std::vector<uint64_t> hand_ns;
  std::vector<uint64_t> score_ns(spec.num_windows(), 0);
  TimedStreambuf buf(spec.csv, &hand_ns);
  std::istream in(&buf);
  auto on_score = [&](const WindowScore& score) {
    if (score.window_index < score_ns.size()) {
      score_ns[score.window_index] = NowNs();
    }
  };
  const double cpu0 = ProcessCpuSeconds();
  const uint64_t t1 = NowNs();
  ccs::stream::PipelineRunResult run = pipeline->Run(in, on_score);
  out.run_s = Seconds(t1, NowNs());
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  CheckOk(run.status, "StreamPipeline::Run");
  out.stats = run.stats;
  out.history = pipeline->history();
  out.latency_ms.reserve(score_ns.size());
  for (size_t i = 0; i < score_ns.size(); ++i) {
    if (score_ns[i] == 0) continue;  // Not scored: caught by the gate.
    const size_t block =
        TimedStreambuf::BlockOf(spec.row_end[spec.last_row(i)] - 1);
    out.latency_ms.push_back(
        static_cast<double>(score_ns[i] - hand_ns[block]) * 1e-6);
  }
  return out;
}

struct Checker {
  const MonitorSpec& spec;
  const std::vector<WindowScore>& expected;
  bool plant;
  Result* result;

  void Check(const std::vector<WindowScore>& history) {
    const size_t windows = spec.num_windows();
    const size_t bad = CountMismatches(expected, history, &plant) +
                       AlarmGateFailures(spec, history);
    result->attempted += windows;
    result->failed += std::min(bad, windows);
  }
};

void RunEndToEnd(const MonitorSpec& spec, Checker* checker, double seconds,
                 Result* result) {
  RunPipelinePass(spec);  // Warm-up: untimed, discarded.
  ResetPeakRss();
  std::vector<double> setup_s;
  std::vector<double> latency_ms;
  double rows = 0.0;
  double run_s = 0.0;
  const uint64_t start = NowNs();
  while (Seconds(start, NowNs()) < seconds || setup_s.size() < 3 ||
         latency_ms.size() < kMinLatencySamples) {
    PassOutcome pass = RunPipelinePass(spec);
    setup_s.push_back(pass.create_s);
    rows += static_cast<double>(pass.stats.rows_ingested);
    run_s += pass.run_s;
    latency_ms.insert(latency_ms.end(), pass.latency_ms.begin(),
                      pass.latency_ms.end());
    checker->Check(pass.history);
  }
  const double mem_mb = PeakRssMb();
  result->Add("rows_per_s", rows / run_s, "rows/s");
  result->Add("latency_p50_ms", Percentile(latency_ms, 50.0), "ms");
  result->Add("latency_p95_ms", Percentile(latency_ms, 95.0), "ms");
  result->Add("setup_s", Median(setup_s), "s");
  result->Add("mem_peak_mb", mem_mb, "MB");
}

void RunTraced(const MonitorSpec& spec, Checker* checker, double seconds,
               Result* result) {
  RunPipelinePass(spec);  // Warm-up: untimed, discarded.
  Samples samples;
  const double rows = static_cast<double>(spec.row_end.size());

  // Phase 1: the staged serial run under benchmark-owned spans.
  uint64_t start = NowNs();
  for (size_t pass = 0; pass < 2 || Seconds(start, NowNs()) < 0.35 * seconds;
       ++pass) {
    Tracer tracer;
    StagedCounts counts;
    const uint64_t t0 = NowNs();
    std::vector<WindowScore> history = RunStaged(spec, &tracer, &counts);
    const double wall_ms = Seconds(t0, NowNs()) * 1e3;
    checker->Check(history);
    for (const char* span :
         {"dataframe.read_chunk", "stream.windower_push", "core.monitor_create",
          "core.observe_windows", "core.profile_fold", "core.profile_refresh",
          "linalg.gram_accumulate", "core.synthesize_from_gram"}) {
      samples.Add(std::string(span) + ".self_ms", tracer.SelfMs(span));
    }
    const double read_ms = tracer.SelfMs("dataframe.read_chunk");
    samples.Add("dataframe.read_chunk.mb_per_s",
                static_cast<double>(spec.csv.size()) * 1e-6 / (read_ms * 1e-3));
    samples.Add("dataframe.read_chunk.share", read_ms / wall_ms);
    samples.Add("core.observe_windows.windows_per_s",
                static_cast<double>(counts.windows) /
                    (tracer.SelfMs("core.observe_windows") * 1e-3));
    samples.Add("core.profile_fold.rows",
                static_cast<double>(counts.fold_rows));
    samples.Add("core.profile_refresh.count",
                static_cast<double>(tracer.Count("core.profile_refresh")));
    samples.Add("linalg.gram_accumulate.rows_per_s",
                static_cast<double>(counts.fold_rows) /
                    (tracer.SelfMs("linalg.gram_accumulate") * 1e-3));
    samples.Add("staged.wall_ms", wall_ms);
    samples.Add("staged.unaccounted_share",
                1.0 - tracer.AccountedMs() / wall_ms);
  }

  // Phase 2: the pipeline itself, for queue waits, peaks, copies and
  // CPU use (the library's own obs::Registry counters).
  ccs::obs::Registry& registry = ccs::obs::Registry::Global();
  start = NowNs();
  for (size_t pass = 0; pass < 2 || Seconds(start, NowNs()) < 0.2 * seconds;
       ++pass) {
    registry.Reset();
    PassOutcome out = RunPipelinePass(spec);
    checker->Check(out.history);
    for (const char* queue : {"stream.chunk_queue", "stream.window_queue"}) {
      for (const char* side : {"push_wait", "pop_wait"}) {
        const std::string base = std::string(queue) + "." + side;
        samples.Add(base + "_ms",
                    registry.GetHistogram(base + "_us")->Snapshot().sum * 1e-3);
      }
    }
    samples.Add("stream.chunk_queue.peak",
                static_cast<double>(out.stats.chunk_queue_peak));
    samples.Add("stream.window_queue.peak",
                static_cast<double>(out.stats.window_queue_peak));
    samples.Add("stream.window.copy_amplification",
                static_cast<double>(out.stats.window_rows_copied) / rows);
    samples.Add("common.cpu_util", out.cpu_s / out.run_s);
    samples.Add("pipeline.wall_ms", (out.create_s + out.run_s) * 1e3);
  }

  // Phase 3: the obs::ObsSession overhead.
  const double overhead_pct = SessionOverheadPct(0.45 * seconds, [&] {
    PassOutcome out = RunPipelinePass(spec);
    checker->Check(out.history);
    return static_cast<double>(out.stats.rows_ingested) / out.run_s;
  });

  std::map<std::string, double> layers = samples.Medians();
  layers["pipeline.overlap_speedup"] =
      samples.MedianOf("staged.wall_ms") / samples.MedianOf("pipeline.wall_ms");
  layers["obs.session_overhead_pct"] = overhead_pct;
  AddLayerMetrics(layers, result);
}

}  // namespace

Result RunMonitorWorkload(const RunOptions& options) {
  MonitorSpec spec = options.workload == "monitor_tumbling"
                         ? MakeHarTumbling(options.seed, options.tiny)
                         : MakeSlidingPoly(options.seed, options.tiny);
  ccs::common::SetDefaultThreadCount(kLanes);
  Result result;
  // The reference history: the staged run, untimed.
  const std::vector<WindowScore> expected = RunStaged(spec, nullptr, nullptr);
  if (expected.size() != spec.num_windows() ||
      AlarmGateFailures(spec, expected) != 0) {
    result.gates_ok = false;
  }
  Checker checker{spec, expected, options.plant_mismatch, &result};
  if (options.trace) {
    RunTraced(spec, &checker, options.seconds, &result);
  } else {
    RunEndToEnd(spec, &checker, options.seconds, &result);
  }
  return result;
}

}  // namespace perfbench
