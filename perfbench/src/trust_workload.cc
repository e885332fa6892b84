// trust_batch: trusted-ML tuple screening (paper §5). SafetyEnvelope::Fit
// on HAR training data (disjunctive constraints over `person` and
// `activity`), then AssessAll back to back on fixed serving batches that
// mix in-distribution and shifted tuples. It scores per tuple through
// the core layer and bypasses dataframe ingest and every stream stage.

#include <optional>

#include "common/parallel.h"
#include "common/random.h"
#include "core/tml.h"
#include "linalg/gram.h"
#include "synth/har.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ccs::Rng;
using ccs::core::ConformanceConstraint;
using ccs::dataframe::DataFrame;

constexpr size_t kBatches = 4;
constexpr size_t kFits = 21;
constexpr size_t kMinCalls = 200;
constexpr size_t kSampleRows = 64;
/// Sensors shifted in a shifted tuple (every kShiftStride-th) and by how
/// much: enough to leave the envelope, not a gross outlier.
constexpr size_t kShiftStride = 4;
constexpr double kShift = 1.5;

struct TrustSpec {
  DataFrame training;
  std::vector<DataFrame> batches;
  /// Per batch row: 1 for a shifted tuple.
  std::vector<std::vector<uint8_t>> shifted;
};

DataFrame Shift(const DataFrame& df) {
  DataFrame out;
  size_t sensor = 0;
  for (size_t c = 0; c < df.num_columns(); ++c) {
    const std::string& name = df.schema().attribute(c).name;
    const ccs::dataframe::Column& column = df.column(c);
    if (!column.is_numeric()) {
      CheckOk(out.AddColumn(name, column), "AddColumn");
      continue;
    }
    std::vector<double> values = column.numeric_data();
    if (sensor++ % kShiftStride == 0) {
      for (double& v : values) v += kShift;
    }
    CheckOk(out.AddNumericColumn(name, std::move(values)), "AddNumericColumn");
  }
  return out;
}

TrustSpec MakeTrust(uint64_t seed, bool tiny) {
  const std::vector<std::string> persons = ccs::synth::HarPersons(8);
  const std::vector<std::string> activities = ccs::synth::AllActivities();
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 37);
  TrustSpec spec;
  auto training = ccs::synth::GenerateHar(persons, activities,
                                          tiny ? 40 : 250, &rng);
  CheckOk(training.status(), "GenerateHar");
  spec.training = std::move(*training);
  const size_t per_pair = tiny ? 8 : 500;
  for (size_t b = 0; b < kBatches; ++b) {
    auto in = ccs::synth::GenerateHar(persons, activities, per_pair, &rng);
    auto out = ccs::synth::GenerateHar(persons, activities, per_pair, &rng);
    CheckOk(in.status(), "GenerateHar");
    CheckOk(out.status(), "GenerateHar");
    auto mixed = in->Concat(Shift(*out));
    CheckOk(mixed.status(), "Concat");
    const std::vector<size_t> order = rng.Permutation(mixed->num_rows());
    std::vector<uint8_t> flags(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      flags[i] = order[i] >= in->num_rows() ? 1 : 0;
    }
    spec.batches.push_back(mixed->Gather(order).Materialize());
    spec.shifted.push_back(std::move(flags));
  }
  return spec;
}

// ------------------------------------------------------------ staged

// SafetyEnvelope::Fit (no target attributes) done one public call at a
// time: the global constraint as view -> Gram walk -> synthesis from the
// Gram, then one disjunction per small-domain categorical attribute.
ConformanceConstraint StagedFit(const DataFrame& training, Tracer* tracer) {
  Tracer::Span fit(tracer, "core.envelope_fit");
  const ccs::core::SynthesisOptions options;
  const ccs::core::Synthesizer synthesizer(options);
  ccs::StatusOr<ccs::core::SimpleConstraint> global =
      ccs::Status::Internal("unset");
  {
    Tracer::Span span(tracer, "core.synthesize_simple");
    const std::vector<std::string> names = training.NumericNames();
    auto view = training.NumericViewFor(names);
    CheckOk(view.status(), "NumericViewFor");
    ccs::linalg::GramAccumulator gram(names.size());
    {
      Tracer::Span inner(tracer, "linalg.gram_accumulate");
      gram.AddView(*view);
    }
    Tracer::Span inner(tracer, "core.synthesize_from_gram");
    global = synthesizer.SynthesizeSimpleFromGram(names, gram);
  }
  CheckOk(global.status(), "SynthesizeSimpleFromGram");
  std::vector<ccs::core::DisjunctiveConstraint> disjunctions;
  for (const std::string& attribute : training.CategoricalNames()) {
    auto column = training.ColumnByName(attribute);
    CheckOk(column.status(), "ColumnByName");
    if ((*column)->DistinctValues().size() > options.max_categorical_domain) {
      continue;
    }
    Tracer::Span span(tracer, "core.synthesize_disjunctive");
    auto disjunction = synthesizer.SynthesizeDisjunctive(training, attribute);
    if (disjunction.ok()) disjunctions.push_back(std::move(*disjunction));
  }
  return ConformanceConstraint(std::move(*global), std::move(disjunctions));
}

// AssessAll's violations done one public call per constraint group, in
// ConformanceConstraint::ViolationAll's accumulation order.
ccs::linalg::Vector StagedViolations(const ConformanceConstraint& constraint,
                                     const DataFrame& batch, Tracer* tracer) {
  Tracer::Span assess(tracer, "core.assess_all");
  ccs::linalg::Vector acc(batch.num_rows());
  if (constraint.has_global()) {
    ccs::StatusOr<ccs::linalg::Vector> v = ccs::Status::Internal("unset");
    {
      Tracer::Span span(tracer, "core.violation_simple");
      v = constraint.global().ViolationAll(batch);
    }
    CheckOk(v.status(), "SimpleConstraint::ViolationAll");
    acc.Axpy(1.0, *v);
  }
  for (const auto& disjunction : constraint.disjunctions()) {
    ccs::StatusOr<ccs::linalg::Vector> v = ccs::Status::Internal("unset");
    {
      Tracer::Span span(tracer, "core.violation_disjunctive");
      v = disjunction.ViolationAll(batch);
    }
    CheckOk(v.status(), "DisjunctiveConstraint::ViolationAll");
    acc.Axpy(1.0, *v);
  }
  const double groups = static_cast<double>(constraint.num_groups());
  for (double& v : acc.data()) v /= groups;
  return acc;
}

// ----------------------------------------------------------- gates

struct Checker {
  const TrustSpec& spec;
  const ConformanceConstraint& expected_constraint;
  /// Staged violations per batch: the bitwise reference for AssessAll.
  std::vector<ccs::linalg::Vector> expected;
  /// Per batch: (row, per-row Assess violation) on a sample of rows.
  std::vector<std::vector<std::pair<size_t, double>>> per_row;
  bool plant;
  Result* result;

  void CheckFit(const ccs::core::SafetyEnvelope& envelope) {
    ++result->attempted;
    if (!ccs::core::ConstraintsBitwiseEqual(envelope.constraint(),
                                            expected_constraint)) {
      ++result->failed;
    }
  }

  // One AssessAll call: bitwise equal to the staged violations and to
  // per-row Assess on the sample, and shifted tuples flagged unsafe far
  // more often than in-distribution ones.
  void CheckBatch(size_t b, const std::vector<ccs::core::TrustAssessment>& got,
                  double threshold) {
    ++result->attempted;
    const ccs::linalg::Vector& want = expected[b];
    bool ok = got.size() == want.size();
    size_t flagged[2] = {0, 0};
    size_t total[2] = {0, 0};
    for (size_t i = 0; ok && i < got.size(); ++i) {
      double v = got[i].violation;
      if (plant) {
        v = FlipLowBit(v);
        plant = false;
      }
      ok = SameBits(v, want[i]) && got[i].unsafe == (v > threshold);
      ++total[spec.shifted[b][i]];
      flagged[spec.shifted[b][i]] += got[i].unsafe ? 1 : 0;
    }
    for (size_t k = 0; ok && k < per_row[b].size(); ++k) {
      ok = SameBits(got[per_row[b][k].first].violation, per_row[b][k].second);
    }
    if (ok) {
      auto rate = [&](int k) {
        return static_cast<double>(flagged[k]) /
               static_cast<double>(std::max<size_t>(total[k], 1));
      };
      const double in_rate = rate(0);
      const double out_rate = rate(1);
      ok = out_rate >= 0.5 && out_rate >= 5.0 * in_rate;
    }
    if (!ok) ++result->failed;
  }
};

ccs::core::SafetyEnvelope Fit(const TrustSpec& spec) {
  auto envelope = ccs::core::SafetyEnvelope::Fit(spec.training, {});
  CheckOk(envelope.status(), "SafetyEnvelope::Fit");
  return std::move(*envelope);
}

std::vector<ccs::core::TrustAssessment> Assess(
    const ccs::core::SafetyEnvelope& envelope, const DataFrame& batch) {
  auto out = envelope.AssessAll(batch);
  CheckOk(out.status(), "AssessAll");
  return std::move(*out);
}

void RunEndToEnd(const TrustSpec& spec, const ccs::core::SafetyEnvelope& warm,
                 Checker* checker, double seconds, Result* result) {
  for (const DataFrame& batch : spec.batches) Assess(warm, batch);  // Warm-up.
  ResetPeakRss();
  std::vector<double> setup_s;
  std::optional<ccs::core::SafetyEnvelope> envelope;
  std::vector<double> latency_ms;
  double rows = 0.0;
  double assess_s = 0.0;
  const uint64_t start = NowNs();
  for (size_t call = 0; call < kMinCalls || setup_s.size() < kFits ||
                        Seconds(start, NowNs()) < seconds;
       ++call) {
    // One Fit at the start of each of kFits equal slices of the run, so
    // setup_s samples the same stretch of machine time as the calls.
    if (setup_s.size() < kFits &&
        Seconds(start, NowNs()) >=
            seconds * static_cast<double>(setup_s.size()) / kFits) {
      const uint64_t t0 = NowNs();
      envelope.emplace(Fit(spec));
      setup_s.push_back(Seconds(t0, NowNs()));
      checker->CheckFit(*envelope);
    }
    const size_t b = call % spec.batches.size();
    const uint64_t t0 = NowNs();
    std::vector<ccs::core::TrustAssessment> out =
        Assess(*envelope, spec.batches[b]);
    const double s = Seconds(t0, NowNs());
    latency_ms.push_back(s * 1e3);
    rows += static_cast<double>(out.size());
    assess_s += s;
    checker->CheckBatch(b, out, envelope->unsafe_threshold());
  }
  const double mem_mb = PeakRssMb();
  result->Add("rows_per_s", rows / assess_s, "rows/s");
  result->Add("latency_p50_ms", Percentile(latency_ms, 50.0), "ms");
  result->Add("latency_p95_ms", Percentile(latency_ms, 95.0), "ms");
  result->Add("setup_s", Median(setup_s), "s");
  result->Add("mem_peak_mb", mem_mb, "MB");
}

void RunTraced(const TrustSpec& spec, const ccs::core::SafetyEnvelope& warm,
               Checker* checker, double seconds, Result* result) {
  for (const DataFrame& batch : spec.batches) Assess(warm, batch);  // Warm-up.
  Samples samples;
  size_t batch_rows = 0;
  for (const DataFrame& batch : spec.batches) batch_rows += batch.num_rows();

  // Phase 1: the staged serial run under benchmark-owned spans.
  uint64_t start = NowNs();
  for (size_t pass = 0; pass < 2 || Seconds(start, NowNs()) < 0.4 * seconds;
       ++pass) {
    Tracer tracer;
    const uint64_t t0 = NowNs();
    ConformanceConstraint constraint = StagedFit(spec.training, &tracer);
    std::vector<ccs::linalg::Vector> violations;
    for (const DataFrame& batch : spec.batches) {
      violations.push_back(StagedViolations(constraint, batch, &tracer));
    }
    const double wall_ms = Seconds(t0, NowNs()) * 1e3;
    ++checker->result->attempted;
    bool same = ccs::core::ConstraintsBitwiseEqual(
        constraint, checker->expected_constraint);
    for (size_t b = 0; same && b < violations.size(); ++b) {
      for (size_t i = 0; same && i < violations[b].size(); ++i) {
        same = SameBits(violations[b][i], checker->expected[b][i]);
      }
    }
    if (!same) ++checker->result->failed;
    for (const char* span :
         {"core.envelope_fit", "core.synthesize_simple",
          "core.synthesize_disjunctive", "linalg.gram_accumulate",
          "core.synthesize_from_gram", "core.assess_all",
          "core.violation_simple", "core.violation_disjunctive"}) {
      samples.Add(std::string(span) + ".self_ms", tracer.SelfMs(span));
    }
    samples.Add("linalg.gram_accumulate.rows_per_s",
                static_cast<double>(spec.training.num_rows()) /
                    (tracer.SelfMs("linalg.gram_accumulate") * 1e-3));
    samples.Add("staged.wall_ms", wall_ms);
    samples.Add("staged.unaccounted_share",
                1.0 - tracer.AccountedMs() / wall_ms);
  }

  // Phase 2: the product path, Fit then AssessAll on every batch.
  start = NowNs();
  for (size_t pass = 0; pass < 2 || Seconds(start, NowNs()) < 0.15 * seconds;
       ++pass) {
    const double cpu0 = ProcessCpuSeconds();
    const uint64_t t0 = NowNs();
    ccs::core::SafetyEnvelope envelope = Fit(spec);
    std::vector<std::vector<ccs::core::TrustAssessment>> outs;
    for (const DataFrame& batch : spec.batches) {
      outs.push_back(Assess(envelope, batch));
    }
    const double wall_s = Seconds(t0, NowNs());
    samples.Add("common.cpu_util", (ProcessCpuSeconds() - cpu0) / wall_s);
    samples.Add("pipeline.wall_ms", wall_s * 1e3);
    checker->CheckFit(envelope);
    for (size_t b = 0; b < outs.size(); ++b) {
      checker->CheckBatch(b, outs[b], envelope.unsafe_threshold());
    }
  }

  // Phase 3: the obs::ObsSession overhead.
  const double overhead_pct = SessionOverheadPct(0.45 * seconds, [&] {
    const uint64_t t0 = NowNs();
    std::vector<std::vector<ccs::core::TrustAssessment>> outs;
    for (const DataFrame& batch : spec.batches) {
      outs.push_back(Assess(warm, batch));
    }
    const double rows_per_s =
        static_cast<double>(batch_rows) / Seconds(t0, NowNs());
    for (size_t b = 0; b < outs.size(); ++b) {
      checker->CheckBatch(b, outs[b], warm.unsafe_threshold());
    }
    return rows_per_s;
  });

  std::map<std::string, double> layers = samples.Medians();
  layers["pipeline.overlap_speedup"] =
      samples.MedianOf("staged.wall_ms") / samples.MedianOf("pipeline.wall_ms");
  layers["obs.session_overhead_pct"] = overhead_pct;
  AddLayerMetrics(layers, result);
}

}  // namespace

Result RunTrustWorkload(const RunOptions& options) {
  const TrustSpec spec = MakeTrust(options.seed, options.tiny);
  ccs::common::SetDefaultThreadCount(kLanes);
  Result result;
  // References, untimed: the staged run's constraint and violations,
  // and per-row Assess on a sample of each batch.
  const ConformanceConstraint constraint = StagedFit(spec.training, nullptr);
  const ccs::core::SafetyEnvelope envelope = Fit(spec);
  Checker checker{spec, constraint, {}, {}, options.plant_mismatch, &result};
  for (const DataFrame& batch : spec.batches) {
    checker.expected.push_back(StagedViolations(constraint, batch, nullptr));
    std::vector<std::pair<size_t, double>> sample;
    for (size_t k = 0; k < kSampleRows; ++k) {
      const size_t row = k * batch.num_rows() / kSampleRows;
      auto assessed = envelope.Assess(batch, row);
      CheckOk(assessed.status(), "Assess");
      sample.emplace_back(row, assessed->violation);
    }
    checker.per_row.push_back(std::move(sample));
  }
  if (options.trace) {
    RunTraced(spec, envelope, &checker, options.seconds, &result);
  } else {
    RunEndToEnd(spec, envelope, &checker, options.seconds, &result);
  }
  return result;
}

}  // namespace perfbench
