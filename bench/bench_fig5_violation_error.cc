// Reproduces Fig. 5: tuple-level relationship between conformance
// violation and absolute regression error on 1000 sampled Mixed tuples,
// ordered by decreasing violation.
//
// Paper shape: high-violation tuples (left) all have high error (no false
// positives); a few low-violation tuples still err (few false negatives);
// overall positive correlation. We print a bucketed summary of the sorted
// series plus the Pearson correlation.

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "bench/bench_util.h"
#include "common/random.h"
#include "core/tml.h"
#include "ml/linear_regression.h"
#include "ml/metrics.h"
#include "stats/correlation.h"
#include "synth/airlines.h"

namespace {

using namespace ccs;  // NOLINT

void Run() {
  bench::Banner(
      "Fig. 5 — Per-tuple violation vs absolute prediction error\n"
      "(1000 Mixed tuples, sorted by decreasing violation)");

  Rng rng(7);
  auto benchmark = synth::MakeAirlinesBenchmark(20000, 2000, &rng);
  bench::CheckOk(benchmark.status());
  auto envelope = core::SafetyEnvelope::Fit(benchmark->train, {"delay"});
  bench::CheckOk(envelope.status());

  std::vector<std::string> names =
      benchmark->train.DropColumns({"delay"})->NumericNames();
  ml::LinearRegressionOptions options;
  options.l2_penalty = 1.0;
  auto model = ml::LinearRegression::Fit(
      benchmark->train.NumericViewFor(names).value().ToMatrix(),
      benchmark->train.ColumnByName("delay").value()->ToVector(), options);
  bench::CheckOk(model.status());

  dataframe::DataFrame sample = benchmark->mixed.Sample(1000, &rng);
  auto assessments = envelope->AssessAll(sample);
  bench::CheckOk(assessments.status());
  auto x = sample.NumericViewFor(names);
  bench::CheckOk(x.status());
  auto truth = sample.ColumnByName("delay").value()->ToVector();
  auto errors = ml::AbsoluteErrors(truth, model->PredictAll(x->ToMatrix()));
  bench::CheckOk(errors.status());

  linalg::Vector violations(sample.num_rows());
  for (size_t i = 0; i < sample.num_rows(); ++i) {
    violations[i] = (*assessments)[i].violation;
  }

  // Sort tuples by decreasing violation (the Fig. 5 x-axis).
  std::vector<size_t> order(sample.num_rows());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return violations[a] > violations[b];
  });

  bench::Header("tuple-rank bucket",
                {"avg viol", "avg |err|", "max |err|"});
  const size_t buckets = 10;
  const size_t per_bucket = order.size() / buckets;
  for (size_t b = 0; b < buckets; ++b) {
    double v = 0.0, e = 0.0, emax = 0.0;
    for (size_t i = b * per_bucket; i < (b + 1) * per_bucket; ++i) {
      v += violations[order[i]];
      e += (*errors)[order[i]];
      emax = std::max(emax, (*errors)[order[i]]);
    }
    char label[64];
    std::snprintf(label, sizeof(label), "  %4zu - %4zu", b * per_bucket,
                  (b + 1) * per_bucket - 1);
    bench::Row(label, {v / per_bucket, e / per_bucket, emax});
  }

  auto test = stats::PearsonTest(violations, *errors);
  bench::CheckOk(test.status());
  std::printf("\nPearson corr(violation, |error|) = %.3f (p = %.2e)\n",
              test->pcc, test->p_value);
  std::printf(
      "Check: top buckets have both high violation and high error (no false"
      "\npositives); correlation strongly positive, as in the paper.\n");
}

}  // namespace

int main() {
  Run();
  return 0;
}
