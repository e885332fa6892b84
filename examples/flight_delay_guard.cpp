// Trusted machine learning (paper §5 / §6.1): guard a flight-delay
// regressor with a conformance-constraint safety envelope.
//
// The model is trained on daytime flights only. The guard — which never
// sees the model or the delay labels — flags overnight serving flights as
// unsafe BEFORE the model mispredicts on them.
//
// Run: ./build/examples/flight_delay_guard

#include <cstdio>

#include "common/random.h"
#include "core/tml.h"
#include "ml/linear_regression.h"
#include "ml/metrics.h"
#include "synth/airlines.h"

using namespace ccs;  // NOLINT

int main() {
  Rng rng(99);
  auto bench = synth::MakeAirlinesBenchmark(/*train_rows=*/10000,
                                            /*serving_rows=*/2000, &rng);
  if (!bench.ok()) {
    std::fprintf(stderr, "%s\n", bench.status().ToString().c_str());
    return 1;
  }

  // 1. Fit the safety envelope on training COVARIATES (delay excluded).
  auto envelope = core::SafetyEnvelope::Fit(bench->train, {"delay"},
                                            /*unsafe_threshold=*/0.05);
  if (!envelope.ok()) {
    std::fprintf(stderr, "%s\n", envelope.status().ToString().c_str());
    return 1;
  }

  // 2. Train the delay model (any model; the guard does not know it).
  std::vector<std::string> names =
      bench->train.DropColumns({"delay"})->NumericNames();
  ml::LinearRegressionOptions options;
  options.l2_penalty = 1.0;
  auto model = ml::LinearRegression::Fit(
      bench->train.NumericViewFor(names).value().ToMatrix(),
      bench->train.ColumnByName("delay").value()->ToVector(), options);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }

  // 3. Serve mixed traffic; route each tuple through the guard first.
  const dataframe::DataFrame& serving = bench->mixed;
  auto verdicts = envelope->AssessAll(serving).value();
  auto x = serving.NumericViewFor(names).value().ToMatrix();
  auto truth = serving.ColumnByName("delay").value()->ToVector();
  auto predictions = model->PredictAll(x);

  double safe_error = 0.0, unsafe_error = 0.0;
  size_t safe_count = 0, unsafe_count = 0;
  for (size_t i = 0; i < serving.num_rows(); ++i) {
    double error = std::abs(truth[i] - predictions[i]);
    if (verdicts[i].unsafe) {
      unsafe_error += error;
      ++unsafe_count;
    } else {
      safe_error += error;
      ++safe_count;
    }
  }

  std::printf("Serving %zu flights through the safety envelope:\n",
              serving.num_rows());
  std::printf("  accepted as safe : %5zu tuples, model MAE = %7.2f\n",
              safe_count, safe_error / safe_count);
  std::printf("  flagged unsafe   : %5zu tuples, model MAE = %7.2f\n",
              unsafe_count, unsafe_error / unsafe_count);
  std::printf(
      "\nThe guard never saw the model or any delay label, yet the flagged"
      "\ntuples are exactly where the model fails — route those to a human"
      "\nor a fallback policy.\n");

  // 4. Show a couple of individual verdicts.
  for (size_t i = 0; i < 5; ++i) {
    std::printf("tuple %zu: trust=%.3f violation=%.3f -> %s\n", i,
                verdicts[i].trust, verdicts[i].violation,
                verdicts[i].unsafe ? "REJECT (unsafe)" : "accept");
  }
  return 0;
}
