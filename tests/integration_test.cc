// End-to-end integration tests: the paper's two case studies run through
// the full pipeline (generators -> synthesis -> scoring -> models).

#include <gtest/gtest.h>

#include "baselines/wpca.h"
#include "common/random.h"
#include "core/drift.h"
#include "core/serialize.h"
#include "core/tml.h"
#include "dataframe/csv.h"
#include "ml/linear_regression.h"
#include "ml/metrics.h"
#include "stats/correlation.h"
#include "synth/airlines.h"
#include "synth/evl.h"
#include "synth/har.h"

namespace ccs {
namespace {

using core::SafetyEnvelope;
using dataframe::DataFrame;

// §6.1 / Fig. 4 in miniature: violation and regression error must move
// together across the four airline splits.
TEST(IntegrationTest, AirlinesViolationTracksRegressionError) {
  Rng rng(1);
  auto bench = synth::MakeAirlinesBenchmark(3000, 800, &rng);
  ASSERT_TRUE(bench.ok());

  auto envelope = SafetyEnvelope::Fit(bench->train, {"delay"});
  ASSERT_TRUE(envelope.ok());

  // Train the delay regressor on all numeric covariates.
  auto covariate_names = bench->train.DropColumns({"delay"})->NumericNames();
  auto x_train =
      bench->train.NumericViewFor(covariate_names).value().ToMatrix();
  auto y_train =
      bench->train.ColumnByName("delay").value()->ToVector();
  ml::LinearRegressionOptions options;
  options.l2_penalty = 1.0;
  auto model = ml::LinearRegression::Fit(x_train, y_train, options);
  ASSERT_TRUE(model.ok());

  auto evaluate = [&](const DataFrame& split) {
    auto x = split.NumericViewFor(covariate_names).value().ToMatrix();
    auto y = split.ColumnByName("delay").value()->ToVector();
    double mae = ml::MeanAbsoluteError(y, model->PredictAll(x)).value();
    double violation =
        envelope->constraint().MeanViolation(split).value();
    return std::make_pair(violation, mae);
  };

  auto [v_day, mae_day] = evaluate(bench->daytime);
  auto [v_night, mae_night] = evaluate(bench->overnight);
  auto [v_mixed, mae_mixed] = evaluate(bench->mixed);

  // The Fig. 4 shape: overnight violates and errs far more than daytime;
  // mixed sits strictly between.
  EXPECT_LT(v_day, 0.05);
  EXPECT_GT(v_night, 10.0 * v_day + 0.05);
  EXPECT_GT(mae_night, 1.5 * mae_day);
  EXPECT_GT(v_mixed, v_day);
  EXPECT_LT(v_mixed, v_night);
  EXPECT_GT(mae_mixed, mae_day);
  EXPECT_LT(mae_mixed, mae_night);
}

// Fig. 5 in miniature: per-tuple violation correlates with per-tuple
// absolute regression error on the mixed split.
TEST(IntegrationTest, TupleViolationCorrelatesWithTupleError) {
  Rng rng(2);
  auto bench = synth::MakeAirlinesBenchmark(2000, 600, &rng);
  ASSERT_TRUE(bench.ok());
  auto envelope = SafetyEnvelope::Fit(bench->train, {"delay"});
  ASSERT_TRUE(envelope.ok());

  auto covariate_names = bench->train.DropColumns({"delay"})->NumericNames();
  auto x = bench->train.NumericViewFor(covariate_names).value().ToMatrix();
  auto y = bench->train.ColumnByName("delay").value()->ToVector();
  ml::LinearRegressionOptions options;
  options.l2_penalty = 1.0;
  auto model = ml::LinearRegression::Fit(x, y, options);
  ASSERT_TRUE(model.ok());

  auto xm = bench->mixed.NumericViewFor(covariate_names).value().ToMatrix();
  auto ym = bench->mixed.ColumnByName("delay").value()->ToVector();
  auto errors = ml::AbsoluteErrors(ym, model->PredictAll(xm)).value();
  auto assessments = envelope->AssessAll(bench->mixed).value();
  linalg::Vector violations(assessments.size());
  for (size_t i = 0; i < assessments.size(); ++i) {
    violations[i] = assessments[i].violation;
  }
  auto test = stats::PearsonTest(violations, errors).value();
  EXPECT_GT(test.pcc, 0.5);
  EXPECT_LT(test.p_value, 1e-6);
}

// §6.2 HAR in miniature: mixing mobile data into a sedentary-trained
// profile raises violation monotonically with the mixing fraction.
TEST(IntegrationTest, HarViolationGrowsWithMobileFraction) {
  Rng rng(3);
  auto persons = synth::HarPersons(5);
  auto sedentary =
      synth::GenerateHar(persons, synth::SedentaryActivities(), 60, &rng);
  auto mobile =
      synth::GenerateHar(persons, synth::MobileActivities(), 60, &rng);
  ASSERT_TRUE(sedentary.ok());
  ASSERT_TRUE(mobile.ok());

  core::ConformanceDriftQuantifier quantifier;
  ASSERT_TRUE(quantifier.Fit(*sedentary).ok());

  double prev = -1.0;
  for (double fraction : {0.0, 0.3, 0.6, 0.9}) {
    size_t total = 600;
    size_t n_mobile = static_cast<size_t>(fraction * total);
    auto mix = sedentary->Sample(total - n_mobile, &rng)
                   .Concat(mobile->Sample(n_mobile, &rng))
                   .value();
    double score = quantifier.Score(mix).value();
    EXPECT_GT(score, prev - 0.01) << "fraction " << fraction;
    prev = score;
  }
  EXPECT_GT(prev, 0.3);
}

// Fig. 6(c) in miniature: a person switching activities is local drift —
// CCSynth (disjunctive) must see it more than global W-PCA.
TEST(IntegrationTest, LocalActivitySwapSeenByDisjunctionsOnly) {
  Rng rng(4);
  auto persons = synth::HarPersons(4);
  // Reference: everyone does their own activity (p_i -> activity i).
  auto all = synth::AllActivities();
  DataFrame reference;
  for (size_t i = 0; i < persons.size(); ++i) {
    auto part =
        synth::GenerateHar({persons[i]}, {all[i % all.size()]}, 150, &rng);
    ASSERT_TRUE(part.ok());
    reference = reference.num_rows() == 0 ? *part
                                          : reference.Concat(*part).value();
  }
  // Drifted: persons 1 and 4 swapped activities (lying <-> walking). The
  // global pool of activities is unchanged — each activity cluster merely
  // carries a different (small) person offset — so the drift is local.
  DataFrame drifted;
  for (size_t i = 0; i < persons.size(); ++i) {
    size_t activity_index = i;
    if (i == 0) activity_index = 3;
    if (i == 3) activity_index = 0;
    auto part = synth::GenerateHar(
        {persons[i]}, {all[activity_index % all.size()]}, 150, &rng);
    ASSERT_TRUE(part.ok());
    drifted = drifted.num_rows() == 0 ? *part : drifted.Concat(*part).value();
  }

  baselines::ConformanceDetector cc;
  baselines::WeightedPca wpca;
  ASSERT_TRUE(cc.Fit(reference).ok());
  ASSERT_TRUE(wpca.Fit(reference).ok());

  double cc_gain = cc.Score(drifted).value() - cc.Score(reference).value();
  double wpca_gain =
      wpca.Score(drifted).value() - wpca.Score(reference).value();
  EXPECT_GT(cc_gain, wpca_gain + 0.05)
      << "disjunctive constraints must out-detect global W-PCA on local "
         "drift";
}

// Constraints survive a round trip to disk (CSV for data, text for the
// constraint) and keep scoring identically.
TEST(IntegrationTest, EndToEndPersistenceRoundTrip) {
  Rng rng(5);
  auto flights = synth::GenerateFlights(synth::FlightKind::kDaytime, 400,
                                        &rng);
  std::string csv_path = ::testing::TempDir() + "/flights.csv";
  ASSERT_TRUE(dataframe::WriteCsvFile(flights, csv_path).ok());
  auto loaded = dataframe::ReadCsvFile(csv_path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), flights.num_rows());

  core::Synthesizer synth;
  auto phi = synth.Synthesize(*loaded);
  ASSERT_TRUE(phi.ok());
  auto back = core::Deserialize(core::Serialize(*phi));
  ASSERT_TRUE(back.ok());

  auto probe = synth::GenerateFlights(synth::FlightKind::kOvernight, 50,
                                      &rng);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(phi->Violation(probe, i).value(),
                     back->Violation(probe, i).value());
  }
  std::remove(csv_path.c_str());
}

// EVL smoke: the conformance drift series starts near zero and ends
// higher for a monotone-translation dataset.
TEST(IntegrationTest, EvlTranslationDriftSeriesIsIncreasing) {
  Rng rng(6);
  auto stream = synth::GenerateEvlStream("2CDT", 8, 400, &rng);
  ASSERT_TRUE(stream.ok());
  auto series = core::DriftSeries(*stream);
  ASSERT_TRUE(series.ok());
  EXPECT_LT((*series)[0], 0.05);
  EXPECT_GT(series->back(), (*series)[0] + 0.2);
  // Roughly monotone: each step at least doesn't crash back to zero.
  for (size_t i = 2; i < series->size(); ++i) {
    EXPECT_GT((*series)[i], (*series)[0]);
  }
}

}  // namespace
}  // namespace ccs
