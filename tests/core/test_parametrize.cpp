#include "core/parametrize.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "util/error.hpp"

namespace charlie::core {
namespace {

// Round-trip: characteristic delays generated from known parameters must be
// recoverable (up to model degeneracy) by the fit.
TEST(Parametrize, RoundTripOnModelGeneratedTargets) {
  const NorParams truth = NorParams::paper_table1();
  const CharacteristicDelays targets = characteristic_delays_exact(truth);
  FitOptions opts;
  opts.vdd = truth.vdd;
  opts.nelder_mead_evaluations = 2000;
  const FitResult fit = fit_nor_params(targets, opts);
  // The achieved characteristic delays must match the targets closely.
  EXPECT_LT(fit.rms_error, 0.5e-12);
  EXPECT_NEAR(fit.achieved.fall_zero, targets.fall_zero, 0.5e-12);
  EXPECT_NEAR(fit.achieved.fall_minus_inf, targets.fall_minus_inf, 0.5e-12);
  EXPECT_NEAR(fit.achieved.rise_plus_inf, targets.rise_plus_inf, 1e-12);
}

TEST(Parametrize, RatioRuleRecoversPaperDeltaMin) {
  // Targets shaped like the paper's measurements (38/28 ps) must select
  // delta_min ~ 18 ps via the ratio-2 rule.
  CharacteristicDelays t;
  t.fall_minus_inf = 38e-12;
  t.fall_zero = 28e-12;
  t.fall_plus_inf = 39e-12;
  t.rise_minus_inf = 55e-12;
  t.rise_zero = 56e-12;
  t.rise_plus_inf = 53e-12;
  FitOptions opts;
  opts.nelder_mead_evaluations = 600;  // delta_min choice is closed-form
  const FitResult fit = fit_nor_params(t, opts);
  EXPECT_NEAR(fit.params.delta_min, 18e-12, 0.2e-12);
}

TEST(Parametrize, ForcedDeltaMinHonored) {
  CharacteristicDelays t;
  t.fall_minus_inf = 44e-12;
  t.fall_zero = 29e-12;
  t.fall_plus_inf = 48e-12;
  t.rise_minus_inf = 52e-12;
  t.rise_zero = 57e-12;
  t.rise_plus_inf = 50e-12;
  FitOptions opts;
  opts.forced_delta_min = 0.0;
  opts.nelder_mead_evaluations = 600;
  const FitResult fit = fit_nor_params(t, opts);
  EXPECT_DOUBLE_EQ(fit.params.delta_min, 0.0);
  // Without the pure delay the ratio cannot be matched: worse fit than
  // with the ratio rule.
  FitOptions with;
  with.nelder_mead_evaluations = 600;
  const FitResult fit2 = fit_nor_params(t, with);
  EXPECT_GT(fit.rms_error, fit2.rms_error);
}

TEST(Parametrize, FittedParametersStayPhysical) {
  CharacteristicDelays t;
  t.fall_minus_inf = 44.6e-12;
  t.fall_zero = 28.6e-12;
  t.fall_plus_inf = 48.3e-12;
  t.rise_minus_inf = 52.1e-12;
  t.rise_zero = 56.8e-12;
  t.rise_plus_inf = 50.0e-12;
  FitOptions opts;
  opts.nelder_mead_evaluations = 1200;
  const FitResult fit = fit_nor_params(t, opts);
  for (double r : {fit.params.r1, fit.params.r2, fit.params.r3,
                   fit.params.r4}) {
    EXPECT_GT(r, 500.0);
    EXPECT_LT(r, 1e6);
  }
  EXPECT_GT(fit.params.cn, 1e-18);
  EXPECT_LT(fit.params.cn, 1e-14);
  EXPECT_GT(fit.params.co, 1e-17);
  EXPECT_LT(fit.params.co, 1e-13);
  EXPECT_NO_THROW(fit.params.validate());
}

TEST(Parametrize, SeedSatisfiesClosedFormRelations) {
  CharacteristicDelays t;
  t.fall_minus_inf = 20e-12;
  t.fall_zero = 10e-12;
  t.fall_plus_inf = 21e-12;
  t.rise_minus_inf = 37e-12;
  t.rise_zero = 37e-12;
  t.rise_plus_inf = 35e-12;
  const NorParams seed = seed_from_targets(t, 0.8);
  constexpr double kLn2 = 0.6931471805599453;
  EXPECT_NEAR(kLn2 * seed.co * seed.r4, t.fall_minus_inf, 1e-15);
  const double rp = seed.r3 * seed.r4 / (seed.r3 + seed.r4);
  EXPECT_NEAR(kLn2 * seed.co * rp, t.fall_zero, 1e-15);
}

TEST(Parametrize, RejectsInvalidTargets) {
  CharacteristicDelays bad;
  bad.fall_minus_inf = 20e-12;
  bad.fall_zero = 25e-12;  // no speed-up: not a Charlie-effect gate
  bad.fall_plus_inf = 21e-12;
  bad.rise_minus_inf = 30e-12;
  bad.rise_zero = 31e-12;
  bad.rise_plus_inf = 29e-12;
  EXPECT_THROW(fit_nor_params(bad), ConfigError);
  bad.fall_zero = -1e-12;
  EXPECT_THROW(fit_nor_params(bad), ConfigError);
}

TEST(Parametrize, ReportsDiagnostics) {
  CharacteristicDelays t;
  t.fall_minus_inf = 40e-12;
  t.fall_zero = 25e-12;
  t.fall_plus_inf = 42e-12;
  t.rise_minus_inf = 50e-12;
  t.rise_zero = 53e-12;
  t.rise_plus_inf = 48e-12;
  FitOptions opts;
  opts.nelder_mead_evaluations = 400;
  const FitResult fit = fit_nor_params(t, opts);
  EXPECT_GT(fit.evaluations, 0);
  EXPECT_GE(fit.objective, 0.0);
  EXPECT_DOUBLE_EQ(fit.targets.fall_zero, t.fall_zero);
}

// Pins: every value the fit reports, compared bit for bit against the
// values it produced before the NOR2 and N-input fits were merged into one
// pipeline, on the paper's Fig 2 targets (38/28/39 and 55.4/56.5/53 ps).
CharacteristicDelays paper_fig2_targets() {
  CharacteristicDelays t;
  t.fall_minus_inf = 38e-12;
  t.fall_zero = 28e-12;
  t.fall_plus_inf = 39e-12;
  t.rise_minus_inf = 55.4e-12;
  t.rise_zero = 56.5e-12;
  t.rise_plus_inf = 53e-12;
  return t;
}

void expect_delays_eq(const CharacteristicDelays& d,
                      const std::array<double, 6>& want) {
  EXPECT_EQ(d.fall_minus_inf, want[0]);
  EXPECT_EQ(d.fall_zero, want[1]);
  EXPECT_EQ(d.fall_plus_inf, want[2]);
  EXPECT_EQ(d.rise_minus_inf, want[3]);
  EXPECT_EQ(d.rise_zero, want[4]);
  EXPECT_EQ(d.rise_plus_inf, want[5]);
}

// want: r1, r2, r3, r4, cn, co, vdd, delta_min.
void expect_params_eq(const NorParams& p, const std::array<double, 8>& want) {
  EXPECT_EQ(p.r1, want[0]);
  EXPECT_EQ(p.r2, want[1]);
  EXPECT_EQ(p.r3, want[2]);
  EXPECT_EQ(p.r4, want[3]);
  EXPECT_EQ(p.cn, want[4]);
  EXPECT_EQ(p.co, want[5]);
  EXPECT_EQ(p.vdd, want[6]);
  EXPECT_EQ(p.delta_min, want[7]);
}

TEST(Parametrize, PinnedRatioRuleFitOnPaperTargets) {
  const FitResult fit = fit_nor_params(paper_fig2_targets());
  expect_params_eq(fit.params,
                   {239546.85770280327, 3.8511545647704316e-07,
                    132765.18553322859, 133322.9272623923,
                    1.1834173837104477e-17, 2.165756804047558e-16,
                    0.80000000000000004, 1.8000000000000002e-11});
  expect_delays_eq(fit.achieved,
                   {3.8014280819607181e-11, 2.7986164652046108e-11,
                    3.9018690672714706e-11, 5.5924958593032954e-11,
                    5.5924958593032954e-11, 5.3014044174092465e-11});
  EXPECT_EQ(fit.rms_error, 3.1811844829138345e-13);
  EXPECT_EQ(fit.objective, 0.0004234839306775372);
  EXPECT_EQ(fit.evaluations, 2099);
  EXPECT_EQ(fit.swallowed_fallbacks, 1);
}

TEST(Parametrize, PinnedForcedZeroDeltaMinFitOnPaperTargets) {
  FitOptions opts;
  opts.forced_delta_min = 0.0;
  opts.nelder_mead_evaluations = 1500;
  const FitResult fit = fit_nor_params(paper_fig2_targets(), opts);
  expect_params_eq(fit.params,
                   {12390.261482667775, 1013.0707051605326,
                    10347.153661424807, 10078.297446881708,
                    3.5479237323442215e-156, 5.9196326837413912e-15,
                    0.80000000000000004, 0.0});
  expect_delays_eq(fit.achieved,
                   {4.1353035222087447e-11, 2.0948678607799353e-11,
                    4.2456199863363158e-11, 5.4996240398262958e-11,
                    5.4996240398262958e-11, 5.4996240398262958e-11});
  EXPECT_EQ(fit.rms_error, 3.6358993971149531e-12);
  EXPECT_EQ(fit.objective, 0.081239442942804982);
  EXPECT_EQ(fit.evaluations, 1500);
  EXPECT_EQ(fit.swallowed_fallbacks, 27);
}

}  // namespace
}  // namespace charlie::core
