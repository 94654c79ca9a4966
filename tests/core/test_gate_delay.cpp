#include "core/gate_delay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/delay_model.hpp"
#include "core/gate_parametrize.hpp"
#include "util/error.hpp"

namespace charlie::core {
namespace {

// The generalized crossing solver must agree with the NOR2 closed-form
// delay model on its own scenarios (delta_min excluded on both sides).
TEST(GateDelay, Nor2SisDelaysMatchDelayModel) {
  // NorDelayModel is a view over the gate core, so the six characteristic
  // delays agree bit for bit.
  NorParams nor = NorParams::paper_table1();
  nor.delta_min = 0.0;
  const NorDelayModel model(nor);
  const GateModeTables tables(GateParams::from_nor(nor));
  const auto delays = gate_characteristic_delays(tables);
  ASSERT_EQ(delays.fall.size(), 2u);
  ASSERT_EQ(delays.rise.size(), 2u);
  // fall[i]: input i rises alone -- the SIS "i first" falling asymptotes.
  EXPECT_EQ(delays.fall[0], model.falling_sis_a_first());
  EXPECT_EQ(delays.fall[1], model.falling_sis_b_first());
  // rise[i]: input i falls last, the other one long gone.
  EXPECT_EQ(delays.rise[0], model.rising_sis_b_first());
  EXPECT_EQ(delays.rise[1], model.rising_sis_a_first());
  // Simultaneous rising inputs: delta = 0 falling delay.
  EXPECT_EQ(delays.fall_all, model.falling_delay(0.0).delay);
  // Simultaneous falling inputs from the drained (1,1) history.
  EXPECT_EQ(delays.rise_all, model.rising_delay(0.0, 0.0).delay);
}

TEST(GateDelay, Nor2MisTrajectoryMatchesDelayModel) {
  NorParams nor = NorParams::paper_table1();
  nor.delta_min = 0.0;
  const NorDelayModel model(nor);
  const GateModeTables tables(GateParams::from_nor(nor));
  for (double delta : {10e-12, 40e-12}) {
    // A rises at 0, B at delta: the paper's falling MIS scenario.
    const GateInputEvent rise[] = {{0.0, 0, true}, {delta, 1, true}};
    EXPECT_EQ(gate_output_crossing(tables, 0u, 0.0, rise, /*rising=*/false),
              model.falling_delay(delta).delay)
        << "delta=" << delta;
    // A falls at 0, B at delta, from (1,1): the rising MIS scenario,
    // measured from the later input.
    const GateInputEvent fall[] = {{0.0, 0, false}, {delta, 1, false}};
    EXPECT_EQ(gate_output_crossing(tables, 3u, 0.0, fall, /*rising=*/true) -
                  delta,
              model.rising_delay(delta).delay)
        << "delta=" << delta;
  }
}

TEST(GateDelay, MultiInputSpeedupAndStackSlowdown) {
  for (const GateParams& p :
       {GateParams::nor3_reference(), GateParams::nand3_reference()}) {
    GateParams raw = p;
    raw.delta_min = 0.0;
    const GateModeTables tables(raw);
    const auto d = gate_characteristic_delays(tables);
    ASSERT_EQ(d.fall.size(), 3u);
    for (double v : d.fall) EXPECT_GT(v, 0.0);
    for (double v : d.rise) EXPECT_GT(v, 0.0);
    if (p.topology == GateTopology::kNorLike) {
      // Three parallel nMOS switching together beat every single one (the
      // Charlie speed-up, now 3-strong)...
      EXPECT_LT(d.fall_all,
                *std::min_element(d.fall.begin(), d.fall.end()));
      // ...while the series pull-up gives no such speed-up on rising.
      EXPECT_GT(d.rise_all, 0.5 * *std::min_element(d.rise.begin(),
                                                    d.rise.end()));
    } else {
      // Dual: the parallel pull-up speed-up shows on rising.
      EXPECT_LT(d.rise_all,
                *std::min_element(d.rise.begin(), d.rise.end()));
    }
  }
}

TEST(GateDelay, ThrowsWhenNoCrossingExists) {
  const GateModeTables tables(GateParams::nor3_reference());
  // No input ever switches: the output sits at its steady level forever.
  EXPECT_THROW(gate_output_crossing(tables, 0u, 0.0, {}, /*rising=*/false),
               ConvergenceError);
}

// Round-trip: delays generated by a known cell must be recovered by the
// fit closely enough that the refitted model reproduces them.
TEST(GateParametrize, RecoversReferenceCellDelays) {
  const GateParams truth = GateParams::nor3_reference();
  GateParams raw = truth;
  raw.delta_min = 0.0;
  const GateModeTables tables(raw);
  const auto d = gate_characteristic_delays(tables);

  GateTargets targets;
  targets.fall = d.fall;
  targets.rise = d.rise;
  targets.fall_all = d.fall_all;
  targets.rise_all = d.rise_all;
  for (double& v : targets.fall) v += truth.delta_min;
  for (double& v : targets.rise) v += truth.delta_min;
  targets.fall_all += truth.delta_min;
  targets.rise_all += truth.delta_min;

  FitOptions opts;
  opts.vdd = truth.vdd;
  opts.forced_delta_min = truth.delta_min;
  opts.nelder_mead_evaluations = 2000;
  const auto fit = fit_gate_params(GateTopology::kNorLike, targets, opts);

  EXPECT_EQ(fit.params.n_inputs(), 3);
  EXPECT_DOUBLE_EQ(fit.params.delta_min, truth.delta_min);
  // Achieved delays within 5% of every target.
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(fit.achieved.fall[i], targets.fall[i],
                0.05 * targets.fall[i]);
    EXPECT_NEAR(fit.achieved.rise[i], targets.rise[i],
                0.05 * targets.rise[i]);
  }
  EXPECT_NEAR(fit.achieved.fall_all, targets.fall_all,
              0.05 * targets.fall_all);
  EXPECT_NEAR(fit.achieved.rise_all, targets.rise_all,
              0.05 * targets.rise_all);
}

TEST(GateParametrize, RejectsBadTargets) {
  GateTargets t;
  t.fall = {30e-12, 31e-12};
  t.rise = {40e-12};
  EXPECT_THROW(fit_gate_params(GateTopology::kNorLike, t), ConfigError);
  t.rise = {40e-12, -1e-12};
  t.fall_all = 20e-12;
  t.rise_all = 40e-12;
  EXPECT_THROW(fit_gate_params(GateTopology::kNorLike, t), ConfigError);
}

// Pins: every value the fit reports, compared bit for bit against the
// values it produced before the NOR2 and N-input fits were merged into one
// pipeline.
struct GateFitPin {
  std::vector<double> r_series, r_parallel;
  double c_int, c_out, delta_min;
  std::vector<double> fall, rise;
  double fall_all, rise_all;
  double rms_error, objective;
  int evaluations, swallowed_fallbacks;
};

void expect_fit_eq(const GateFitResult& fit, const GateFitPin& want) {
  EXPECT_EQ(fit.params.r_series, want.r_series);
  EXPECT_EQ(fit.params.r_parallel, want.r_parallel);
  EXPECT_EQ(fit.params.c_int, want.c_int);
  EXPECT_EQ(fit.params.c_out, want.c_out);
  EXPECT_EQ(fit.params.vdd, 0.8);
  EXPECT_EQ(fit.params.delta_min, want.delta_min);
  EXPECT_EQ(fit.achieved.fall, want.fall);
  EXPECT_EQ(fit.achieved.rise, want.rise);
  EXPECT_EQ(fit.achieved.fall_all, want.fall_all);
  EXPECT_EQ(fit.achieved.rise_all, want.rise_all);
  EXPECT_EQ(fit.rms_error, want.rms_error);
  EXPECT_EQ(fit.objective, want.objective);
  EXPECT_EQ(fit.evaluations, want.evaluations);
  EXPECT_EQ(fit.swallowed_fallbacks, want.swallowed_fallbacks);
}

TEST(GateParametrize, PinnedNor3RatioRuleFit) {
  GateTargets t;
  t.fall = {39.7e-12, 40.6e-12, 38.9e-12};
  t.rise = {75.8e-12, 75.8e-12, 69.0e-12};
  t.fall_all = 24.7e-12;
  t.rise_all = 75.8e-12;
  FitOptions opts;
  opts.nelder_mead_evaluations = 1500;
  expect_fit_eq(
      fit_gate_params(GateTopology::kNorLike, t, opts),
      {{998.74232593782631, 99009.938005399148, 11597.566491761721},
       {44365.849147808214, 46061.513706922276, 45892.526179517801},
       5.1965744248350686e-17,
       7.0962094813533695e-16,
       1.6749999999999997e-11,
       {4.0156798819445259e-11, 4.1051961749352925e-11,
        3.9323237598271911e-11},
       {7.5406276535065447e-11, 7.5406276535065447e-11,
        7.0041288529814267e-11},
       2.4198088617770676e-11,
       7.5406276535065447e-11,
       5.4695932062746173e-13,
       0.005636923340431468,
       1501,
       0});
}

TEST(GateParametrize, PinnedNand2RatioRuleFit) {
  GateTargets t;
  t.fall = {57.6e-12, 60.6e-12};
  t.rise = {33.9e-12, 39.0e-12};
  t.fall_all = 60.6e-12;
  t.rise_all = 26.7e-12;
  FitOptions opts;
  opts.nelder_mead_evaluations = 1500;
  expect_fit_eq(
      fit_gate_params(GateTopology::kNandLike, t, opts),
      {{22018.199073600241, 290089.63036753982},
       {142301.29213199569, 173998.7001660286},
       4.9953175294402318e-18,
       2.0625214789102485e-16,
       1.4399999999999997e-11,
       {5.8589831400765789e-11, 6.0055135356528531e-11},
       {3.4743833116531263e-11, 3.9877053317121887e-11},
       6.0055135356528531e-11,
       2.5591276019177936e-11,
       8.4499180238941172e-13,
       0.012072210732335551,
       989,
       0});
}

}  // namespace
}  // namespace charlie::core
