// Behavioural tests of the MIS delay model (paper Section IV).
#include "core/delay_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"

namespace charlie::core {
namespace {

constexpr double kLn2 = 0.6931471805599453;

class DelayModelFixture : public ::testing::Test {
 protected:
  const NorParams params_ = NorParams::paper_table1();
  const NorDelayModel model_{params_};
};

TEST_F(DelayModelFixture, PaperCharacteristicValuesFalling) {
  // With Table I parameters the model must reproduce the paper's measured
  // characteristic delays: ~38 ps for fall(-inf), 28 ps for fall(0).
  EXPECT_NEAR(model_.falling_sis_b_first(), 38.86e-12, 0.1e-12);
  EXPECT_NEAR(model_.falling_delay(0.0).delay, 28.03e-12, 0.1e-12);
  // fall(-inf) = delta_min + ln2 R4 CO exactly (eq (9)).
  EXPECT_NEAR(model_.falling_sis_b_first(),
              params_.delta_min + kLn2 * params_.r4 * params_.co, 1e-15);
}

TEST_F(DelayModelFixture, PaperCharacteristicValuesRising) {
  // Fig 2d regime: 52-56 ps.
  EXPECT_NEAR(model_.rising_sis_a_first(), 52.74e-12, 0.1e-12);
  EXPECT_NEAR(model_.rising_sis_b_first(), 55.0e-12, 0.1e-12);
}

TEST_F(DelayModelFixture, FallingCharlieSpeedUp) {
  // delta = 0 is the global minimum of the falling MIS curve.
  const double d0 = model_.falling_delay(0.0).delay;
  for (double delta : {-60e-12, -30e-12, -10e-12, 10e-12, 30e-12, 60e-12}) {
    EXPECT_GT(model_.falling_delay(delta).delay, d0) << "delta=" << delta;
  }
  // Speed-up magnitude ~ -28 % (paper Fig 2b / Fig 5).
  const double speedup = d0 / model_.falling_sis_b_first() - 1.0;
  EXPECT_NEAR(speedup, -0.28, 0.03);
}

TEST_F(DelayModelFixture, FallingCurveMonotoneAwayFromZero) {
  double prev = model_.falling_delay(0.0).delay;
  for (double delta = 5e-12; delta <= 100e-12; delta += 5e-12) {
    const double d = model_.falling_delay(delta).delay;
    EXPECT_GE(d, prev - 1e-15) << "delta=" << delta;
    prev = d;
  }
  prev = model_.falling_delay(0.0).delay;
  for (double delta = -5e-12; delta >= -100e-12; delta -= 5e-12) {
    const double d = model_.falling_delay(delta).delay;
    EXPECT_GE(d, prev - 1e-15) << "delta=" << delta;
    prev = d;
  }
}

TEST_F(DelayModelFixture, FallingConvergesToSisLimits) {
  EXPECT_NEAR(model_.falling_delay(-500e-12).delay,
              model_.falling_sis_b_first(), 1e-15);
  EXPECT_NEAR(model_.falling_delay(500e-12).delay,
              model_.falling_sis_a_first(), 1e-15);
}

TEST_F(DelayModelFixture, FallingSisAsymmetryFromT2) {
  // Paper Section II: the A-first case is slower (T2 couples C_N).
  EXPECT_GT(model_.falling_sis_a_first(), model_.falling_sis_b_first());
}

TEST_F(DelayModelFixture, RisingConvergesToSisLimits) {
  EXPECT_NEAR(model_.rising_delay(-800e-12, 0.0).delay,
              model_.rising_sis_b_first(), 1e-14);
  EXPECT_NEAR(model_.rising_delay(800e-12, 0.0).delay,
              model_.rising_sis_a_first(), 1e-14);
}

TEST_F(DelayModelFixture, RisingHistoryAsymmetry) {
  // Precharged N (A first, Delta = +inf) is faster.
  EXPECT_LT(model_.rising_sis_a_first(), model_.rising_sis_b_first());
}

TEST_F(DelayModelFixture, DocumentedDeficiencyNoRisingPeakForGndHistory) {
  // Paper Section IV: for V_N(0) = GND the model FAILS to produce the MIS
  // slow-down peak around Delta = 0 -- the curve must interpolate
  // monotonically between the SIS limits instead. This guards the honest
  // reproduction of the model's known limitation.
  const double d_zero = model_.rising_delay(0.0, 0.0).delay;
  const double lo = std::min(model_.rising_sis_a_first(),
                             model_.rising_sis_b_first());
  const double hi = std::max(model_.rising_sis_a_first(),
                             model_.rising_sis_b_first());
  EXPECT_GE(d_zero, lo - 1e-15);
  EXPECT_LE(d_zero, hi + 1e-15);  // no peak above the SIS values
}

TEST_F(DelayModelFixture, RisingDeltaNegativeInsensitiveForGndHistory) {
  // With V_N = GND, mode (1,0) keeps V_N at 0, so every Delta < 0 gives the
  // same delay (the paper's flat branch in Fig 6).
  const double d1 = model_.rising_delay(-20e-12, 0.0).delay;
  const double d2 = model_.rising_delay(-60e-12, 0.0).delay;
  EXPECT_NEAR(d1, d2, 1e-15);
}

TEST_F(DelayModelFixture, RisingHistoryValueMatters) {
  // For Delta < 0 with precharged V_N, the drain through R2 is partial, so
  // delays differ from the GND history.
  const double gnd = model_.rising_delay(-30e-12, 0.0).delay;
  const double vdd = model_.rising_delay(-30e-12, params_.vdd).delay;
  EXPECT_LT(vdd, gnd);  // leftover charge on N helps the pull-up
}

TEST_F(DelayModelFixture, DeltaMinShiftsDelaysUniformly) {
  NorParams no_dmin = params_;
  no_dmin.delta_min = 0.0;
  const NorDelayModel raw(no_dmin);
  for (double delta : {-40e-12, 0.0, 40e-12}) {
    EXPECT_NEAR(model_.falling_delay(delta).delay,
                raw.falling_delay(delta).delay + params_.delta_min, 1e-15);
    EXPECT_NEAR(model_.rising_delay(delta, 0.0).delay,
                raw.rising_delay(delta, 0.0).delay + params_.delta_min,
                1e-15);
  }
}

TEST(DelayModel, RisingGlitchBeforeLaterInputIsRejected) {
  // With C_N >> C_O and a fast R2, a precharged N dumps enough charge into O
  // during (1,0) to lift V_O past V_th before the later input falls. The
  // rising delay is measured from the later input, so such a parameter set
  // has no delay to report.
  NorParams p = NorParams::paper_table1();
  p.cn = 10.0 * p.co;
  p.r2 = 1e3;
  const NorDelayModel model(p);
  EXPECT_THROW(model.rising_delay(-50e-12, p.vdd), ConvergenceError);
  // From the drained history there is no charge to share.
  EXPECT_NO_THROW(model.rising_delay(-50e-12, 0.0));
}

// Parameterized continuity sweep: the MIS delay curves are continuous in
// Delta (no jumps at the Delta = 0 seam or anywhere else).
class DelayContinuity : public ::testing::TestWithParam<double> {};

TEST_P(DelayContinuity, FallingCurveContinuousAt) {
  const NorDelayModel model(NorParams::paper_table1());
  const double delta = GetParam();
  const double h = 0.01e-12;
  const double left = model.falling_delay(delta - h).delay;
  const double right = model.falling_delay(delta + h).delay;
  EXPECT_LT(std::fabs(right - left), 0.5e-12) << "delta=" << delta;
}

TEST_P(DelayContinuity, RisingCurveContinuousAt) {
  const NorDelayModel model(NorParams::paper_table1());
  const double delta = GetParam();
  const double h = 0.01e-12;
  const double left = model.rising_delay(delta - h, 0.0).delay;
  const double right = model.rising_delay(delta + h, 0.0).delay;
  EXPECT_LT(std::fabs(right - left), 0.5e-12) << "delta=" << delta;
}

INSTANTIATE_TEST_SUITE_P(Seams, DelayContinuity,
                         ::testing::Values(-60e-12, -20e-12, -5e-12, 0.0,
                                           5e-12, 20e-12, 60e-12));

}  // namespace
}  // namespace charlie::core
