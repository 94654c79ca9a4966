#include "support/rk45.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"

namespace charlie::ode {
namespace {

TEST(Rk45, ExponentialDecay) {
  const OdeRhs f = [](double, std::span<const double> x,
                      std::span<double> dx) { dx[0] = -2.0 * x[0]; };
  const double x0[] = {1.0};
  const auto r = integrate_rk45(f, x0, 0.0, 3.0);
  EXPECT_NEAR(r.x_final[0], std::exp(-6.0), 1e-9);
  EXPECT_GT(r.n_accepted, 5);
}

TEST(Rk45, HarmonicOscillatorEnergyAndPhase) {
  // x'' = -x as a system; exact solution cos(t).
  const OdeRhs f = [](double, std::span<const double> x,
                      std::span<double> dx) {
    dx[0] = x[1];
    dx[1] = -x[0];
  };
  const double x0[] = {1.0, 0.0};
  Rk45Options opts;
  opts.rtol = 1e-10;
  opts.atol = 1e-12;
  const auto r = integrate_rk45(f, x0, 0.0, 10.0, opts);
  EXPECT_NEAR(r.x_final[0], std::cos(10.0), 1e-7);
  EXPECT_NEAR(r.x_final[1], -std::sin(10.0), 1e-7);
}

TEST(Rk45, TimeDependentRhs) {
  // x' = t  ->  x(t) = t^2/2.
  const OdeRhs f = [](double t, std::span<const double>,
                      std::span<double> dx) { dx[0] = t; };
  const double x0[] = {0.0};
  const auto r = integrate_rk45(f, x0, 0.0, 2.0);
  EXPECT_NEAR(r.x_final[0], 2.0, 1e-10);
}

TEST(Rk45, ToleranceControlsError) {
  const OdeRhs f = [](double, std::span<const double> x,
                      std::span<double> dx) { dx[0] = -x[0]; };
  const double x0[] = {1.0};
  Rk45Options loose;
  loose.rtol = 1e-4;
  loose.atol = 1e-6;
  Rk45Options tight;
  tight.rtol = 1e-12;
  tight.atol = 1e-14;
  const auto rl = integrate_rk45(f, x0, 0.0, 1.0, loose);
  const auto rt = integrate_rk45(f, x0, 0.0, 1.0, tight);
  const double exact = std::exp(-1.0);
  EXPECT_LT(std::fabs(rt.x_final[0] - exact),
            std::fabs(rl.x_final[0] - exact) + 1e-15);
  EXPECT_GT(rt.n_accepted, rl.n_accepted);
}

TEST(Rk45, RecordsTrajectoryWhenAsked) {
  const OdeRhs f = [](double, std::span<const double> x,
                      std::span<double> dx) { dx[0] = -x[0]; };
  const double x0[] = {1.0};
  Rk45Options opts;
  opts.record_trajectory = true;
  const auto r = integrate_rk45(f, x0, 0.0, 1.0, opts);
  ASSERT_GE(r.t.size(), 2u);
  EXPECT_DOUBLE_EQ(r.t.front(), 0.0);
  EXPECT_DOUBLE_EQ(r.t.back(), 1.0);
  EXPECT_EQ(r.t.size(), r.x.size());
  // Recorded points must be monotone in time.
  for (std::size_t i = 1; i < r.t.size(); ++i) EXPECT_GT(r.t[i], r.t[i - 1]);
}

TEST(Rk45, RejectsBadInterval) {
  const OdeRhs f = [](double, std::span<const double>, std::span<double> dx) {
    dx[0] = 0.0;
  };
  const double x0[] = {0.0};
  EXPECT_THROW(integrate_rk45(f, x0, 1.0, 0.0), AssertionError);
}

TEST(Rk45, MaxStepsGuard) {
  const OdeRhs f = [](double, std::span<const double> x,
                      std::span<double> dx) { dx[0] = -1e9 * x[0]; };
  const double x0[] = {1.0};
  Rk45Options opts;
  opts.max_steps = 3;
  EXPECT_THROW(integrate_rk45(f, x0, 0.0, 1.0, opts), ConvergenceError);
}

TEST(Rk45, StiffLinearSystemStillAccurate) {
  // Mildly stiff 2x2: rates 1 and 1000.
  const OdeRhs f = [](double, std::span<const double> x,
                      std::span<double> dx) {
    dx[0] = -1000.0 * x[0] + 999.0 * x[1];
    dx[1] = -x[1];
  };
  const double x0[] = {2.0, 1.0};
  // Exact: x1 = e^{-t}; x0 = e^{-1000t} + e^{-t}.
  const auto r = integrate_rk45(f, x0, 0.0, 1.0);
  EXPECT_NEAR(r.x_final[1], std::exp(-1.0), 1e-8);
  EXPECT_NEAR(r.x_final[0], std::exp(-1.0), 1e-6);
}

}  // namespace
}  // namespace charlie::ode
