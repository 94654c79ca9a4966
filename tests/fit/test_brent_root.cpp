#include "fit/brent_root.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"

namespace charlie::fit {
namespace {

TEST(BrentRoot, LinearFunction) {
  EXPECT_NEAR(brent_root([](double x) { return 2.0 * x - 1.0; }, -1.0, 2.0),
              0.5, 1e-12);
}

TEST(BrentRoot, TranscendentalFunction) {
  // cos(x) = x has root ~0.7390851332151607.
  const double r =
      brent_root([](double x) { return std::cos(x) - x; }, 0.0, 1.0);
  EXPECT_NEAR(r, 0.7390851332151607, 1e-10);
}

TEST(BrentRoot, ExponentialCrossing) {
  // The shape of every delay computation in this library:
  // 0.8 e^{-t/tau} = 0.4  =>  t = tau ln 2.
  const double tau = 25e-12;
  const double r = brent_root(
      [&](double t) { return 0.8 * std::exp(-t / tau) - 0.4; }, 0.0, 1e-9);
  EXPECT_NEAR(r, tau * std::log(2.0), 1e-20);
}

TEST(BrentRoot, EndpointRoots) {
  EXPECT_DOUBLE_EQ(brent_root([](double x) { return x; }, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(brent_root([](double x) { return x - 1.0; }, 0.0, 1.0),
                   1.0);
}

TEST(BrentRoot, InvalidBracketThrows) {
  EXPECT_THROW(
      brent_root([](double x) { return x * x + 1.0; }, -1.0, 1.0),
      AssertionError);
}

TEST(BrentRoot, SteepFunction) {
  const double r = brent_root(
      [](double x) { return std::tanh(1e6 * (x - 0.3)); }, 0.0, 1.0);
  EXPECT_NEAR(r, 0.3, 1e-9);
}

// Property sweep: Brent recovers known roots of x^3 - c across magnitudes.
class CubeRoot : public ::testing::TestWithParam<double> {};

TEST_P(CubeRoot, Recovers) {
  const double c = GetParam();
  const double r = brent_root(
      [&](double x) { return x * x * x - c; }, 0.0, std::cbrt(c) * 2 + 1.0);
  EXPECT_NEAR(r, std::cbrt(c), 1e-9 * std::max(1.0, std::cbrt(c)));
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, CubeRoot,
                         ::testing::Values(1e-6, 1e-3, 1.0, 8.0, 1e3, 1e6));

}  // namespace
}  // namespace charlie::fit
