#include "ode/eigen2.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/gate_modes.hpp"
#include "core/gate_params.hpp"

namespace charlie::ode {
namespace {

// || (m - lambda I) v || should vanish for an eigenpair.
double residual(const Mat2& m, double lambda, const Vec2& v) {
  const Vec2 r = m * v - lambda * v;
  return r.norm();
}

TEST(Eigen2, DiagonalMatrix) {
  const Mat2 m{-1.0, 0.0, 0.0, -3.0};
  const Eigen2 e = eigen_decompose(m);
  EXPECT_EQ(e.kind, EigenKind::kRealDistinct);
  EXPECT_DOUBLE_EQ(e.lambda1, -3.0);
  EXPECT_DOUBLE_EQ(e.lambda2, -1.0);
  EXPECT_LT(residual(m, e.lambda1, e.v1), 1e-12);
  EXPECT_LT(residual(m, e.lambda2, e.v2), 1e-12);
}

TEST(Eigen2, SymmetricMatrix) {
  const Mat2 m{2.0, 1.0, 1.0, 2.0};
  const Eigen2 e = eigen_decompose(m);
  EXPECT_EQ(e.kind, EigenKind::kRealDistinct);
  EXPECT_DOUBLE_EQ(e.lambda1, 1.0);
  EXPECT_DOUBLE_EQ(e.lambda2, 3.0);
  EXPECT_LT(residual(m, e.lambda1, e.v1), 1e-12);
  EXPECT_LT(residual(m, e.lambda2, e.v2), 1e-12);
}

TEST(Eigen2, ScaledIdentityIsRepeatedDiagonalizable) {
  const Mat2 m{-2.0, 0.0, 0.0, -2.0};
  const Eigen2 e = eigen_decompose(m);
  EXPECT_EQ(e.kind, EigenKind::kRealRepeated);
  EXPECT_DOUBLE_EQ(e.lambda1, -2.0);
}

TEST(Eigen2, JordanBlockIsDefective) {
  const Mat2 m{-1.0, 1.0, 0.0, -1.0};
  const Eigen2 e = eigen_decompose(m);
  EXPECT_EQ(e.kind, EigenKind::kRealDefective);
  EXPECT_DOUBLE_EQ(e.lambda1, -1.0);
  EXPECT_LT(residual(m, e.lambda1, e.v1), 1e-12);
}

TEST(Eigen2, RotationMatrixIsComplexPair) {
  const Mat2 m{0.0, -1.0, 1.0, 0.0};
  const Eigen2 e = eigen_decompose(m);
  EXPECT_EQ(e.kind, EigenKind::kComplexPair);
  EXPECT_DOUBLE_EQ(e.re, 0.0);
  EXPECT_DOUBLE_EQ(e.im, 1.0);
  EXPECT_FALSE(e.is_real());
}

TEST(Eigen2, VietaRelationsHold) {
  const Mat2 m{-4.0, 2.0, 1.0, -7.0};
  const Eigen2 e = eigen_decompose(m);
  ASSERT_EQ(e.kind, EigenKind::kRealDistinct);
  EXPECT_NEAR(e.lambda1 + e.lambda2, m.trace(), 1e-12);
  EXPECT_NEAR(e.lambda1 * e.lambda2, m.det(), 1e-12);
}

TEST(Eigen2, IsHurwitz) {
  EXPECT_TRUE(is_hurwitz(eigen_decompose(Mat2{-1.0, 0.0, 0.0, -2.0})));
  EXPECT_FALSE(is_hurwitz(eigen_decompose(Mat2{1.0, 0.0, 0.0, -2.0})));
  EXPECT_TRUE(is_hurwitz(eigen_decompose(Mat2{-1.0, -1.0, 1.0, -1.0})));
  EXPECT_FALSE(is_hurwitz(eigen_decompose(Mat2{0.0, -1.0, 1.0, 0.0})));
}

TEST(Eigen2, StiffSpectrumStaysAccurate) {
  // Eigenvalue magnitudes spread over 6 decades (as produced by extreme
  // parametrizations of the NOR model).
  const Mat2 m{-1e12, 1e12, 1e6, -2e6};
  const Eigen2 e = eigen_decompose(m);
  ASSERT_EQ(e.kind, EigenKind::kRealDistinct);
  EXPECT_NEAR((e.lambda1 + e.lambda2) / m.trace(), 1.0, 1e-12);
  EXPECT_NEAR(e.lambda1 * e.lambda2 / m.det(), 1.0, 1e-9);
}

// Every mode matrix of the NOR model must have real, non-positive
// eigenvalues (passive RC network) -- the property the paper's closed-form
// solutions rest on.
class ModeSpectraReal : public ::testing::TestWithParam<core::GateState> {};

TEST_P(ModeSpectraReal, RealStableSpectrum) {
  const auto params = core::GateParams::nor2_reference();
  const AffineOde2 sys = core::gate_mode_ode(params, GetParam());
  const Eigen2& e = sys.eigen();
  EXPECT_TRUE(e.is_real());
  EXPECT_LE(e.lambda1, 1e-6);
  EXPECT_LE(e.lambda2, 1e-6);
}

// Named S<A><B> after the paper's modes (A is bit 0 of the state).
INSTANTIATE_TEST_SUITE_P(AllModes, ModeSpectraReal,
                         ::testing::Range(core::GateState{0},
                                          core::GateState{4}),
                         [](const auto& info) {
                           return "S" + std::to_string(info.param & 1u) +
                                  std::to_string(info.param >> 1);
                         });

}  // namespace
}  // namespace charlie::ode
