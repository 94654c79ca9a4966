#include "core/mode_table_grid.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/gate_params.hpp"
#include "util/error.hpp"

namespace charlie::core {
namespace {

// Variation span used throughout: +/- 3.5 sigma with sigmas of a few percent
// -- the range sim::ProcessVariation builds grids for.
ModeTableGrid::Spec three_axis_spec() {
  ModeTableGrid::Spec spec;
  spec.vdd_scale = {0.9, 1.1, 3};
  spec.vth_shift = {-0.04, 0.04, 3};
  spec.drive_scale = {0.85, 1.15, 3};
  return spec;
}

double rel_err(double approx, double exact) {
  const double scale = std::abs(exact) > 1e-30 ? std::abs(exact) : 1e-30;
  return std::abs(approx - exact) / scale;
}

TEST(ModeTableGrid, ExactAtGridCorners) {
  const GateParams nominal = GateParams::nor2_reference();
  const ModeTableGrid grid(nominal, three_axis_spec());
  EXPECT_EQ(grid.n_corners(), 27u);

  ProcessPoint corner;
  corner.vdd_scale = 0.9;
  corner.vth_shift = 0.04;
  corner.drive_scale = 1.15;
  const auto blended = grid.interpolate(corner);
  GateModeTables exact(nominal);
  exact.rederive_at(nominal, corner);
  for (GateState s = 0; s < exact.n_states(); ++s) {
    const ModeTable& a = blended->state_table(s);
    const ModeTable& b = exact.state_table(s);
    // At a corner the stencil collapses to one point: bit-exact.
    EXPECT_EQ(a.d, b.d);
    EXPECT_EQ(a.l1, b.l1);
    EXPECT_EQ(a.l2, b.l2);
    EXPECT_EQ(a.p1c, b.p1c);
    EXPECT_EQ(a.p1d, b.p1d);
    EXPECT_EQ(a.steady.y, b.steady.y);
  }
  EXPECT_EQ(blended->horizon(), exact.horizon());
}

TEST(ModeTableGrid, NominalCenterIsNearExact) {
  // Odd level counts place a grid level within rounding of nominal (the
  // axis-value arithmetic keeps it from being bit-exact), so the nominal
  // sample costs only ulp-level interpolation error.
  const GateParams nominal = GateParams::nand2_reference();
  const ModeTableGrid grid(nominal, three_axis_spec());
  const auto blended = grid.interpolate(ProcessPoint::nominal());
  const GateModeTables exact(nominal);
  for (GateState s = 0; s < exact.n_states(); ++s) {
    EXPECT_LT(rel_err(blended->state_table(s).d, exact.state_table(s).d),
              1e-12);
    EXPECT_LT(rel_err(blended->state_table(s).l1, exact.state_table(s).l1),
              1e-12);
    EXPECT_LT(rel_err(blended->state_table(s).l2, exact.state_table(s).l2),
              1e-12);
  }
  EXPECT_EQ(blended->vth(), exact.vth());
}

TEST(ModeTableGrid, OffGridPointsTrackExactDerivation) {
  // Multilinear error over these spans stays well under a percent on every
  // expansion field (the crossing-level bound lives in
  // tests/integration/test_process_rk45.cpp and docs/statistical_timing.md).
  for (const GateParams& nominal :
       {GateParams::nor2_reference(), GateParams::nand2_reference(),
        GateParams::nor3_reference(), GateParams::nand3_reference()}) {
    const ModeTableGrid grid(nominal, three_axis_spec());
    ProcessPoint p;
    p.vdd_scale = 1.037;
    p.vth_shift = -0.013;
    p.drive_scale = 0.96;
    const auto blended = grid.interpolate(p);
    GateModeTables exact(nominal);
    exact.rederive_at(nominal, p);
    for (GateState s = 0; s < exact.n_states(); ++s) {
      const ModeTable& a = blended->state_table(s);
      const ModeTable& b = exact.state_table(s);
      ASSERT_TRUE(b.scalar_valid);
      ASSERT_TRUE(a.scalar_valid);
      EXPECT_LT(rel_err(a.d, b.d), 1e-2);
      if (!b.fold1) {
        EXPECT_LT(rel_err(a.l1, b.l1), 1e-2);
      }
      EXPECT_LT(rel_err(a.l2, b.l2), 1e-2);
      EXPECT_LT(rel_err(a.steady.y, b.steady.y), 1e-2);
      EXPECT_EQ(a.fold1, b.fold1);
      EXPECT_EQ(a.fold2, b.fold2);
    }
    // The horizon blends 1/lambda (convex), so its multilinear error is the
    // largest of the set -- still a search window, not a model quantity.
    EXPECT_LT(rel_err(blended->horizon(), exact.horizon()), 2.5e-2);
    // vth and params are exact, not interpolated.
    EXPECT_EQ(blended->vth(), exact.vth());
    EXPECT_EQ(blended->delta_min(), exact.delta_min());
  }
}

TEST(ModeTableGrid, InterpolateIntoIsAllocationFreeRebind) {
  // The per-sample path: one worker-local table set, rebound repeatedly.
  const GateParams nominal = GateParams::nor2_reference();
  const ModeTableGrid grid(nominal, three_axis_spec());
  GateModeTables local(nominal);
  ProcessPoint a;
  a.vdd_scale = 0.95;
  ProcessPoint b;
  b.vdd_scale = 1.05;
  grid.interpolate_into(a, local);
  const double d_a = local.state_table(0).d;
  grid.interpolate_into(b, local);
  const double d_b = local.state_table(0).d;
  EXPECT_NE(d_a, d_b);
  // Rebinding back reproduces the first sample bit-exactly.
  grid.interpolate_into(a, local);
  EXPECT_EQ(local.state_table(0).d, d_a);
}

TEST(ModeTableGrid, PinnedAxisRejectsOffPinQueries) {
  ModeTableGrid::Spec spec;  // all axes pinned at nominal
  const ModeTableGrid grid(GateParams::nor2_reference(), spec);
  EXPECT_EQ(grid.n_corners(), 1u);
  ProcessPoint p;
  p.vdd_scale = 1.01;
  EXPECT_THROW(grid.interpolate(p), ConfigError);
  // The pinned coordinate itself is served exactly.
  const auto at_nominal = grid.interpolate(ProcessPoint::nominal());
  const GateModeTables exact(GateParams::nor2_reference());
  EXPECT_EQ(at_nominal->state_table(1).d, exact.state_table(1).d);
}

TEST(ModeTableGrid, RejectsMalformedSpecs) {
  const GateParams nominal = GateParams::nor2_reference();
  ModeTableGrid::Spec spec;
  spec.vdd_scale = {1.1, 0.9, 3};  // hi < lo
  EXPECT_THROW(ModeTableGrid(nominal, spec), ConfigError);
  spec = ModeTableGrid::Spec{};
  spec.vth_shift = {0.0, 0.1, 1};  // pinned but lo != hi
  EXPECT_THROW(ModeTableGrid(nominal, spec), ConfigError);
  spec = ModeTableGrid::Spec{};
  spec.drive_scale = {0.9, 1.1, 0};  // zero levels
  EXPECT_THROW(ModeTableGrid(nominal, spec), ConfigError);
}

TEST(ModeTableGrid, RejectsCornersOutsideValidity) {
  ModeTableGrid::Spec spec;
  spec.vth_shift = {-0.6, 0.6, 3};  // hi corner closes the overdrive
  EXPECT_THROW(ModeTableGrid(GateParams::nor2_reference(), spec), ConfigError);
}

TEST(ModeTableGrid, ArityMismatchThrows) {
  const ModeTableGrid grid(GateParams::nor2_reference(), three_axis_spec());
  GateModeTables three(GateParams::nor3_reference());
  EXPECT_THROW(grid.interpolate_into(ProcessPoint::nominal(), three),
               ConfigError);
}

}  // namespace
}  // namespace charlie::core
