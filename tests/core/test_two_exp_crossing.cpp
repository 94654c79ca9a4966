// core's one crossing search (core/two_exp_crossing.hpp) against an
// independent opinion: a dense sign-change scan of the mode's output,
// evaluated through the generic matrix exponential of the mode ODE (not
// the scalar expansion the search iterates). Covers the direction filter
// (mode_table_crossing) and the engine's first-crossing search
// (ModeSegment::next_crossing) on every mode of the reference cells and
// the reference wire, from random entry states over random windows.
#include "core/two_exp_crossing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/gate_delay.hpp"
#include "core/gate_mode_tables.hpp"
#include "util/diagnostics.hpp"
#include "util/rng.hpp"
#include "wire/wire_params.hpp"
#include "wire/wire_tables.hpp"

namespace charlie::core {
namespace {

struct ModeCase {
  std::string name;
  const ModeTable* mt;
  double vth;
  double horizon;
};

// Output voltage on the segment: the ODE's own state advance.
double vo_at(const ModeTable& mt, const ode::Vec2& x, double tau) {
  return mt.ode.state_at(tau, x).y;
}

// First sample interval [tau_{k-1}, tau_k] of an n-step scan over
// [0, window] whose endpoints straddle vth in the wanted direction
// (`rising` nullopt: either direction), or nullopt.
struct SignChange {
  double lo;
  double hi;
  bool rising;
};
std::optional<SignChange> dense_scan(const ModeTable& mt, const ode::Vec2& x,
                                     double vth, double window,
                                     std::optional<bool> rising, int n) {
  double a = 0.0;
  double fa = vo_at(mt, x, a) - vth;
  for (int k = 1; k <= n; ++k) {
    const double b = k == n ? window : window * k / n;
    const double fb = vo_at(mt, x, b) - vth;
    const bool up = fa < 0.0 && fb >= 0.0;
    const bool down = fa > 0.0 && fb <= 0.0;
    if ((up && rising != false) || (down && rising != true)) {
      return SignChange{a, b, up};
    }
    a = b;
    fa = fb;
  }
  return std::nullopt;
}

class CrossingSearchVsScan : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const auto& [name, params] :
         {std::pair{"NOR2", GateParams::nor2_reference()},
          std::pair{"NOR3", GateParams::nor3_reference()},
          std::pair{"NAND2", GateParams::nand2_reference()},
          std::pair{"NAND3", GateParams::nand3_reference()}}) {
      gates_.push_back(GateModeTables::make(params));
      const GateModeTables& t = *gates_.back();
      for (GateState s = 0; s < t.n_states(); ++s) {
        modes_.push_back({std::string(name) + gate_state_name(s, t.n_inputs()),
                          &t.state_table(s), t.vth(), t.horizon()});
      }
    }
    wire_ = wire::WireModeTables::make(wire::WireParams::reference());
    for (bool high : {false, true}) {
      modes_.push_back({high ? "wire high" : "wire low",
                        &wire_->drive_table(high), wire_->vth(),
                        wire_->horizon()});
    }
  }

  // Entry states around the rails (vdd = 2 vth), slightly outside them so
  // non-monotone segments with two crossings show up too.
  static ode::Vec2 random_state(util::Rng& rng, double vth) {
    const double vdd = 2.0 * vth;
    return {rng.uniform(-0.25 * vdd, 1.25 * vdd),
            rng.uniform(-0.25 * vdd, 1.25 * vdd)};
  }

  // Windows log-uniform between 1/1000 of the horizon and the horizon:
  // most crossings lie within a few time constants, so short windows cut
  // some off and long ones reach the asymptote.
  static double random_window(util::Rng& rng, double horizon) {
    return horizon * std::pow(10.0, rng.uniform(-3.0, 0.0));
  }

  // The root's residual on the expansion the search solves: a few ulps of
  // the output's voltage scale (its terms, each exponential weighted by its
  // argument, since exp() amplifies the rounding of l tau that much), plus
  // the slope times 1e-22 s. That second term is the Newton stopping rule's:
  // its last step is at most about 1e-17 s, so quadratic convergence leaves
  // about max|l| (1e-17 s)^2 < 1e-22 s. The independent evaluation, rounded
  // differently, agrees to 1e-12 of the terms' size.
  static void expect_root(const ModeTable& mt, const ode::Vec2& x, double vth,
                          double tau, const std::string& what) {
    const TwoExpVo vo = two_exp_expand(mt, x);
    ASSERT_TRUE(vo.valid) << what;
    const double e1 = vo.a1 * std::exp(vo.l1 * tau);
    const double e2 = vo.a2 * std::exp(vo.l2 * tau);
    const double terms = std::fabs(vo.d) + vth + std::fabs(e1) + std::fabs(e2);
    const double scale = terms + std::fabs(e1 * vo.l1 * tau) +
                         std::fabs(e2 * vo.l2 * tau);
    const double slope = std::fabs(e1 * vo.l1 + e2 * vo.l2);
    const double ulp = std::numeric_limits<double>::epsilon() * scale;
    EXPECT_LE(std::fabs(vo.value(tau) - vth), 4.0 * ulp + slope * 1e-22)
        << what;
    EXPECT_LE(std::fabs(vo_at(mt, x, tau) - vth), 1e-12 * terms) << what;
  }

  static std::string describe(const ModeCase& m, const ode::Vec2& x,
                              double window) {
    char buf[160];
    std::snprintf(buf, sizeof buf, " x=(%.17g, %.17g) window %.17g", x.x, x.y,
                  window);
    return m.name + buf;
  }

  static constexpr int kStates = 24;
  static constexpr int kScanSteps = 2048;

  std::vector<std::shared_ptr<const GateModeTables>> gates_;
  std::shared_ptr<const wire::WireModeTables> wire_;
  std::vector<ModeCase> modes_;
};

TEST_F(CrossingSearchVsScan, DirectionFilterMatchesDenseScan) {
  util::Rng rng(20221111);
  int found = 0;
  int none = 0;
  for (const ModeCase& m : modes_) {
    for (int k = 0; k < kStates; ++k) {
      const ode::Vec2 x = random_state(rng, m.vth);
      const double window = random_window(rng, m.horizon);
      for (bool rising : {false, true}) {
        const std::string what =
            describe(m, x, window) + (rising ? " rising" : " falling");
        const double tau = mode_table_crossing(*m.mt, x, window, m.vth, rising);
        const auto scan =
            dense_scan(*m.mt, x, m.vth, window, rising, kScanSteps);
        // Found exactly when the scan sees a matching sign change ...
        ASSERT_EQ(tau >= 0.0, scan.has_value()) << what << " tau " << tau;
        if (!scan.has_value()) {
          ++none;
          continue;
        }
        ++found;
        expect_root(*m.mt, x, m.vth, tau, what);
        // ... and no matching sign change lies before it: the root sits in
        // the first matching sample interval.
        const double slack = 1e-12 * window;
        EXPECT_GE(tau, scan->lo - slack) << what;
        EXPECT_LE(tau, scan->hi + slack) << what;
      }
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(found, 100);
  EXPECT_GT(none, 100);
}

TEST_F(CrossingSearchVsScan, EngineSearchFindsTheFirstCrossingOfEitherWay) {
  util::Rng rng(20221112);
  int found = 0;
  for (const ModeCase& m : modes_) {
    for (int k = 0; k < kStates; ++k) {
      const ode::Vec2 x = random_state(rng, m.vth);
      const double horizon = random_window(rng, m.horizon);
      // An engine segment starts at an arbitrary absolute time.
      const double t_ref = rng.uniform(0.0, 1e-8);
      ModeSegment segment;
      segment.bind(*m.mt, m.vth, horizon);
      segment.reset(t_ref, x, *m.mt);
      const std::string what = describe(m, x, horizon);
      const auto crossing = segment.next_crossing(t_ref);
      const auto scan =
          dense_scan(*m.mt, x, m.vth, horizon, std::nullopt, kScanSteps);
      ASSERT_EQ(crossing.has_value(), scan.has_value()) << what;
      if (!scan.has_value()) continue;
      ++found;
      EXPECT_EQ(crossing->rising, scan->rising) << what;
      // The crossing time is absolute; its offset on the segment is the
      // root (rounded once by the addition of t_ref).
      const double tau = crossing->t - t_ref;
      const double eps = std::numeric_limits<double>::epsilon();
      const double slack = 1e-12 * horizon + 4.0 * eps * t_ref;
      EXPECT_GE(tau, scan->lo - slack) << what;
      EXPECT_LE(tau, scan->hi + slack) << what;
    }
  }
  EXPECT_GT(found, 100);
}

// No reference cell has a defective mode spectrum (RC modes have real,
// distinct eigenvalues unless the coupling vanishes), so one is built. In
// NOR2 state (1,0) the internal node drains through the link device into
// the output, and the input-0 pull-down drains the output. With the output
// capacitance chosen so both nodes decay at the same rate, and a pull-down
// 1e14 times stronger than the link, the coupling falls below the
// eigenvalue classifier's tolerance: the spectrum reads as repeated while
// the matrix is not lambda I, a Jordan block with no two-exponential
// expansion. The crossing search then takes its scan fallback.
TEST(CrossingSearchScanFallback, DefectiveModeThroughGateOutputCrossing) {
  GateParams p;
  p.topology = GateTopology::kNorLike;
  const double r_link = 1e5;
  const double r_pull = r_link * 1e-14;
  p.c_int = 1e-16;
  p.c_out = p.c_int * (1.0 / r_link + 1.0 / r_pull) * r_link;
  p.r_series = {2e5, r_link};
  p.r_parallel = {r_pull, r_pull};
  p.vdd = 0.8;
  const GateModeTables tables(p);
  const GateState s10 = 0b01u;  // input 0 high, input 1 low
  const ModeTable& mt = tables.state_table(s10);
  ASSERT_EQ(mt.ode.eigen().kind, ode::EigenKind::kRealDefective);
  ASSERT_FALSE(mt.scalar_valid);

  // Input 0 rises at t = 0 from the all-low steady state: the output falls
  // through V_th within the defective mode.
  const long scans_before = util::RunCounters::local().scan_fallbacks;
  const GateInputEvent rise{0.0, 0, true};
  const double t =
      gate_output_crossing(tables, 0u, p.worst_case_hold(),
                           std::span<const GateInputEvent>(&rise, 1),
                           /*rising=*/false);
  EXPECT_GT(util::RunCounters::local().scan_fallbacks, scans_before);

  // Independent closed form of the Jordan-block segment: with A = l I + N
  // (N nilpotent) and no source term, x(t) = e^{l t} (x0 + t N x0).
  const ode::Vec2 x0 = gate_mode_steady_state(p, 0u, p.worst_case_hold());
  const ode::Mat2& a = mt.ode.a();
  const double l = 0.5 * (a.a + a.d);
  const ode::Mat2 n{a.a - l, a.b, a.c, a.d - l};
  auto vo = [&](double tau) {
    return std::exp(l * tau) * (x0 + tau * (n * x0)).y;
  };
  // The root sits within Brent's 1e-18 s tolerance of the true crossing.
  ASSERT_GT(t, 0.0);
  EXPECT_LT(t, 1e-9);
  EXPECT_GT(vo(t - 2e-18), p.vth());
  EXPECT_LT(vo(t + 2e-18), p.vth());
}

}  // namespace
}  // namespace charlie::core
