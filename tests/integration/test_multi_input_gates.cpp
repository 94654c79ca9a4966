// End-to-end validation of the generalized N-input hybrid gates (NOR3,
// NAND2, NAND3): closed-form mode trajectories against RK45, the fitted
// channel against digitized SPICE golden traces, and the Fig-7-style
// deviation-area ranking against the SIS baselines.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/gate_delay.hpp"
#include "core/gate_parametrize.hpp"
#include "ode/rk45.hpp"
#include "sim/accuracy.hpp"
#include "sim/gate_models.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "sim/run_channel.hpp"
#include "spice/characterize.hpp"
#include "util/math.hpp"
#include "waveform/digitize.hpp"
#include "waveform/metrics.hpp"

namespace charlie {
namespace {

using core::GateParams;
using core::GateState;
using core::GateTopology;
using spice::CellKind;

core::GateTopology topology_of(CellKind cell) {
  return spice::cell_is_nand(cell) ? GateTopology::kNandLike
                                   : GateTopology::kNorLike;
}

// --- RK45 cross-check of every mode of every new gate --------------------

ode::Vec2 rk45_state(const core::GateParams& p, GateState s,
                     const ode::Vec2& x0, double t) {
  const auto sys = core::gate_mode_ode(p, s);
  const ode::OdeRhs rhs = [&](double, std::span<const double> x,
                              std::span<double> dx) {
    const ode::Vec2 d = sys.derivative({x[0], x[1]});
    dx[0] = d.x;
    dx[1] = d.y;
  };
  const double x0_arr[] = {x0.x, x0.y};
  ode::Rk45Options opts;
  opts.rtol = 1e-11;
  opts.atol = 1e-14;
  const auto r = ode::integrate_rk45(rhs, x0_arr, 0.0, t, opts);
  return {r.x_final[0], r.x_final[1]};
}

TEST(MultiInputGates, ClosedFormMatchesRk45ForAllModes) {
  for (const GateParams& p :
       {GateParams::nor3_reference(), GateParams::nand2_reference(),
        GateParams::nand3_reference()}) {
    const ode::Vec2 x0{0.65, 0.37};  // generic interior state
    for (GateState s = 0; s < core::gate_n_states(p.n_inputs()); ++s) {
      const auto sys = core::gate_mode_ode(p, s);
      for (double t : {5e-12, 25e-12, 80e-12, 300e-12}) {
        const ode::Vec2 exact = sys.state_at(t, x0);
        const ode::Vec2 numeric = rk45_state(p, s, x0, t);
        EXPECT_NEAR(exact.x, numeric.x, 1e-8)
            << p.to_string() << " " << core::gate_state_name(s, p.n_inputs())
            << " t=" << t;
        EXPECT_NEAR(exact.y, numeric.y, 1e-8)
            << p.to_string() << " " << core::gate_state_name(s, p.n_inputs())
            << " t=" << t;
      }
    }
  }
}

// --- substrate calibration shared across the SPICE-golden tests ----------

struct CellCalibration {
  spice::Technology tech = spice::Technology::freepdk15_like();
  spice::GateSisTargets targets;
  core::GateFitResult fit;
};

CellCalibration calibrate(CellKind cell) {
  CellCalibration out;
  out.targets = spice::measure_gate_targets(out.tech, cell);
  core::GateTargets targets;
  targets.fall = out.targets.fall;
  targets.rise = out.targets.rise;
  targets.fall_all = out.targets.fall_all;
  targets.rise_all = out.targets.rise_all;
  core::FitOptions opts;
  opts.vdd = out.tech.vdd;
  opts.nelder_mead_evaluations = 1500;
  out.fit = core::fit_gate_params(topology_of(cell), targets, opts);
  return out;
}

const CellCalibration& calib(CellKind cell) {
  switch (cell) {
    case CellKind::kNor3: {
      static const CellCalibration c = calibrate(CellKind::kNor3);
      return c;
    }
    case CellKind::kNand3: {
      static const CellCalibration c = calibrate(CellKind::kNand3);
      return c;
    }
    default: {
      static const CellCalibration c = calibrate(CellKind::kNand2);
      return c;
    }
  }
}

class MultiInputCell : public ::testing::TestWithParam<CellKind> {};

TEST_P(MultiInputCell, FitReproducesSubstrateTargets) {
  // The lumped single-node stack cannot distinguish every scenario the
  // 2-internal-node substrate produces (e.g. NOR3's rise[0] and rise[1]
  // share one model trajectory), so the fit is a compromise: every target
  // within ~12%, the paper-grade accuracy for the directions the structure
  // can express.
  const auto& cal = calib(GetParam());
  const int n = spice::cell_arity(GetParam());
  auto tol = [](double target) { return std::max(3e-12, 0.12 * target); };
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(cal.fit.achieved.fall[i], cal.targets.fall[i],
                tol(cal.targets.fall[i]))
        << "fall[" << i << "]";
    EXPECT_NEAR(cal.fit.achieved.rise[i], cal.targets.rise[i],
                tol(cal.targets.rise[i]))
        << "rise[" << i << "]";
  }
  EXPECT_NEAR(cal.fit.achieved.fall_all, cal.targets.fall_all,
              tol(cal.targets.fall_all));
  EXPECT_NEAR(cal.fit.achieved.rise_all, cal.targets.rise_all,
              tol(cal.targets.rise_all));
}

TEST_P(MultiInputCell, HybridChannelTracksAnalogOnRandomTrace) {
  // A short random trace on every input: the fitted hybrid channel's
  // output must stay close to the digitized analog output.
  const CellKind cell = GetParam();
  const auto& cal = calib(cell);
  const int n = spice::cell_arity(cell);
  util::Rng rng(4242);
  waveform::TraceConfig cfg;
  cfg.mu = 300e-12;
  cfg.sigma = 100e-12;
  cfg.n_transitions = 24;
  cfg.t_start = 2.0 * cal.tech.input_rise_time;
  const auto traces = waveform::generate_traces(cfg, n, rng);
  double t_last = cfg.t_start;
  for (const auto& trace : traces) {
    if (!trace.empty()) t_last = std::max(t_last, trace.transitions().back());
  }
  const double t_end = t_last + 500e-12;
  spice::TransientOptions topt;
  topt.v_abstol = 5e-5;
  topt.v_reltol = 5e-4;
  const auto analog = spice::run_gate_cell(cal.tech, cell, traces, t_end, topt);
  const auto golden = waveform::digitize(analog.vo, cal.tech.vth());
  std::vector<waveform::DigitalTrace> digitized;
  for (const auto& wave : analog.vin) {
    digitized.push_back(waveform::digitize(wave, cal.tech.vth()));
  }

  sim::HybridGateChannel channel(cal.fit.params);
  const auto out = sim::run_gate_channel(channel, digitized, 0.0, t_end);

  const auto stats = waveform::pair_edges(golden, out, 40e-12);
  // Every substrate edge must be reproduced; the model may add at most one
  // marginal runt pulse (V_O grazing V_th resolves differently within a
  // few mV between model and substrate).
  EXPECT_EQ(stats.unmatched_reference, 0u) << spice::cell_name(cell);
  EXPECT_LE(stats.unmatched_model, 2u) << spice::cell_name(cell);
  EXPECT_LT(stats.mean_abs_offset, 10e-12) << spice::cell_name(cell);
}

TEST_P(MultiInputCell, HybridBeatsPureAndInertialOnMisSweep) {
  // The acceptance experiment: on an MIS-heavy waveform configuration the
  // hybrid channel's deviation area must beat both the inertial baseline
  // and the pure-delay channel, for every new gate.
  const CellKind cell = GetParam();
  const auto& cal = calib(cell);
  const int n = spice::cell_arity(cell);
  const GateTopology topology = topology_of(cell);

  sim::SisGateDelays sis;
  sis.fall = math::mean(cal.targets.fall);
  sis.rise = math::mean(cal.targets.rise);

  std::vector<sim::ModelUnderTest> models;
  models.push_back({"inertial",
                    [&] { return sim::make_inertial_gate(topology, n, sis); },
                    true});
  models.push_back({"pure",
                    [&] { return sim::make_pure_gate(topology, n, sis); },
                    false});
  models.push_back({"hm",
                    [&] {
                      return std::make_unique<sim::HybridGateChannel>(
                          cal.fit.params);
                    },
                    false});

  // Pulse widths comfortably above the slowest gate delay (NAND3 falls in
  // ~120 ps) so the golden output actually switches, with LOCAL-mode
  // generation piling transitions of different inputs close together --
  // the MIS-heavy regime where single-input channels fail.
  waveform::TraceConfig cfg;
  cfg.mu = 400e-12;
  cfg.sigma = 200e-12;
  cfg.n_transitions = 40;
  sim::AccuracyOptions opts;
  opts.repetitions = 2;
  const auto result =
      sim::evaluate_gate_accuracy(cal.tech, cell, cfg, models, opts);
  ASSERT_EQ(result.models.size(), 3u);
  EXPECT_DOUBLE_EQ(result.models[0].normalized, 1.0);
  EXPECT_LT(result.models[2].normalized, 0.9)
      << spice::cell_name(cell) << ": hybrid must clearly beat inertial";
  EXPECT_LT(result.models[2].normalized, result.models[1].normalized)
      << spice::cell_name(cell) << ": hybrid must beat pure delay";
  EXPECT_GT(result.golden_transitions, 0);
}

INSTANTIATE_TEST_SUITE_P(Cells, MultiInputCell,
                         ::testing::Values(CellKind::kNor3, CellKind::kNand2,
                                           CellKind::kNand3),
                         [](const auto& info) {
                           return spice::cell_name(info.param);
                         });

}  // namespace
}  // namespace charlie
