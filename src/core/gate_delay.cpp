#include "core/gate_delay.hpp"

#include <algorithm>

#include "core/two_exp_crossing.hpp"
#include "util/error.hpp"

namespace charlie::core {

double mode_table_crossing(const ModeTable& mt, const ode::Vec2& x_ref,
                           double tau_end, double vth, bool rising) {
  ModeSegment segment;
  segment.bind(mt, vth, tau_end);
  segment.reset(0.0, x_ref, mt);
  return segment.first_crossing(rising, tau_end).value_or(-1.0);
}

double gate_output_crossing(const GateModeTables& tables, GateState s0,
                            double v_int_hold,
                            std::span<const GateInputEvent> events,
                            bool rising) {
  GateState s = s0;
  ModeSegment segment;
  segment.bind(tables.state_table(s), tables.vth(), tables.horizon());
  segment.reset(0.0, gate_mode_steady_state(tables.gate_params(), s,
                                            v_int_hold),
                tables.state_table(s));
  for (const GateInputEvent& ev : events) {
    const double window = ev.t - segment.t_ref();
    CHARLIE_ASSERT_MSG(window >= 0.0, "gate_output_crossing: unsorted events");
    const auto t_cross = segment.first_crossing(rising, window);
    if (t_cross.has_value()) return *t_cross;
    s = gate_state_with(s, ev.port, ev.value);
    segment.enter(ev.t, segment.state_at(ev.t), tables.state_table(s),
                  "gate_output_crossing");
  }
  const auto t_cross = segment.first_crossing(rising, tables.horizon());
  if (!t_cross.has_value()) {
    throw ConvergenceError(
        "gate_output_crossing: output never crossed V_th within the search "
        "horizon");
  }
  return *t_cross;
}

GateSisDelays gate_characteristic_delays(const GateModeTables& tables) {
  const GateParams& p = tables.gate_params();
  const int n = p.n_inputs();
  const bool nor_like = p.topology == GateTopology::kNorLike;
  const GateState all = gate_n_states(n) - 1u;
  const double hold = p.worst_case_hold();

  GateSisDelays out;
  out.fall.reserve(n);
  out.rise.reserve(n);

  // For both topologies a rising input drives the output low (NOR: any high
  // input pulls down; NAND: the last high input completes the pull-down
  // chain) and a falling input drives it high. What differs is the resting
  // state of the other inputs: non-controlling is low for NOR-like, high
  // for NAND-like.
  for (int i = 0; i < n; ++i) {
    {
      // fall[i]: output high, input i rises.
      const GateState s0 = nor_like ? 0u : static_cast<GateState>(
                                               all & ~(1u << i));
      const GateInputEvent ev{0.0, i, true};
      out.fall.push_back(gate_output_crossing(
          tables, s0, hold, std::span<const GateInputEvent>(&ev, 1),
          /*rising=*/false));
    }
    {
      // rise[i]: output low (held by input i alone for NOR, by the full
      // stack for NAND), input i falls.
      const GateState s0 = nor_like ? (1u << i) : all;
      const GateInputEvent ev{0.0, i, false};
      out.rise.push_back(gate_output_crossing(
          tables, s0, hold, std::span<const GateInputEvent>(&ev, 1),
          /*rising=*/true));
    }
  }

  // Simultaneous switching of every input, worst-case internal history
  // (the all-low NAND state and the all-high NOR state freeze the stack).
  std::vector<GateInputEvent> all_rise;
  std::vector<GateInputEvent> all_fall;
  for (int i = 0; i < n; ++i) {
    all_rise.push_back({0.0, i, true});
    all_fall.push_back({0.0, i, false});
  }
  out.fall_all =
      gate_output_crossing(tables, 0u, hold, all_rise, /*rising=*/false);
  out.rise_all =
      gate_output_crossing(tables, all, hold, all_fall, /*rising=*/true);
  return out;
}

GateArcEnvelope gate_arc_envelope(const GateModeTables& tables) {
  const GateSisDelays sis = gate_characteristic_delays(tables);
  GateArcEnvelope env;
  env.rise.reserve(sis.rise.size());
  env.fall.reserve(sis.fall.size());
  for (const double d : sis.rise) env.rise.push_back(std::max(d, sis.rise_all));
  for (const double d : sis.fall) env.fall.push_back(std::max(d, sis.fall_all));
  return env;
}

}  // namespace charlie::core
