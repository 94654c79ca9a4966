#include "core/gate_modes.hpp"

#include "util/error.hpp"

namespace charlie::core {

namespace {

// Negation that never produces -0.0, so switched-off modes keep exact-zero
// matrix entries (frozen rows are detected by equality with 0).
inline double neg(double x) { return x == 0.0 ? 0.0 : -x; }

// True when every series-chain device *not* adjacent to the output
// conducts: inputs 0..n-2 all low for NOR-like (pMOS), inputs 1..n-1 all
// high for NAND-like (nMOS).
bool chain_conducts(const GateParams& p, GateState s) {
  const int n = p.n_inputs();
  if (p.topology == GateTopology::kNorLike) {
    for (int i = 0; i < n - 1; ++i) {
      if (gate_state_input(s, i)) return false;
    }
    return true;
  }
  for (int i = 1; i < n; ++i) {
    if (!gate_state_input(s, i)) return false;
  }
  return true;
}

// The output-adjacent series device: input n-1 low for NOR-like pull-up,
// input 0 high for NAND-like pull-down.
bool link_conducts(const GateParams& p, GateState s) {
  if (p.topology == GateTopology::kNorLike) {
    return !gate_state_input(s, p.n_inputs() - 1);
  }
  return gate_state_input(s, 0);
}

// Lumped resistance of the conducting sub-chain (excludes the
// output-adjacent device).
double chain_resistance(const GateParams& p) {
  const int n = p.n_inputs();
  double r = 0.0;
  if (p.topology == GateTopology::kNorLike) {
    for (int i = 0; i < n - 1; ++i) r += p.r_series[i];
  } else {
    for (int i = 1; i < n; ++i) r += p.r_series[i];
  }
  return r;
}

double link_resistance(const GateParams& p) {
  return p.topology == GateTopology::kNorLike
             ? p.r_series[p.n_inputs() - 1]
             : p.r_series[0];
}

}  // namespace

std::string gate_state_name(GateState state, int n_inputs) {
  std::string out = "(";
  for (int i = 0; i < n_inputs; ++i) {
    if (i > 0) out += ',';
    out += gate_state_input(state, i) ? '1' : '0';
  }
  out += ')';
  return out;
}

bool gate_mode_output(GateTopology topology, GateState state, int n_inputs) {
  const GateState all = gate_n_states(n_inputs) - 1u;
  if (topology == GateTopology::kNorLike) {
    return (state & all) == 0u;  // high iff every input is low
  }
  return (state & all) != all;  // low iff every input is high
}

bool gate_mode_internal_frozen(const GateParams& params, GateState state) {
  return !chain_conducts(params, state) && !link_conducts(params, state);
}

ode::AffineOde2 gate_mode_ode(const GateParams& p, GateState s) {
  const int n = p.n_inputs();
  const bool chain = chain_conducts(p, s);
  const bool link = link_conducts(p, s);

  // Accumulate positive conductance-over-capacitance terms and negate at
  // the end, keeping the n = 2 NOR entries bit-identical to the paper's
  // printed per-mode systems.
  double a_xx = 0.0;  // V_int self term
  double a_xy = 0.0;  // V_O -> V_int coupling
  double a_yx = 0.0;  // V_int -> V_O coupling
  double a_yy = 0.0;  // V_O self term
  double g_x = 0.0;
  double g_y = 0.0;

  if (chain) {
    const double r_chain = chain_resistance(p);
    if (p.topology == GateTopology::kNorLike) {
      // Sub-chain connects V_int to VDD.
      a_xx += 1.0 / (p.c_int * r_chain);
      g_x += p.vdd / (p.c_int * r_chain);
    } else {
      // Sub-chain connects V_int to GND.
      a_xx += 1.0 / (p.c_int * r_chain);
    }
  }
  if (link) {
    const double r_link = link_resistance(p);
    a_xx += 1.0 / (p.c_int * r_link);
    a_xy += 1.0 / (p.c_int * r_link);
    a_yx += 1.0 / (p.c_out * r_link);
    a_yy += 1.0 / (p.c_out * r_link);
  }
  // Parallel devices tie the output to a rail: GND for NOR-like nMOS
  // (conducting on a high input), VDD for NAND-like pMOS (on a low input).
  for (int i = 0; i < n; ++i) {
    const bool on = p.topology == GateTopology::kNorLike
                        ? gate_state_input(s, i)
                        : !gate_state_input(s, i);
    if (!on) continue;
    a_yy += 1.0 / (p.c_out * p.r_parallel[i]);
    if (p.topology == GateTopology::kNandLike) {
      g_y += p.vdd / (p.c_out * p.r_parallel[i]);
    }
  }

  const ode::Mat2 m{neg(a_xx), a_xy,  //
                    a_yx, neg(a_yy)};
  return ode::AffineOde2(m, {g_x, g_y});
}

ode::Vec2 gate_mode_steady_state(const GateParams& p, GateState s,
                                 double v_int_hold) {
  const bool chain = chain_conducts(p, s);
  const bool link = link_conducts(p, s);
  if (p.topology == GateTopology::kNorLike) {
    if (chain && link) return {p.vdd, p.vdd};  // full pull-up path, no fight
    if (chain) return {p.vdd, 0.0};            // N charged, O drained
    if (link) return {0.0, 0.0};               // N drains into O
    return {v_int_hold, 0.0};                  // stack isolated
  }
  if (chain && link) return {0.0, 0.0};  // full pull-down path
  if (chain) return {0.0, p.vdd};        // M drained, O charged
  if (link) return {p.vdd, p.vdd};       // M charges through O
  return {v_int_hold, p.vdd};            // stack isolated
}

}  // namespace charlie::core
