#include "waveform/generator.hpp"

#include <algorithm>
#include <cstdio>

#include "util/error.hpp"
#include "util/units.hpp"

namespace charlie::waveform {

std::string TraceConfig::label() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g/%g - %s", mu / units::ps,
                sigma / units::ps, global_mode ? "GLOBAL" : "LOCAL");
  return buf;
}

std::vector<DigitalTrace> generate_traces(const TraceConfig& config,
                                          std::size_t n_inputs,
                                          util::Rng& rng) {
  std::vector<DigitalTrace> traces;
  generate_traces_into(config, n_inputs, rng, traces);
  return traces;
}

void generate_traces_into(const TraceConfig& config, std::size_t n_inputs,
                          util::Rng& rng, std::vector<DigitalTrace>& out) {
  CHARLIE_ASSERT(n_inputs >= 1);
  CHARLIE_ASSERT(config.n_transitions >= 1);
  CHARLIE_ASSERT(config.min_width > 0.0);

  out.resize(n_inputs);
  for (DigitalTrace& trace : out) {
    trace.reset(false);
    trace.reserve(config.n_transitions);
  }

  if (!config.global_mode) {
    for (DigitalTrace& trace : out) {
      double t = config.t_start;
      for (std::size_t k = 0; k < config.n_transitions; ++k) {
        t += rng.normal_above(config.mu, config.sigma, config.min_width);
        trace.append_transition(t);
      }
    }
    return;
  }

  // GLOBAL: one master schedule; each transition lands on one input, so
  // different inputs rarely switch close together.
  double t = config.t_start;
  for (std::size_t k = 0; k < config.n_transitions; ++k) {
    t += rng.normal_above(config.mu, config.sigma, config.min_width);
    const std::size_t input = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_inputs) - 1));
    out[input].append_transition(t);
  }
}

std::vector<TraceConfig> paper_fig7_configs() {
  using units::ps;
  std::vector<TraceConfig> configs(4);
  configs[0] = {100 * ps, 50 * ps, false, 500, 0.0, 1 * ps};
  configs[1] = {200 * ps, 100 * ps, false, 500, 0.0, 1 * ps};
  configs[2] = {2000 * ps, 1000 * ps, true, 500, 0.0, 1 * ps};
  configs[3] = {5000 * ps, 5 * ps, true, 250, 0.0, 1 * ps};
  return configs;
}

}  // namespace charlie::waveform
