// Random-trace accuracy comparison on one NOR gate: golden analog
// simulation vs four digital delay models (a single-configuration version
// of the paper's Fig 7 experiment).
//
//   $ ./examples/trace_accuracy [--mu-ps 150] [--sigma-ps 60] [--n 80]
//                               [--reps 3] [--global]
#include <iostream>

#include "core/parametrize.hpp"
#include "sim/accuracy.hpp"
#include "sim/gate_models.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace charlie;
  util::Cli cli(argc, argv);
  waveform::TraceConfig cfg;
  cfg.mu = cli.get_double("--mu-ps", 150.0) * units::ps;
  cfg.sigma = cli.get_double("--sigma-ps", 60.0) * units::ps;
  cfg.n_transitions = static_cast<std::size_t>(cli.get_int("--n", 80));
  cfg.global_mode = cli.has_flag("--global");
  sim::AccuracyOptions opts;
  opts.repetitions = cli.get_int("--reps", 3);
  cli.finish();

  const auto tech = spice::Technology::freepdk15_like();
  std::cout << "Calibrating hybrid model against the analog substrate...\n";
  const auto sub = spice::measure_characteristics(tech);
  core::CharacteristicDelays targets;
  targets.fall_minus_inf = sub.fall_minus_inf;
  targets.fall_zero = sub.fall_zero;
  targets.fall_plus_inf = sub.fall_plus_inf;
  targets.rise_minus_inf = sub.rise_minus_inf;
  targets.rise_zero = sub.rise_zero;
  targets.rise_plus_inf = sub.rise_plus_inf;
  core::FitOptions fopts;
  fopts.vdd = tech.vdd;
  const auto fit = core::fit_nor_params(targets, fopts);

  sim::SisGateDelays sis;
  sis.rise = 0.5 * (sub.rise_minus_inf + sub.rise_plus_inf);
  sis.fall = 0.5 * (sub.fall_minus_inf + sub.fall_plus_inf);

  std::vector<sim::ModelUnderTest> models;
  models.push_back({"inertial",
                    [&] {
                      return sim::make_inertial_gate(
                          core::GateTopology::kNorLike, 2, sis);
                    },
                    true});
  models.push_back({"pure delay",
                    [&] {
                      return sim::make_pure_gate(core::GateTopology::kNorLike,
                                                 2, sis);
                    },
                    false});
  models.push_back({"exp (IDM)",
                    [&] {
                      return sim::make_exp_gate(core::GateTopology::kNorLike,
                                                2, sis, 20e-12);
                    },
                    false});
  models.push_back({"sumexp (IDM)",
                    [&] {
                      return sim::make_sumexp_gate(
                          core::GateTopology::kNorLike, 2, sis, 20e-12);
                    },
                    false});
  models.push_back({"hybrid (paper)",
                    [&] {
                      return std::make_unique<sim::HybridGateChannel>(
                          core::GateParams::from_nor(fit.params));
                    },
                    false});

  std::cout << "Evaluating " << opts.repetitions << " random traces of "
            << cfg.n_transitions << " transitions (" << cfg.label()
            << ")...\n\n";
  const auto result = sim::evaluate_accuracy(tech, cfg, models, opts);

  util::TextTable table(
      {"model", "deviation area [ps]", "normalized", "stddev [ps]"});
  for (const auto& m : result.models) {
    table.add_row({m.name, util::fmt(m.mean_area / units::ps, 1),
                   util::fmt(m.normalized, 3),
                   util::fmt(m.stddev_area / units::ps, 1)});
  }
  table.print(std::cout);
  std::cout << "\n(lower is better; 'normalized' is relative to the "
               "inertial baseline, as in paper Fig 7)\n";
  return 0;
}
