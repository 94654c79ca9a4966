// Reproduces paper Fig 7: average modeling accuracy (deviation area,
// normalized to inertial delay) of
//   * inertial delay,
//   * Exp-Channel (IDM) with delta_min = 20 ps,
//   * hybrid model without pure delay (same R/C, delta_min stripped),
//   * hybrid model with delta_min,
// over the four waveform configurations 100/50-LOCAL, 200/100-LOCAL,
// 2000/1000-GLOBAL, 5000/5-GLOBAL. Lower is better.
//
// Paper defaults are 500 transitions (250 for the last config) and 20
// repetitions; the bench defaults are scaled down for quick runs -- pass
// --full for paper-scale, or set --reps/--scale explicitly. An extra
// "hm refit dmin=0" ablation column (R/C refitted under a forced
// delta_min = 0) can be enabled with --ablation.
#include <iostream>

#include "bench_common.hpp"
#include "sim/accuracy.hpp"
#include "sim/gate_models.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "sim/surface_nor_channel.hpp"

int main(int argc, char** argv) {
  using namespace charlie;
  util::Cli cli(argc, argv);
  const bool full = cli.has_flag("--full");
  const int reps = cli.get_int("--reps", full ? 20 : 5);
  const int scale = cli.get_int("--scale", full ? 1 : 5);  // divide counts
  const bool ablation = cli.has_flag("--ablation");
  const bool csv = cli.has_flag("--csv");
  cli.finish();

  const auto cal = bench::calibrate();

  sim::SisGateDelays sis;
  sis.rise =
      0.5 * (cal.substrate.rise_minus_inf + cal.substrate.rise_plus_inf);
  sis.fall =
      0.5 * (cal.substrate.fall_minus_inf + cal.substrate.fall_plus_inf);

  core::FitResult fit0;
  std::unique_ptr<core::DelaySurface> surface;
  if (ablation) {
    surface = std::make_unique<core::DelaySurface>(
        core::DelaySurface::build(cal.params, 200e-12, 401));
    core::FitOptions o0;
    o0.vdd = cal.tech.vdd;
    o0.forced_delta_min = 0.0;
    o0.nelder_mead_evaluations = 1500;
    fit0 = core::fit_nor_params(bench::to_targets(cal.substrate), o0);
  }

  std::vector<sim::ModelUnderTest> models;
  models.push_back({"inertial delay",
                    [&] {
                      return sim::make_inertial_gate(
                          core::GateTopology::kNorLike, 2, sis);
                    },
                    true});
  models.push_back({"Exp-Channel dmin=20ps",
                    [&] {
                      return sim::make_exp_gate(core::GateTopology::kNorLike,
                                                2, sis, 20e-12);
                    },
                    false});
  models.push_back({"HM without dmin",
                    [&] {
                      return std::make_unique<sim::HybridGateChannel>(
                          core::GateParams::from_nor(cal.params_stripped));
                    },
                    false});
  models.push_back({"HM with dmin",
                    [&] {
                      return std::make_unique<sim::HybridGateChannel>(
                          core::GateParams::from_nor(cal.params));
                    },
                    false});
  if (ablation) {
    models.push_back({"HM refit dmin=0",
                      [&] {
                        return std::make_unique<sim::HybridGateChannel>(
                            core::GateParams::from_nor(fit0.params));
                      },
                      false});
    models.push_back({"HM delay-function",
                      [&] {
                        return std::make_unique<sim::SurfaceNorChannel>(
                            *surface);
                      },
                      false});
  }

  std::cout << "=== Fig 7: normalized deviation area (lower = better) ===\n"
            << "repetitions=" << reps << ", transition counts scaled by 1/"
            << scale << "\n\n";

  std::vector<std::string> header{"configuration"};
  for (const auto& m : models) header.push_back(m.name);
  util::TextTable table(header);
  std::unique_ptr<util::CsvWriter> out;
  if (csv) {
    std::vector<std::string> cols{"config"};
    for (const auto& m : models) cols.push_back(m.name);
    out = std::make_unique<util::CsvWriter>("bench_out/fig7_accuracy.csv",
                                            cols);
  }

  for (auto cfg : waveform::paper_fig7_configs()) {
    cfg.n_transitions = std::max<std::size_t>(20, cfg.n_transitions / scale);
    sim::AccuracyOptions opts;
    opts.repetitions = reps;
    const auto result = sim::evaluate_accuracy(cal.tech, cfg, models, opts);
    std::vector<std::string> row{result.config_label};
    std::vector<std::string> csv_row{result.config_label};
    for (const auto& m : result.models) {
      row.push_back(util::fmt(m.normalized, 2));
      csv_row.push_back(util::fmt(m.normalized, 4));
    }
    table.add_row(row);
    if (out) out->row_text(csv_row);
  }
  table.print(std::cout);

  std::cout
      << "\npaper Fig 7 reference (normalized):\n"
      << "  100/50-L   : inertial 1.00, Exp 0.71, HM w/o 1.44, HM 0.52\n"
      << "  200/100-L  : inertial 1.00, Exp 0.72, HM w/o 1.96, HM 0.47\n"
      << "  2000/1000-G: inertial 1.00, Exp 1.60, HM w/o 1.15, HM 0.97\n"
      << "  5000/5-G   : inertial 1.00, Exp 1.65, HM w/o 1.01, HM 1.01\n"
      << "Expected agreements: HM-with-dmin wins for short pulses; HM\n"
      << "without dmin is worse than inertial. See docs/interconnect.md,\n"
      << "\"The gate experiment (Fig 7)\", for the GLOBAL columns (our\n"
      << "fixed-slew substrate has no common error floor, so HM keeps\n"
      << "winning there).\n";
  return 0;
}
