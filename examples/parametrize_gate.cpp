// Parametrize a hybrid NOR model from externally measured characteristic
// delays -- the workflow a user follows when they have their own SPICE
// characterization data instead of our built-in substrate.
//
//   $ ./examples/parametrize_gate
//       --fall-minus-inf-ps 38 --fall-zero-ps 28 --fall-plus-inf-ps 39
//       --rise-minus-inf-ps 55.4 --rise-zero-ps 56.5 --rise-plus-inf-ps 53
//
// Defaults are the paper's Fig 2 values, so running it bare reproduces the
// Section V parametrization including delta_min = 18 ps.
#include <iostream>

#include "core/charlie_delays.hpp"
#include "core/delay_model.hpp"
#include "core/parametrize.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace charlie;
  util::Cli cli(argc, argv);
  core::CharacteristicDelays targets;
  targets.fall_minus_inf =
      cli.get_double("--fall-minus-inf-ps", 38.0) * units::ps;
  targets.fall_zero = cli.get_double("--fall-zero-ps", 28.0) * units::ps;
  targets.fall_plus_inf =
      cli.get_double("--fall-plus-inf-ps", 39.0) * units::ps;
  targets.rise_minus_inf =
      cli.get_double("--rise-minus-inf-ps", 55.4) * units::ps;
  targets.rise_zero = cli.get_double("--rise-zero-ps", 56.5) * units::ps;
  targets.rise_plus_inf =
      cli.get_double("--rise-plus-inf-ps", 53.0) * units::ps;
  const double vdd = cli.get_double("--vdd", 0.8);
  cli.finish();

  std::cout << "Target characteristic delays:\n"
            << "  fall(-inf/0/+inf): "
            << units::format_time(targets.fall_minus_inf) << " / "
            << units::format_time(targets.fall_zero) << " / "
            << units::format_time(targets.fall_plus_inf) << "\n"
            << "  rise(-inf/0/+inf): "
            << units::format_time(targets.rise_minus_inf) << " / "
            << units::format_time(targets.rise_zero) << " / "
            << units::format_time(targets.rise_plus_inf) << "\n\n";

  // The ratio argument of paper Section IV: the raw RC model can only
  // achieve fall(-inf)/fall(0) ~ (R3+R4)/R3 ~ 2, so a pure delay is
  // subtracted first.
  const double dmin_rule = core::delta_min_for_ratio(
      targets.fall_minus_inf, targets.fall_zero);
  std::cout << "delta_min from the ratio-2 rule: "
            << units::format_time(dmin_rule)
            << "   (paper: 18 ps for the 38/28 ps targets)\n\n";

  core::FitOptions opts;
  opts.vdd = vdd;
  std::cout << "Fitting (Nelder-Mead + Levenberg-Marquardt in log space)...\n";
  const auto fit = core::fit_nor_params(targets, opts);

  std::cout << "\nResult: " << fit.params.to_string() << "\n"
            << "objective " << fit.objective << ", RMS error "
            << units::format_time(fit.rms_error) << ", "
            << fit.evaluations << " evaluations\n\n";

  util::TextTable table({"quantity", "target [ps]", "achieved [ps]"});
  const auto& a = fit.achieved;
  auto row = [&](const char* name, double t, double v) {
    table.add_row({name, util::fmt(t / units::ps, 2),
                   util::fmt(v / units::ps, 2)});
  };
  row("fall(-inf)", targets.fall_minus_inf, a.fall_minus_inf);
  row("fall(0)", targets.fall_zero, a.fall_zero);
  row("fall(+inf)", targets.fall_plus_inf, a.fall_plus_inf);
  row("rise(-inf)", targets.rise_minus_inf, a.rise_minus_inf);
  row("rise(0)", targets.rise_zero, a.rise_zero);
  row("rise(+inf)", targets.rise_plus_inf, a.rise_plus_inf);
  table.print(std::cout);
  std::cout << "\nNote: rise(0) generally cannot be matched for the GND "
               "history -- the model's\nrising MIS peak deficiency (paper "
               "Section IV).\n";
  return 0;
}
