#include "core/parametrize.hpp"

#include <cmath>
#include <vector>

#include "fit/levenberg_marquardt.hpp"
#include "fit/param_transform.hpp"
#include "util/error.hpp"

namespace charlie::core {
namespace {

constexpr double kLn2 = 0.6931471805599453;

// Flat target order: fall -inf, 0, +inf, rise -inf, 0, +inf.
std::vector<double> to_vector(const CharacteristicDelays& d) {
  return {d.fall_minus_inf, d.fall_zero,      d.fall_plus_inf,
          d.rise_minus_inf, d.rise_zero,      d.rise_plus_inf};
}

CharacteristicDelays from_vector(const std::vector<double>& v) {
  CharacteristicDelays d;
  d.fall_minus_inf = v[0];
  d.fall_zero = v[1];
  d.fall_plus_inf = v[2];
  d.rise_minus_inf = v[3];
  d.rise_zero = v[4];
  d.rise_plus_inf = v[5];
  return d;
}

void check_targets(const CharacteristicDelays& d) {
  for (double v : to_vector(d)) {
    if (!(v > 0.0)) {
      throw ConfigError("fit_nor_params: characteristic delays must be > 0");
    }
  }
  if (!(d.fall_minus_inf > d.fall_zero)) {
    throw ConfigError(
        "fit_nor_params: expected fall(-inf) > fall(0) (Charlie speed-up)");
  }
}

NorParams params_from_vector(const std::vector<double>& v, double vdd,
                             double delta_min) {
  NorParams p;
  p.r1 = v[0];
  p.r2 = v[1];
  p.r3 = v[2];
  p.r4 = v[3];
  p.cn = v[4];
  p.co = v[5];
  p.vdd = vdd;
  p.delta_min = delta_min;
  return p;
}

}  // namespace

NorParams seed_from_targets(const CharacteristicDelays& corrected,
                            double vdd) {
  NorParams p;
  p.vdd = vdd;
  p.delta_min = 0.0;
  // C_O sets the overall impedance scale; any reasonable seed works since
  // the fit explores log space. Start near the paper's magnitude.
  p.co = 600e-18;
  // eq (9): fall(-inf) = ln2 * C_O * R4.
  p.r4 = corrected.fall_minus_inf / (kLn2 * p.co);
  // eq (8): fall(0) = ln2 * C_O * (R3 || R4).
  const double r_parallel = corrected.fall_zero / (kLn2 * p.co);
  const double inv_r3 = 1.0 / r_parallel - 1.0 / p.r4;
  p.r3 = inv_r3 > 0.0 ? 1.0 / inv_r3 : p.r4;
  // Rising asymptote: roughly ln2 * C_O * (R1 + R2) once V_N has settled.
  const double r12 = corrected.rise_plus_inf / (kLn2 * p.co);
  p.r1 = 0.45 * r12;
  p.r2 = 0.55 * r12;
  p.cn = 0.1 * p.co;
  return p;
}

FitResult fit_nor_params(const CharacteristicDelays& measured,
                         const FitOptions& options) {
  check_targets(measured);
  const fit_pipeline::FallbackTally tally;
  const auto measured_vec = to_vector(measured);
  // The paper's ratio rule on fall(-inf)/fall(0).
  const double delta_min = fit_pipeline::choose_delta_min(
      options, measured_vec, measured.fall_minus_inf, measured.fall_zero, 2);
  const auto corrected = fit_pipeline::strip_delta_min(measured_vec, delta_min);

  const NorParams seed = seed_from_targets(from_vector(corrected), options.vdd);
  // The raw model (delta_min excluded) against the corrected targets.
  const fit_pipeline::DelayModel model = [&](const std::vector<double>& x) {
    return to_vector(
        characteristic_delays_exact(params_from_vector(x, options.vdd, 0.0)));
  };
  auto nm_result = fit_pipeline::nelder_mead_fit(
      model, {seed.r1, seed.r2, seed.r3, seed.r4, seed.cn, seed.co}, corrected,
      options.nelder_mead_evaluations);

  // Levenberg-Marquardt polish from the Nelder-Mead optimum on the relative
  // residuals plus the box term, so 2 * cost is the Nelder-Mead objective;
  // kept only when it lowers that objective.
  const double box_scale = std::sqrt(fit_pipeline::kBoxWeight);
  auto residuals = [&](const std::vector<double>& log_x) {
    const auto x = fit::from_log_space(log_x);
    std::vector<double> r(7, 1e3);  // penalty in an infeasible corner
    if (const auto achieved = fit_pipeline::feasible_delays(model, x)) {
      for (std::size_t i = 0; i < 6; ++i) {
        r[i] = ((*achieved)[i] - corrected[i]) / corrected[i];
      }
    }
    r[6] = box_scale * fit_pipeline::box_distance(x);
    return r;
  };
  fit::LmOptions lm;
  lm.max_iterations = 60;
  const auto lm_result = fit::levenberg_marquardt(residuals, nm_result.x, lm);
  if (2.0 * lm_result.cost < nm_result.f) {
    nm_result.x = lm_result.x;
    nm_result.f = 2.0 * lm_result.cost;
  }

  FitResult result;
  result.params = params_from_vector(fit::from_log_space(nm_result.x),
                                     options.vdd, delta_min);
  result.targets = measured;
  result.achieved = characteristic_delays_exact(result.params);
  result.objective = nm_result.f;
  result.evaluations = nm_result.evaluations;
  result.rms_error =
      fit_pipeline::rms_error(to_vector(result.achieved), measured_vec);
  result.swallowed_fallbacks = tally.swallowed();
  return result;
}

}  // namespace charlie::core
