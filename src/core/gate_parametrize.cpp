#include "core/gate_parametrize.hpp"

#include <algorithm>
#include <cmath>

#include "core/charlie_delays.hpp"
#include "fit/param_transform.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"

namespace charlie::core {
namespace fit_pipeline {

double box_distance(const std::vector<double>& values) {
  auto outside = [](double v, const PlausibleRange& range) {
    if (v < range.lo) return std::log(range.lo / v);
    if (v > range.hi) return std::log(v / range.hi);
    return 0.0;
  };
  const std::size_t n_r = values.size() - 2;
  double acc = 0.0;
  for (std::size_t i = 0; i < n_r; ++i) {
    acc += outside(values[i], kResistanceBox);
  }
  acc += outside(values[n_r], kInternalCapBox);
  acc += outside(values[n_r + 1], kOutputCapBox);
  return acc;
}

double choose_delta_min(const FitOptions& options,
                        const std::vector<double>& measured, double sis,
                        double simultaneous, int n_inputs) {
  const double cap = 0.9 * *std::min_element(measured.begin(), measured.end());
  if (options.forced_delta_min >= 0.0) {
    return std::min(options.forced_delta_min, cap);
  }
  return std::clamp(delta_min_for_ratio(sis, simultaneous, double(n_inputs)),
                    0.0, cap);
}

std::vector<double> strip_delta_min(const std::vector<double>& measured,
                                    double delta_min) {
  std::vector<double> corrected(measured.size());
  for (std::size_t i = 0; i < measured.size(); ++i) {
    corrected[i] = std::max(measured[i] - delta_min, 0.05 * measured[i]);
  }
  return corrected;
}

std::optional<std::vector<double>> feasible_delays(
    const DelayModel& model, const std::vector<double>& values) {
  try {
    return model(values);
  } catch (const ConvergenceError&) {
    ++util::RunCounters::local().fit_fallbacks;
  } catch (const ConfigError&) {
    ++util::RunCounters::local().fit_fallbacks;
  }
  return std::nullopt;
}

fit::NelderMeadResult nelder_mead_fit(const DelayModel& model,
                                      const std::vector<double>& seed,
                                      const std::vector<double>& corrected,
                                      int max_evaluations) {
  auto objective = [&](const std::vector<double>& log_x) {
    const auto x = fit::from_log_space(log_x);
    const auto achieved = feasible_delays(model, x);
    if (!achieved) return 1e6;
    double acc = 0.0;
    for (std::size_t i = 0; i < corrected.size(); ++i) {
      const double rel = ((*achieved)[i] - corrected[i]) / corrected[i];
      acc += rel * rel;
    }
    const double box = box_distance(x);
    return acc + kBoxWeight * (box * box);
  };
  fit::NelderMeadOptions nm;
  nm.max_evaluations = max_evaluations;
  nm.initial_step = 0.25;
  return fit::nelder_mead(objective, fit::to_log_space(seed), nm);
}

double rms_error(const std::vector<double>& achieved,
                 const std::vector<double>& measured) {
  double acc = 0.0;
  for (std::size_t i = 0; i < achieved.size(); ++i) {
    const double e = achieved[i] - measured[i];
    acc += e * e;
  }
  return std::sqrt(acc / static_cast<double>(achieved.size()));
}

FallbackTally::FallbackTally()
    : before_(util::RunCounters::local().fit_fallbacks) {}

int FallbackTally::swallowed() const {
  return static_cast<int>(util::RunCounters::local().fit_fallbacks - before_);
}

}  // namespace fit_pipeline

namespace {

constexpr double kLn2 = 0.6931471805599453;

// Flat target order: fall[0..n), rise[0..n), fall_all, rise_all.
std::vector<double> to_vector(const GateTargets& t) {
  std::vector<double> v;
  v.reserve(t.fall.size() + t.rise.size() + 2);
  v.insert(v.end(), t.fall.begin(), t.fall.end());
  v.insert(v.end(), t.rise.begin(), t.rise.end());
  v.push_back(t.fall_all);
  v.push_back(t.rise_all);
  return v;
}

void check_targets(const GateTargets& t) {
  const std::size_t n = t.fall.size();
  if (n < 2 || t.rise.size() != n) {
    throw ConfigError(
        "fit_gate_params: need per-input fall and rise targets of equal "
        "size >= 2");
  }
  for (double v : to_vector(t)) {
    if (!(v > 0.0)) {
      throw ConfigError("fit_gate_params: characteristic delays must be > 0");
    }
  }
}

GateParams params_from_vector(GateTopology topology, int n,
                              const std::vector<double>& v, double vdd,
                              double delta_min) {
  GateParams p;
  p.topology = topology;
  p.r_series.assign(v.begin(), v.begin() + n);
  p.r_parallel.assign(v.begin() + n, v.begin() + 2 * n);
  p.c_int = v[2 * n];
  p.c_out = v[2 * n + 1];
  p.vdd = vdd;
  p.delta_min = delta_min;
  return p;
}

}  // namespace

GateFitResult fit_gate_params(GateTopology topology,
                              const GateTargets& measured,
                              const FitOptions& options) {
  check_targets(measured);
  const fit_pipeline::FallbackTally tally;
  const int n = static_cast<int>(measured.fall.size());
  const auto measured_vec = to_vector(measured);

  // The ratio rule runs on the parallel-network direction: falling for
  // NOR-like, rising for NAND-like, against the slowest SIS delay.
  const bool nor_like = topology == GateTopology::kNorLike;
  const auto& sis = nor_like ? measured.fall : measured.rise;
  const double delta_min = fit_pipeline::choose_delta_min(
      options, measured_vec, *std::max_element(sis.begin(), sis.end()),
      nor_like ? measured.fall_all : measured.rise_all, n);
  const auto corrected = fit_pipeline::strip_delta_min(measured_vec, delta_min);

  // Seed from single-RC relations: the parallel device of input i sets its
  // own SIS delay (falling for NOR-like, rising for NAND-like); the series
  // chain total comes from the opposite direction, split evenly.
  const double c_out = 600e-18;
  const auto own = corrected.begin() + (nor_like ? 0 : n);
  const auto chain_dir = corrected.begin() + (nor_like ? n : 0);
  double chain_mean = 0.0;
  for (int i = 0; i < n; ++i) chain_mean += chain_dir[i];
  chain_mean /= n;
  const double chain_total = chain_mean / (kLn2 * c_out);
  std::vector<double> seed(2 * n + 2);
  for (int i = 0; i < n; ++i) {
    seed[i] = chain_total / n;
    seed[n + i] = own[i] / (kLn2 * c_out);
  }
  seed[2 * n] = 0.12 * c_out;
  seed[2 * n + 1] = c_out;

  const fit_pipeline::DelayModel model = [&](const std::vector<double>& x) {
    const GateModeTables tables(
        params_from_vector(topology, n, x, options.vdd, 0.0));
    return to_vector(gate_characteristic_delays(tables));
  };
  const auto nm_result = fit_pipeline::nelder_mead_fit(
      model, seed, corrected, options.nelder_mead_evaluations);

  GateFitResult result;
  result.params = params_from_vector(
      topology, n, fit::from_log_space(nm_result.x), options.vdd, delta_min);
  result.targets = measured;
  {
    GateParams raw = result.params;
    raw.delta_min = 0.0;
    result.achieved = gate_characteristic_delays(GateModeTables(raw));
    for (double& v : result.achieved.fall) v += delta_min;
    for (double& v : result.achieved.rise) v += delta_min;
    result.achieved.fall_all += delta_min;
    result.achieved.rise_all += delta_min;
  }
  result.objective = nm_result.f;
  result.evaluations = nm_result.evaluations;
  result.rms_error =
      fit_pipeline::rms_error(to_vector(result.achieved), measured_vec);
  result.swallowed_fallbacks = tally.swallowed();
  return result;
}

}  // namespace charlie::core
