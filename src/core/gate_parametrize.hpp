// Parametrization of the generalized N-input hybrid gate (the Section V
// workflow for NOR3/NAND2/NAND3 and beyond), and the pipeline steps the
// NOR2 fit (core/parametrize.hpp) runs on top of.
//
// Given measured characteristic delays of a real gate -- per-input
// single-input-switching delays plus the two simultaneous-switching
// extremes -- find per-input series/parallel resistances and the two node
// capacitances such that the hybrid model reproduces them. A pure delay
// delta_min is first chosen so the measured simultaneous-switching speed-up
// ratio becomes achievable by the RC network (an n-strong parallel pull can
// speed up at most n-fold), then the R/C values are fitted by least squares
// in log space on the delta_min-corrected targets.
//
// The two fits apply that ratio rule to different delays:
//   * fit_gate_params: the slowest single-input delay in the parallel
//     network's direction (falling for NOR-like, rising for NAND-like)
//     against the simultaneous one;
//   * fit_nor_params: the paper's Section V rule, fall(-inf) against
//     fall(0).
// They stay apart because the N-input rule moves the paper's numbers: on
// Table I's own characteristic delays it gives delta_min = 16.98 ps against
// 17.20 ps, and the NOR2 fit then lands C_O * R4 5.7% from Table I (4.3%
// under the paper's rule), outside the 5% that
// PaperFit.Table1LikeParametersRecoveredFromPaperTargets allows.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/gate_delay.hpp"
#include "core/gate_params.hpp"
#include "fit/nelder_mead.hpp"

namespace charlie::core {

/// Measured characteristic delays of an n-input gate (all include whatever
/// pure delay the substrate exhibits; the fit strips delta_min itself).
using GateTargets = GateSisDelays;

/// Options of both fits, fit_gate_params and fit_nor_params.
struct FitOptions {
  double vdd = 0.8;
  // >= 0: pin delta_min to this value (e.g. 0 for the paper's "HM without
  // pure delay" variant). Like every delta_min the fit chooses, it is still
  // capped at 0.9x the smallest measured target so the corrected targets
  // stay positive; check the fitted params for the value actually used.
  double forced_delta_min = -1.0;
  int nelder_mead_evaluations = 4000;
};

struct GateFitResult {
  GateParams params;     // includes the chosen delta_min
  GateTargets targets;   // what was asked for
  GateTargets achieved;  // what the fitted model produces (incl. delta_min)
  double rms_error = 0.0;  // RMS over all 2n+2 targets [s]
  double objective = 0.0;
  int evaluations = 0;
  // Infeasible objective evaluations (ConvergenceError from the delay
  // solve) swallowed as penalty values during this fit.
  int swallowed_fallbacks = 0;
};

/// Fit the generalized hybrid model to measured characteristic delays.
/// Throws ConfigError when targets are non-positive or inconsistent.
GateFitResult fit_gate_params(GateTopology topology,
                              const GateTargets& measured,
                              const FitOptions& options = {});

/// The steps both fits share. Targets travel as one flat vector in the
/// caller's order; the fitted values as the flat vector
/// [R..., C_int, C_out] (for NOR2: R1..R4, C_N, C_O).
namespace fit_pipeline {

/// The plausibility box of the fitted values: transistor on-resistances of
/// kOhms to a few hundred kOhms, node capacitances of attofarads to
/// femtofarads. It is soft: the objective adds kBoxWeight times the squared
/// box_distance. Without it the delta_min = 0 fit drifts to MOhm/1-aF
/// corners whose stiff spectra are numerically hostile and physically
/// meaningless.
struct PlausibleRange {
  double lo = 0.0;
  double hi = 0.0;
};
inline constexpr PlausibleRange kResistanceBox{1e3, 400e3};     // [ohm]
inline constexpr PlausibleRange kInternalCapBox{5e-18, 5e-15};  // [farad]
inline constexpr PlausibleRange kOutputCapBox{50e-18, 50e-15};  // [farad]
inline constexpr double kBoxWeight = 0.1;

/// Summed log-distance of [R..., C_int, C_out] outside the box, 0 inside.
double box_distance(const std::vector<double>& values);

/// delta_min: options.forced_delta_min when set, else the paper's ratio
/// rule -- n parallel devices speed the simultaneous transition up at most
/// n-fold over the single-input one (`sis`). Either is capped at 0.9x the
/// smallest measured target.
double choose_delta_min(const FitOptions& options,
                        const std::vector<double>& measured, double sis,
                        double simultaneous, int n_inputs);

/// Targets with the pure delay stripped, floored at 5% of the measured
/// value so a large delta_min can never push one negative.
std::vector<double> strip_delta_min(const std::vector<double>& measured,
                                    double delta_min);

/// The model's raw (delta_min-free) delays for the fitted values, in the
/// targets' order.
using DelayModel =
    std::function<std::vector<double>(const std::vector<double>& values)>;

/// model(values), or nullopt when the values sit in an infeasible corner:
/// the delay solve throws ConvergenceError, or a log-space step underflowed
/// a value to 0 and validation throws ConfigError. Each such evaluation
/// counts as one util::RunCounters::fit_fallbacks; anything else
/// (AssertionError, bad_alloc) is a real bug and propagates.
std::optional<std::vector<double>> feasible_delays(
    const DelayModel& model, const std::vector<double>& values);

/// Nelder-Mead in log space from `seed`, minimizing the squared relative
/// mismatch of model(values) against `corrected` plus kBoxWeight times the
/// squared box_distance; an infeasible corner scores 1e6. Returns log-space
/// values.
fit::NelderMeadResult nelder_mead_fit(const DelayModel& model,
                                      const std::vector<double>& seed,
                                      const std::vector<double>& corrected,
                                      int max_evaluations);

/// RMS of achieved - measured over all targets [s].
double rms_error(const std::vector<double>& achieved,
                 const std::vector<double>& measured);

/// The fit_fallbacks this thread swallowed since construction.
class FallbackTally {
 public:
  FallbackTally();
  int swallowed() const;

 private:
  long before_;
};

}  // namespace fit_pipeline
}  // namespace charlie::core
