// Model parametrization (paper Section V) of the NOR2.
//
// Given the six measured characteristic Charlie delays of a real gate, find
// (R1..R4, C_N, C_O) and the pure delay delta_min such that the hybrid
// model's characteristic delays match. Per the paper, a direct simultaneous
// match of delta_fall(-inf) and delta_fall(0) is impossible whenever their
// ratio exceeds (R3+R4)/R3 ~= 2, so delta_min is first chosen to restore a
// fittable ratio (18 ps for the paper's gate), then the R/C values are
// fitted by least squares on the delta_min-corrected targets.
//
// The six targets are the 2n+2 of the N-input fit for n = 2, so this runs
// the same pipeline (core/gate_parametrize.hpp: delta_min choice, target
// correction, log-space Nelder-Mead, RMS and fallback accounting). What is
// NOR2's own: the closed-form seed of eqs (8)-(9), the exact
// characteristic_delays_exact objective, and a Levenberg-Marquardt polish.
#pragma once

#include "core/charlie_delays.hpp"
#include "core/gate_parametrize.hpp"
#include "core/nor_params.hpp"

namespace charlie::core {

struct FitResult {
  NorParams params;               // includes the chosen delta_min
  CharacteristicDelays targets;   // what was asked for
  CharacteristicDelays achieved;  // what the fitted model produces
  double rms_error = 0.0;         // RMS over the six targets [s]
  double objective = 0.0;         // final least-squares value
  int evaluations = 0;
  // Infeasible objective evaluations (ConvergenceError from the exact
  // delay solve) swallowed as penalty values during this fit.
  int swallowed_fallbacks = 0;
};

/// Fit the hybrid model to measured characteristic delays.
/// Throws ConfigError when targets are non-positive or unorderable.
FitResult fit_nor_params(const CharacteristicDelays& measured,
                         const FitOptions& options = {});

/// Heuristic seed derived from the closed-form relations: R4 from eq (9),
/// R3 from eq (8), R1+R2 from the rising asymptote, nominal C_N/C_O split.
NorParams seed_from_targets(const CharacteristicDelays& corrected,
                            double vdd);

}  // namespace charlie::core
