// Dormand-Prince RK45 adaptive integrator for the tests.
//
// Serves as an independent numerical cross-check of the closed-form mode
// solutions (replacing the paper's MATLAB validation) and of the reduced
// interconnect systems. Nothing in the libraries uses it.
#pragma once

#include <functional>
#include <span>
#include <vector>

namespace charlie::ode {

/// Right-hand side: fills dxdt given (t, x). Sizes always match x0.
using OdeRhs =
    std::function<void(double t, std::span<const double> x, std::span<double> dxdt)>;

struct Rk45Options {
  double rtol = 1e-9;
  double atol = 1e-12;
  double h_initial = 0.0;  // 0 = auto from the interval
  double h_min = 0.0;      // 0 = (t1-t0) * 1e-14
  double h_max = 0.0;      // 0 = t1-t0
  int max_steps = 1'000'000;
  bool record_trajectory = false;  // keep all accepted (t, x) pairs
};

struct Rk45Result {
  std::vector<double> x_final;
  int n_accepted = 0;
  int n_rejected = 0;
  // Populated only when record_trajectory is set.
  std::vector<double> t;
  std::vector<std::vector<double>> x;
};

/// Integrate x' = f(t, x) from t0 to t1 (t1 > t0).
/// Throws ConvergenceError if the step count limit is exceeded or the step
/// size underflows.
Rk45Result integrate_rk45(const OdeRhs& f, std::span<const double> x0,
                          double t0, double t1, const Rk45Options& opts = {});

}  // namespace charlie::ode
