// Scalar root finding (Brent's method).
//
// Used by the core library to locate output threshold crossings
// V_O(t) = VDD/2 on the closed-form mode trajectories.
#pragma once

#include <functional>

namespace charlie::fit {

using ScalarFn = std::function<double(double)>;

struct RootOptions {
  double xtol = 1e-18;   // absolute tolerance on the root location
  double rtol = 1e-14;   // relative tolerance on the root location
  int max_iterations = 200;
};

/// Root of `f` in [a, b]; requires sign change f(a)*f(b) <= 0.
/// Throws ConvergenceError when iterations are exhausted and AssertionError
/// when the bracket is invalid.
double brent_root(const ScalarFn& f, double a, double b,
                  const RootOptions& opts = {});

}  // namespace charlie::fit
