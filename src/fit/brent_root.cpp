#include "fit/brent_root.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace charlie::fit {

double brent_root(const ScalarFn& f, double a, double b,
                  const RootOptions& opts) {
  double fa = f(a);
  double fb = f(b);
  CHARLIE_ASSERT_MSG(fa * fb <= 0.0, "brent_root: no sign change in bracket");
  if (fa == 0.0) return a;
  if (fb == 0.0) return b;

  double c = a;
  double fc = fa;
  double d = b - a;
  double e = d;

  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    if (std::fabs(fc) < std::fabs(fb)) {
      a = b;
      b = c;
      c = a;
      fa = fb;
      fb = fc;
      fc = fa;
    }
    const double tol =
        2.0 * opts.rtol * std::fabs(b) + 0.5 * opts.xtol;
    const double m = 0.5 * (c - b);
    if (std::fabs(m) <= tol || fb == 0.0) {
      return b;
    }
    if (std::fabs(e) < tol || std::fabs(fa) <= std::fabs(fb)) {
      d = m;  // bisection
      e = m;
    } else {
      double p;
      double q;
      const double s = fb / fa;
      if (a == c) {
        // Secant step.
        p = 2.0 * m * s;
        q = 1.0 - s;
      } else {
        // Inverse quadratic interpolation.
        const double q1 = fa / fc;
        const double r = fb / fc;
        p = s * (2.0 * m * q1 * (q1 - r) - (b - a) * (r - 1.0));
        q = (q1 - 1.0) * (r - 1.0) * (s - 1.0);
      }
      if (p > 0.0) {
        q = -q;
      } else {
        p = -p;
      }
      if (2.0 * p < std::min(3.0 * m * q - std::fabs(tol * q),
                             std::fabs(e * q))) {
        e = d;
        d = p / q;
      } else {
        d = m;  // fall back to bisection
        e = m;
      }
    }
    a = b;
    fa = fb;
    b += (std::fabs(d) > tol) ? d : std::copysign(tol, m);
    fb = f(b);
    if ((fb > 0.0) == (fc > 0.0)) {
      c = a;
      fc = fa;
      e = b - a;
      d = e;
    }
  }
  throw charlie::ConvergenceError("brent_root: max iterations exceeded");
}

}  // namespace charlie::fit
