#include "support/rk45.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace charlie::ode {
namespace {

// Dormand-Prince 5(4) tableau.
constexpr double kC2 = 1.0 / 5.0;
constexpr double kC3 = 3.0 / 10.0;
constexpr double kC4 = 4.0 / 5.0;
constexpr double kC5 = 8.0 / 9.0;

constexpr double kA21 = 1.0 / 5.0;
constexpr double kA31 = 3.0 / 40.0, kA32 = 9.0 / 40.0;
constexpr double kA41 = 44.0 / 45.0, kA42 = -56.0 / 15.0, kA43 = 32.0 / 9.0;
constexpr double kA51 = 19372.0 / 6561.0, kA52 = -25360.0 / 2187.0,
                 kA53 = 64448.0 / 6561.0, kA54 = -212.0 / 729.0;
constexpr double kA61 = 9017.0 / 3168.0, kA62 = -355.0 / 33.0,
                 kA63 = 46732.0 / 5247.0, kA64 = 49.0 / 176.0,
                 kA65 = -5103.0 / 18656.0;
// 5th-order solution weights.
constexpr double kB1 = 35.0 / 384.0, kB3 = 500.0 / 1113.0,
                 kB4 = 125.0 / 192.0, kB5 = -2187.0 / 6784.0,
                 kB6 = 11.0 / 84.0;
// Embedded 4th-order weights.
constexpr double kE1 = 5179.0 / 57600.0, kE3 = 7571.0 / 16695.0,
                 kE4 = 393.0 / 640.0, kE5 = -92097.0 / 339200.0,
                 kE6 = 187.0 / 2100.0, kE7 = 1.0 / 40.0;

}  // namespace

Rk45Result integrate_rk45(const OdeRhs& f, std::span<const double> x0,
                          double t0, double t1, const Rk45Options& opts) {
  CHARLIE_ASSERT_MSG(t1 > t0, "rk45: t1 must exceed t0");
  const std::size_t n = x0.size();
  CHARLIE_ASSERT_MSG(n > 0, "rk45: empty state");

  const double span = t1 - t0;
  const double h_min = opts.h_min > 0.0 ? opts.h_min : span * 1e-14;
  const double h_max = opts.h_max > 0.0 ? opts.h_max : span;
  double h = opts.h_initial > 0.0 ? opts.h_initial : span / 100.0;
  h = std::min(h, h_max);

  std::vector<double> x(x0.begin(), x0.end());
  std::vector<double> k1(n), k2(n), k3(n), k4(n), k5(n), k6(n), k7(n);
  std::vector<double> xt(n), x5(n), err(n);

  Rk45Result result;
  if (opts.record_trajectory) {
    result.t.push_back(t0);
    result.x.push_back(x);
  }

  double t = t0;
  f(t, x, k1);  // FSAL: k1 of the next step reuses k7 of the previous one
  int steps = 0;
  while (t < t1) {
    if (++steps > opts.max_steps) {
      throw ConvergenceError("rk45: exceeded max_steps");
    }
    h = std::min(h, t1 - t);
    if (h < h_min) {
      throw ConvergenceError("rk45: step size underflow");
    }

    auto stage = [&](std::vector<double>& k, double c,
                     const auto&... weighted) {
      for (std::size_t i = 0; i < n; ++i) {
        double acc = x[i];
        ((acc += h * weighted.first * (*weighted.second)[i]), ...);
        xt[i] = acc;
      }
      f(t + c * h, xt, k);
    };
    stage(k2, kC2, std::pair{kA21, &k1});
    stage(k3, kC3, std::pair{kA31, &k1}, std::pair{kA32, &k2});
    stage(k4, kC4, std::pair{kA41, &k1}, std::pair{kA42, &k2},
          std::pair{kA43, &k3});
    stage(k5, kC5, std::pair{kA51, &k1}, std::pair{kA52, &k2},
          std::pair{kA53, &k3}, std::pair{kA54, &k4});
    stage(k6, 1.0, std::pair{kA61, &k1}, std::pair{kA62, &k2},
          std::pair{kA63, &k3}, std::pair{kA64, &k4}, std::pair{kA65, &k5});

    for (std::size_t i = 0; i < n; ++i) {
      x5[i] = x[i] + h * (kB1 * k1[i] + kB3 * k3[i] + kB4 * k4[i] +
                          kB5 * k5[i] + kB6 * k6[i]);
    }
    f(t + h, x5, k7);

    // Error estimate: 5th-order minus embedded 4th-order.
    double err_norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double x4 = x[i] + h * (kE1 * k1[i] + kE3 * k3[i] + kE4 * k4[i] +
                                    kE5 * k5[i] + kE6 * k6[i] + kE7 * k7[i]);
      const double scale =
          opts.atol + opts.rtol * std::max(std::fabs(x[i]), std::fabs(x5[i]));
      const double e = (x5[i] - x4) / scale;
      err_norm += e * e;
    }
    err_norm = std::sqrt(err_norm / static_cast<double>(n));

    if (err_norm <= 1.0) {
      t += h;
      x.swap(x5);
      k1.swap(k7);  // FSAL
      ++result.n_accepted;
      if (opts.record_trajectory) {
        result.t.push_back(t);
        result.x.push_back(x);
      }
    } else {
      ++result.n_rejected;
    }

    const double safety = 0.9;
    const double factor =
        err_norm > 0.0 ? safety * std::pow(err_norm, -0.2) : 5.0;
    h *= std::clamp(factor, 0.2, 5.0);
    h = std::min(h, h_max);
  }

  result.x_final = std::move(x);
  return result;
}

}  // namespace charlie::ode
