#include "support/involution.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/math.hpp"

namespace charlie::sim {

InvolutionCheck check_involution(const DelayFunction& delta_up,
                                 const DelayFunction& delta_down,
                                 double t_lo, double t_hi, int n) {
  CHARLIE_ASSERT(n >= 2);
  InvolutionCheck result;
  for (double t : math::linspace(t_lo, t_hi, static_cast<std::size_t>(n))) {
    const auto up = delta_up(t);
    if (!up.has_value()) {
      ++result.points_cancelled;
      continue;
    }
    const auto down = delta_down(-*up);
    if (!down.has_value()) {
      ++result.points_cancelled;
      continue;
    }
    const double roundtrip = -*down;
    result.max_abs_error =
        std::max(result.max_abs_error, std::fabs(roundtrip - t));
    ++result.points_checked;
  }
  return result;
}

}  // namespace charlie::sim
