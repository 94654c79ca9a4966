// The event channels' side of core's crossing search: HybridGateChannel and
// WireChannel each hold a core::ModeSegment plus a CrossingQueue
// (sim/channel.hpp); the helpers below turn the segment's crossings into
// the queue's output events.
#pragma once

#include <optional>

#include "core/two_exp_crossing.hpp"
#include "sim/channel.hpp"

namespace charlie::sim {

// Re-exported for the sim-side callers of the search (the seam probes).
using core::two_exp_expand;
using core::two_exp_next_crossing;
using core::TwoExpVo;

/// The segment's first output crossing at or after t_from, as an event.
inline std::optional<PendingEvent> next_crossing_event(
    const core::ModeSegment& segment, double t_from) {
  const auto c = segment.next_crossing(t_from);
  return c ? std::optional(PendingEvent{c->t, c->rising}) : std::nullopt;
}

/// An input takes effect at `te`: commit the live crossing of `queue` if it
/// lies at or before te, together with every further crossing of the
/// segment up to te (a non-monotone output can cross more than once per
/// mode; on_fire would have found them one at a time).
inline void commit_crossings(const core::ModeSegment& segment,
                             CrossingQueue& queue, double te) {
  std::optional<double> last = queue.commit_live(te);
  while (last.has_value()) {
    const auto extra = next_crossing_event(segment, *last + 1e-18);
    if (!extra.has_value() || extra->t > te) break;
    queue.commit(*extra);
    last = extra->t;
  }
}

}  // namespace charlie::sim
