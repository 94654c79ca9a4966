// The shared event bookkeeping of the crossing channels: sim::CrossingQueue
// (committed FIFO + live crossing + output level) and the non-finite guard
// of core::ModeSegment.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "sim/channel.hpp"
#include "sim/two_exp_crossing.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "wire/wire_params.hpp"
#include "wire/wire_tables.hpp"

namespace charlie::sim {
namespace {

TEST(CrossingQueue, CommitsOnlyCrossingsUpToTheEffectiveTime) {
  CrossingQueue q;
  q.reset(true);
  EXPECT_TRUE(q.output());
  EXPECT_FALSE(q.pending().has_value());
  EXPECT_FALSE(q.commit_live(1.0).has_value());

  // A live crossing after te is withdrawn.
  q.set_live(PendingEvent{2.0, false});
  EXPECT_FALSE(q.commit_live(1.5).has_value());
  EXPECT_FALSE(q.pending().has_value());

  // One at or before te is committed and stays pending across a new live
  // crossing, which only shows once the committed ones have fired.
  q.set_live(PendingEvent{2.0, false});
  const auto committed = q.commit_live(2.0);
  ASSERT_TRUE(committed.has_value());
  EXPECT_EQ(*committed, 2.0);
  q.commit(PendingEvent{2.5, true});
  q.set_live(PendingEvent{3.0, false});
  EXPECT_EQ(q.pending()->t, 2.0);
  EXPECT_FALSE(q.fire(*q.pending()));
  EXPECT_FALSE(q.output());
  EXPECT_EQ(q.pending()->t, 2.5);
  EXPECT_FALSE(q.fire(*q.pending()));
  EXPECT_TRUE(q.output());
  EXPECT_EQ(q.pending()->t, 3.0);
  EXPECT_TRUE(q.fire(*q.pending()));  // the live crossing fired
  EXPECT_FALSE(q.output());
  EXPECT_FALSE(q.pending().has_value());
}

TEST(ModeSegment, NonFiniteStateFailsTheModeSwitch) {
  // The guard lives in the shared segment, so wires have it too.
  const auto tables =
      wire::WireModeTables::make(wire::WireParams::reference());
  core::ModeSegment seg;
  const core::ModeTable& low = tables->drive_table(false);
  seg.bind(low, tables->vth(), tables->horizon());
  seg.reset(0.0, low.steady, low);
  const long before = util::RunCounters::local().nonfinite_guard_trips;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  try {
    seg.enter(1e-9, {0.0, nan}, tables->drive_table(true), "wire channel");
    ADD_FAILURE() << "a non-finite state entered the segment";
  } catch (const ConvergenceError& e) {
    // The message names the channel kind, so a failed run says whether a
    // gate or a wire went non-finite.
    EXPECT_EQ(std::string(e.what()),
              "wire channel: non-finite analog state at a mode switch");
  }
  EXPECT_EQ(util::RunCounters::local().nonfinite_guard_trips, before + 1);
  EXPECT_EQ(seg.t_ref(), 0.0);  // the failed switch changed nothing
}

}  // namespace
}  // namespace charlie::sim
