#include <gtest/gtest.h>

#include <deque>
#include <random>

#include "sim/channel.hpp"

namespace charlie::sim {
namespace {

TEST(PendingFifo, KeepsOrderAcrossGrowth) {
  PendingFifo fifo;
  EXPECT_TRUE(fifo.empty());
  for (int i = 0; i < 9; ++i) {
    fifo.push_back({static_cast<double>(i), i % 2 == 0});
  }
  for (int i = 0; i < 9; ++i) {
    ASSERT_FALSE(fifo.empty());
    EXPECT_EQ(fifo.front().t, static_cast<double>(i));
    EXPECT_EQ(fifo.front().value, i % 2 == 0);
    fifo.pop_front();
  }
  EXPECT_TRUE(fifo.empty());
}

TEST(PendingFifo, ClearEmptiesTheQueue) {
  PendingFifo fifo;
  fifo.push_back({1.0, true});
  fifo.push_back({2.0, false});
  fifo.push_back({3.0, true});
  fifo.clear();
  EXPECT_TRUE(fifo.empty());
  fifo.push_back({4.0, false});
  EXPECT_EQ(fifo.front().t, 4.0);
}

// Interleaved pushes and pops move the head through the buffer, drop the
// consumed prefix and reuse the drained buffer; a std::deque is the
// reference.
TEST(PendingFifo, RandomizedAgainstDeque) {
  PendingFifo fifo;
  std::deque<PendingEvent> reference;
  std::mt19937_64 rng(99);
  double t = 0.0;
  for (int step = 0; step < 20000; ++step) {
    // Drift the depth up and down so the queue spans 0..~40 events.
    const bool grow_phase = (step / 500) % 2 == 0;
    const bool push = reference.empty() || rng() % 8 < (grow_phase ? 5u : 3u);
    if (push) {
      t += 1.0;
      const PendingEvent e{t, (rng() & 1) != 0};
      fifo.push_back(e);
      reference.push_back(e);
    } else {
      ASSERT_FALSE(fifo.empty());
      EXPECT_EQ(fifo.front().t, reference.front().t);
      EXPECT_EQ(fifo.front().value, reference.front().value);
      fifo.pop_front();
      reference.pop_front();
    }
    ASSERT_EQ(fifo.empty(), reference.empty());
  }
}

}  // namespace
}  // namespace charlie::sim
