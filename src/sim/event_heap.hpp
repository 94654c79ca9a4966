// Indexed 4-ary min-heap of pending gate events, keyed by slot (gate).
//
// The event-driven engine keeps at most one scheduled firing per gate (the
// channel contract exposes one pending event at a time). A lazy-deletion
// priority queue therefore wastes work: every reschedule leaves a stale
// entry behind that must be popped, checked, and discarded later. The
// indexed heap gives each gate one slot and moves it on reschedule
// (decrease/increase-key), so superseded events never enter the queue and
// every pop is live. All operations are O(log n); cancel and schedule of
// an absent slot are O(log n) too.
//
// Layout: the (t, seq, slot, value) nodes sit inline in the heap array, so
// a comparison reads the node itself rather than chasing a slot index, and
// the four children of a node are adjacent -- a sift touches about half as
// many levels as a binary heap's, each one or two cache lines. Pop order
// is the strict (t, seq) order whatever the array layout, because every
// schedule carries a fresh sequence number.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace charlie::sim {

class EventHeap {
 public:
  struct Entry {
    double t = 0.0;
    long seq = 0;  // FIFO tie-break for equal times (later schedule loses)
    std::uint32_t slot = 0;
    bool value = false;
  };

  /// Drop all events and size the heap for slots [0, n_slots).
  void reset(std::size_t n_slots);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  bool contains(std::size_t slot) const { return pos_[slot] >= 0; }

  /// Insert `slot` or move its key; the heap re-sorts in either direction.
  void schedule(std::size_t slot, double t, long seq, bool value);

  /// Remove `slot`'s event if present (no-op otherwise).
  void cancel(std::size_t slot);

  /// Slot and payload of the earliest event. Requires !empty().
  std::size_t top_slot() const { return heap_[0].slot; }
  const Entry& top() const { return heap_[0]; }

  /// Remove the earliest event. Requires !empty().
  void pop();

 private:
  static constexpr std::size_t kArity = 4;

  static bool before(const Entry& a, const Entry& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }
  void place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    pos_[e.slot] = static_cast<std::int32_t>(i);
  }
  /// Put `e` into the hole at position i, moving it up or down as needed.
  void fill_hole(std::size_t i, const Entry& e);
  void sift_up(std::size_t i, const Entry& e);
  void sift_down(std::size_t i, const Entry& e);

  std::vector<Entry> heap_;         // the heap of nodes
  std::vector<std::int32_t> pos_;   // slot -> heap position, -1 when absent
};

}  // namespace charlie::sim
