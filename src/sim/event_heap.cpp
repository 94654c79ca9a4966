#include "sim/event_heap.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace charlie::sim {

void EventHeap::reset(std::size_t n_slots) {
  CHARLIE_ASSERT(n_slots <=
                 static_cast<std::size_t>(
                     std::numeric_limits<std::int32_t>::max()));
  pos_.assign(n_slots, -1);
  heap_.clear();
  heap_.reserve(n_slots);
}

void EventHeap::schedule(std::size_t slot, double t, long seq, bool value) {
  CHARLIE_ASSERT(slot < pos_.size());
  const Entry e{t, seq, static_cast<std::uint32_t>(slot), value};
  if (pos_[slot] < 0) {
    heap_.emplace_back();
    sift_up(heap_.size() - 1, e);
    return;
  }
  fill_hole(static_cast<std::size_t>(pos_[slot]), e);
}

void EventHeap::cancel(std::size_t slot) {
  CHARLIE_ASSERT(slot < pos_.size());
  if (pos_[slot] < 0) return;
  const auto i = static_cast<std::size_t>(pos_[slot]);
  pos_[slot] = -1;
  const Entry moved = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // removed the last element
  fill_hole(i, moved);
}

void EventHeap::pop() {
  CHARLIE_ASSERT(!heap_.empty());
  pos_[heap_[0].slot] = -1;
  const Entry moved = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, moved);
}

void EventHeap::fill_hole(std::size_t i, const Entry& e) {
  if (i > 0 && before(e, heap_[(i - 1) / kArity])) {
    sift_up(i, e);
  } else {
    sift_down(i, e);
  }
}

void EventHeap::sift_up(std::size_t i, const Entry& e) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

void EventHeap::sift_down(std::size_t i, const Entry& e) {
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, e);
}

}  // namespace charlie::sim
