#include "util/name_index.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>

#include "util/error.hpp"

namespace charlie::util {

namespace {

constexpr std::size_t kMinSlots = 16;

// Slots needed to hold n names at most half full.
std::size_t slots_for(std::size_t n) {
  return std::max(kMinSlots, std::bit_ceil(2 * n + 1));
}

}  // namespace

void NameIndex::reserve(std::size_t n) {
  names_.reserve(n);
  if (slots_for(n) > slots_.size()) rehash(slots_for(n));
}

std::size_t NameIndex::slot_of(std::string_view name) const {
  // Fibonacci hashing takes the home slot from the product's high bits, so
  // every bit of the hash reaches the table.
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = static_cast<std::size_t>(
      (static_cast<std::uint64_t>(std::hash<std::string_view>{}(name)) *
       0x9E3779B97F4A7C15ull) >>
      shift_);
  while (true) {
    const std::int32_t id = slots_[s];
    if (id < 0 || names_[static_cast<std::size_t>(id)] == name) return s;
    s = (s + 1) & mask;
  }
}

void NameIndex::rehash(std::size_t n_slots) {
  slots_.assign(n_slots, -1);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(n_slots));
  for (std::size_t id = 0; id < names_.size(); ++id) {
    slots_[slot_of(names_[id])] = static_cast<std::int32_t>(id);
  }
}

int NameIndex::find(std::string_view name) const {
  if (slots_.empty()) return -1;
  return slots_[slot_of(name)];
}

int NameIndex::insert(std::string_view name) {
  if (slots_.empty()) rehash(kMinSlots);
  std::size_t s = slot_of(name);
  if (slots_[s] >= 0) return -1;
  CHARLIE_ASSERT(names_.size() <
                 static_cast<std::size_t>(std::numeric_limits<int>::max()));
  if (slots_for(names_.size() + 1) > slots_.size()) {
    rehash(slots_for(names_.size() + 1));
    s = slot_of(name);
  }
  const auto id = static_cast<std::int32_t>(names_.size());
  names_.emplace_back(name);
  slots_[s] = id;
  return id;
}

}  // namespace charlie::util
