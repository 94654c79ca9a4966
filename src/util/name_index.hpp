// Insertion-ordered name interning: name <-> dense integer id.
//
// NameIndex gives each distinct name the id it was inserted with (0, 1, 2,
// ... in insertion order) and maps ids back to names. The names live in one
// vector indexed by id; lookup goes through an open-addressing table of
// int32 ids with linear probing, kept at most half full. A table of n names
// therefore costs the name vector plus one 4-byte slot array -- no heap
// node per name, unlike std::unordered_map, and short names stay in their
// strings' inline buffers. Ids never depend on slot order, so nothing
// derived from them does either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace charlie::util {

class NameIndex {
 public:
  /// Size the name vector and the slot table for `n` names, so inserting
  /// them never rehashes.
  void reserve(std::size_t n);

  /// Intern `name` under the next id and return it; a name already present
  /// returns -1 and leaves the index unchanged.
  int insert(std::string_view name);

  /// Id of `name`, or -1 if absent.
  int find(std::string_view name) const;

  const std::string& name(int id) const {
    return names_[static_cast<std::size_t>(id)];
  }
  /// Every name, by id.
  const std::vector<std::string>& names() const { return names_; }
  std::size_t size() const { return names_.size(); }
  bool empty() const { return names_.empty(); }

 private:
  /// Slot holding `name`, or the empty slot where it would go. Requires a
  /// table with at least one empty slot.
  std::size_t slot_of(std::string_view name) const;
  void rehash(std::size_t n_slots);

  std::vector<std::string> names_;  // by id
  std::vector<std::int32_t> slots_;  // ids; -1 empty; power-of-two size
  unsigned shift_ = 64;              // 64 - log2(slots_.size())
};

}  // namespace charlie::util
