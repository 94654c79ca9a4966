#include "util/name_index.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace charlie::util {
namespace {

// `prefix` followed by the decimal digits of `n`.
std::string numbered(std::string prefix, long n) {
  prefix += std::to_string(n);
  return prefix;
}

// Every name resolves to its id and back, and `index` holds nothing else.
void expect_consistent(const NameIndex& index,
                       const std::vector<std::string>& names) {
  ASSERT_EQ(index.size(), names.size());
  ASSERT_EQ(index.names(), names);
  for (std::size_t id = 0; id < names.size(); ++id) {
    ASSERT_EQ(index.find(names[id]), static_cast<int>(id)) << names[id];
    ASSERT_EQ(index.name(static_cast<int>(id)), names[id]);
  }
}

TEST(NameIndex, IdsAreInsertionOrder) {
  NameIndex index;
  EXPECT_TRUE(index.empty());
  const std::vector<std::string> names = {"zeta", "a", "n17", "mid", "b"};
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(index.insert(names[i]), static_cast<int>(i));
  }
  EXPECT_FALSE(index.empty());
  expect_consistent(index, names);
}

TEST(NameIndex, DuplicateReturnsMinusOneAndChangesNothing) {
  NameIndex index;
  const std::vector<std::string> names = {"x", "y", "z"};
  for (const auto& name : names) index.insert(name);
  for (const auto& name : names) {
    EXPECT_EQ(index.insert(name), -1) << name;
    expect_consistent(index, names);
  }
  // The next new name still gets the next id.
  EXPECT_EQ(index.insert("w"), 3);
}

TEST(NameIndex, AbsentNamesAndTheEmptyString) {
  NameIndex index;
  EXPECT_EQ(index.find("a"), -1);  // nothing allocated yet
  EXPECT_EQ(index.find(""), -1);
  index.insert("a");
  index.insert("ab");
  EXPECT_EQ(index.find(""), -1);
  EXPECT_EQ(index.find("b"), -1);
  EXPECT_EQ(index.find("abc"), -1);
  EXPECT_EQ(index.find("A"), -1);
  // The empty string is an ordinary name once inserted.
  EXPECT_EQ(index.insert(""), 2);
  EXPECT_EQ(index.find(""), 2);
  EXPECT_EQ(index.insert(""), -1);
  expect_consistent(index, {"a", "ab", ""});
}

TEST(NameIndex, LookupTakesViewsOfLargerStrings) {
  NameIndex index;
  const std::string text = "net_a net_b";
  index.insert(std::string_view(text).substr(0, 5));
  index.insert(std::string_view(text).substr(6, 5));
  EXPECT_EQ(index.find("net_a"), 0);
  EXPECT_EQ(index.find(std::string_view(text).substr(6)), 1);
  EXPECT_EQ(index.find(std::string_view(text).substr(0, 4)), -1);
}

// 100k generated names -- some long enough to leave the inline string
// buffer, with deliberate repeats -- grown from an empty table through
// many rehashes, checked against std::unordered_map after every insert
// batch.
TEST(NameIndex, GrowthThroughRehashesMatchesUnorderedMap) {
  NameIndex index;
  std::unordered_map<std::string, int> reference;
  std::vector<std::string> names;
  Rng rng(2024);
  constexpr int kNames = 100000;
  for (int i = 0; i < kNames; ++i) {
    std::string name =
        numbered("n", static_cast<long>(rng.uniform(0.0, 1.5e5)));
    if (i % 7 == 0) name += numbered("_with_a_long_suffix_", i % 97);
    const auto [it, fresh] =
        reference.try_emplace(name, static_cast<int>(names.size()));
    const int id = index.insert(name);
    if (fresh) {
      ASSERT_EQ(id, it->second) << name;
      names.push_back(name);
    } else {
      ASSERT_EQ(id, -1) << name;
    }
    if (i % 9973 == 0) expect_consistent(index, names);
  }
  expect_consistent(index, names);
  for (int i = 0; i < 1000; ++i) {
    const std::string absent = numbered("absent", i);
    EXPECT_EQ(index.find(absent), -1);
  }
}

TEST(NameIndex, ReserveKeepsIdsAndLookups) {
  NameIndex index;
  index.insert("p");
  index.insert("q");
  index.reserve(5000);
  expect_consistent(index, {"p", "q"});
  EXPECT_EQ(index.insert("r"), 2);
}

// Home slot of `name` in the index's smallest (16-slot) table: the
// Fibonacci hash of std::hash that NameIndex uses.
std::size_t home_slot_of_16(std::string_view name) {
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(std::hash<std::string_view>{}(name)) *
       0x9E3779B97F4A7C15ull) >>
      60);
}

// Names that all hash to the last of the 16 slots form one probe chain that
// wraps around the table's end. Seven of them fill the table as far as it
// goes before growing (under half full); lookups of present and absent
// names and duplicate rejection must walk the whole chain exactly, and the
// eighth name's rehash must place every chained name again.
TEST(NameIndex, HeavyProbingOnASmallTable) {
  std::vector<std::string> chained;
  std::vector<std::string> absent;
  for (int i = 0; chained.size() < 8 || absent.size() < 3; ++i) {
    std::string name = numbered("g", i);
    if (home_slot_of_16(name) != 15) continue;
    (chained.size() < 8 ? chained : absent).push_back(std::move(name));
  }
  NameIndex index;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < 7; ++i) {
    names.push_back(chained[i]);
    ASSERT_EQ(index.insert(names.back()), static_cast<int>(i));
    for (const auto& name : names) ASSERT_EQ(index.insert(name), -1) << name;
    expect_consistent(index, names);
    for (const auto& name : absent) EXPECT_EQ(index.find(name), -1) << name;
  }
  names.push_back(chained[7]);
  ASSERT_EQ(index.insert(names.back()), 7);
  expect_consistent(index, names);
  for (const auto& name : absent) EXPECT_EQ(index.find(name), -1) << name;
  EXPECT_EQ(index.find(""), -1);
}

}  // namespace
}  // namespace charlie::util
