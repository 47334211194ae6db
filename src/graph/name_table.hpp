// Append-only table of distinct names: the identity layer behind page URLs
// and site names (web_graph.hpp).
//
// Names are stored back to back in one arena and addressed by one uint64
// end offset per id, so millions of URLs cost three flat arrays rather than
// a heap string and a hash node each. Lookup goes through an
// open-addressing index: a power-of-two array of (hash tag, id + 1) slots,
// probed linearly and kept at most 70% full. A slot holds an id, never a
// view, so growing the arena cannot leave it dangling and a copy of the
// table is a working table.
//
// The index hashes with std::hash<std::string_view>. It lives inside one
// process and nothing iterates it, so its slot order is never observable;
// whatever must agree across processes (partitioning) hashes names with
// util::stable_hash instead.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace p2prank::graph {

class NameTable {
 public:
  /// Ids are dense and follow insertion order.
  [[nodiscard]] std::size_t size() const noexcept { return ends_.size(); }

  /// The name with id `id` (< size()). The view lives until the table is
  /// appended to or destroyed.
  [[nodiscard]] std::string_view operator[](std::uint32_t id) const noexcept {
    const std::uint64_t begin = id == 0 ? 0 : ends_[id - 1];
    return {arena_.data() + begin, static_cast<std::size_t>(ends_[id] - begin)};
  }

  [[nodiscard]] std::optional<std::uint32_t> find(std::string_view name) const noexcept;

  /// Append `name` under the next id and return {id, true}, or return
  /// {existing id, false} and append nothing when the table holds it
  /// already. Throws std::length_error past 2^32 - 1 names.
  std::pair<std::uint32_t, bool> insert(std::string_view name);

  /// Size the arena for `bytes` name bytes and the index for `names` names,
  /// so inserting that many appends without regrowing.
  void reserve(std::size_t names, std::size_t bytes);

 private:
  struct Slot {
    std::uint32_t tag = 0;         ///< upper 32 bits of the name's hash
    std::uint32_t id_plus_one = 0;  ///< 0: empty
  };

  /// Index of the slot holding `name`, or of the empty slot where it
  /// would go. The index must have slots.
  [[nodiscard]] std::size_t slot_of(std::string_view name,
                                    std::uint64_t hash) const noexcept;

  /// Rebuild the index with `capacity` slots (a power of two).
  void rehash(std::size_t capacity);

  std::string arena_;
  std::vector<std::uint64_t> ends_;  // name i spans [ends_[i-1], ends_[i])
  std::vector<Slot> slots_;
};

}  // namespace p2prank::graph
