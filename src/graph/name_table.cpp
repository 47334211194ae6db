#include "graph/name_table.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <stdexcept>

namespace p2prank::graph {

namespace {

constexpr std::size_t kMinSlots = 16;

std::uint64_t hash_of(std::string_view name) noexcept {
  return std::hash<std::string_view>{}(name);
}

std::uint32_t tag_of(std::uint64_t hash) noexcept {
  return static_cast<std::uint32_t>(hash >> 32);
}

/// Fewest slots (a power of two) that hold `names` at load <= 0.7.
std::size_t slots_for(std::size_t names) noexcept {
  return std::max(kMinSlots, std::bit_ceil((names * 10 + 6) / 7));
}

}  // namespace

std::size_t NameTable::slot_of(std::string_view name, std::uint64_t hash) const noexcept {
  const std::uint32_t tag = tag_of(hash);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash & mask;
  for (; slots_[i].id_plus_one != 0; i = (i + 1) & mask) {
    const Slot slot = slots_[i];
    if (slot.tag == tag && (*this)[slot.id_plus_one - 1] == name) break;
  }
  return i;
}

std::optional<std::uint32_t> NameTable::find(std::string_view name) const noexcept {
  if (slots_.empty()) return std::nullopt;
  const Slot slot = slots_[slot_of(name, hash_of(name))];
  if (slot.id_plus_one == 0) return std::nullopt;
  return slot.id_plus_one - 1;
}

std::pair<std::uint32_t, bool> NameTable::insert(std::string_view name) {
  if ((size() + 1) * 10 > slots_.size() * 7) {
    rehash(std::max(kMinSlots, slots_.size() * 2));
  }
  const std::uint64_t hash = hash_of(name);
  const std::size_t i = slot_of(name, hash);
  if (slots_[i].id_plus_one != 0) return {slots_[i].id_plus_one - 1, false};
  if (size() >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("NameTable: id space exhausted");
  }
  const auto id = static_cast<std::uint32_t>(size());
  arena_.append(name);
  ends_.push_back(arena_.size());
  slots_[i] = {tag_of(hash), id + 1};
  return {id, true};
}

void NameTable::reserve(std::size_t names, std::size_t bytes) {
  arena_.reserve(bytes);
  ends_.reserve(names);
  if (names * 10 > slots_.size() * 7) rehash(slots_for(names));
}

void NameTable::rehash(std::size_t capacity) {
  std::vector<Slot> slots(capacity);
  const std::size_t mask = capacity - 1;
  for (std::uint32_t id = 0; id < size(); ++id) {
    const std::uint64_t hash = hash_of((*this)[id]);
    std::size_t i = hash & mask;
    while (slots[i].id_plus_one != 0) i = (i + 1) & mask;
    slots[i] = {tag_of(hash), id + 1};
  }
  slots_ = std::move(slots);
}

}  // namespace p2prank::graph
