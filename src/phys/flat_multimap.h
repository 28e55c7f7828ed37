// Flat, insertion-ordered multimap: the build table of the physical hash
// join. It maps a TermId key to the positions 0..n-1 under which it was
// inserted, in ascending (insertion) order — the same order the hash
// operator's former per-key bucket vectors held, so the join's match-pair
// set and its order within a key are unchanged.
//
// Build() makes two linear passes and no per-key allocation. Pass one
// runs the keys through an open-addressing table (linear probing, load
// factor <= 1/2) that assigns each distinct key a dense group id and
// counts the group; prefix sums over the counts give every group a
// contiguous range, and pass two places the positions into it. Every array
// is allocated through the caller's obs::CountingAllocator, so the query's
// MemoryAccount sees the table's exact bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/resource_tracker.h"
#include "rdf/term.h"

namespace shapestats::phys {

class FlatMultimap {
 public:
  /// `account` may be null (no accounting).
  explicit FlatMultimap(obs::MemoryAccount* account = nullptr)
      : slots_(obs::CountingAllocator<Slot>(account)),
        offsets_(obs::CountingAllocator<uint32_t>(account)),
        values_(obs::CountingAllocator<uint32_t>(account)) {}

  /// Builds the table over the keys key_at(0) .. key_at(n-1), replacing
  /// any previous contents. `stop()` runs once per key in the first pass,
  /// before the key is inserted; when it returns true the build is
  /// abandoned, the table is left empty and Build returns false.
  template <typename KeyAt, typename Stop>
  bool Build(size_t n, KeyAt key_at, Stop stop);

  /// The positions inserted under `key`, ascending; empty when absent.
  std::span<const uint32_t> Find(rdf::TermId key) const {
    if (slots_.empty()) return {};
    for (size_t s = HomeSlot(key, slots_.size());; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.group == kEmpty) return {};
      if (slot.key == key) {
        const uint32_t lo = offsets_[slot.group];
        return {values_.data() + lo, offsets_[slot.group + 1] - lo};
      }
    }
  }

  /// Distinct keys in the table.
  size_t num_groups() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Slots in the open-addressing table (a power of two, >= 2 per key).
  size_t capacity() const { return slots_.size(); }

  /// The slot a key's probe sequence starts at in a table of `capacity`
  /// slots (Fibonacci hashing). Exposed so tests can construct keys that
  /// collide.
  static size_t HomeSlot(rdf::TermId key, size_t capacity) {
    return static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> 32) &
           (capacity - 1);
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  struct Slot {
    rdf::TermId key;
    uint32_t group;  // kEmpty when the slot is free
  };

  template <typename T>
  using Counted = std::vector<T, obs::CountingAllocator<T>>;

  void Clear() {
    slots_.clear();
    offsets_.clear();
    values_.clear();
    mask_ = 0;
  }

  Counted<Slot> slots_;
  size_t mask_ = 0;  // capacity - 1
  // Group g owns values_[offsets_[g] .. offsets_[g + 1]).
  Counted<uint32_t> offsets_;
  Counted<uint32_t> values_;
};

template <typename KeyAt, typename Stop>
bool FlatMultimap::Build(size_t n, KeyAt key_at, Stop stop) {
  Clear();
  size_t capacity = 16;
  while (capacity < 2 * n) capacity <<= 1;
  slots_.assign(capacity, Slot{rdf::kInvalidTermId, kEmpty});
  mask_ = capacity - 1;

  // Pass one: key -> dense group id, counted in offsets_[g + 1].
  Counted<uint32_t> group_of(n, values_.get_allocator());
  offsets_.push_back(0);
  for (size_t i = 0; i < n; ++i) {
    if (stop()) {
      Clear();
      return false;
    }
    const rdf::TermId key = key_at(i);
    size_t s = HomeSlot(key, capacity);
    while (slots_[s].group != kEmpty && slots_[s].key != key) {
      s = (s + 1) & mask_;
    }
    if (slots_[s].group == kEmpty) {
      slots_[s] = {key, static_cast<uint32_t>(offsets_.size() - 1)};
      offsets_.push_back(0);
    }
    group_of[i] = slots_[s].group;
    ++offsets_[slots_[s].group + 1];
  }

  // offsets_[g + 1] := start of group g, then pass two advances it to the
  // group's end (= start of g + 1) while placing positions in order.
  uint32_t start = 0;
  for (size_t g = 1; g < offsets_.size(); ++g) {
    const uint32_t count = offsets_[g];
    offsets_[g] = start;
    start += count;
  }
  values_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    values_[offsets_[group_of[i] + 1]++] = static_cast<uint32_t>(i);
  }
  return true;
}

}  // namespace shapestats::phys
