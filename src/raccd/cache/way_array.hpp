// Way storage shared by the set-associative structures (L1, LLC banks,
// directory banks): a tag array, a payload array and tree-PLRU state.
//
// The tag array is the only record of residency: a way is valid iff its tag
// holds a line (kNoTag otherwise), and probes scan one set's contiguous tags.
// The payload array holds what the tag does not say (MESI state, NC bit,
// sharers, ...). A payload is written when its line is installed and never
// read before, so the array is allocated unwritten: a new structure
// initializes only its tags and PLRU words.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "raccd/cache/replacement.hpp"
#include "raccd/common/types.hpp"
#include "raccd/common/uninit_vector.hpp"

namespace raccd {

/// A way copied out by value (an eviction victim, invalidated contents, a
/// displaced directory entry): its payload, its line, and whether the way
/// held a line at all (valid=false: nothing was there).
template <typename Payload>
struct WayCopy : Payload {
  LineAddr line = 0;
  bool valid = false;
};

template <typename Payload>
class WayArray {
 public:
  /// "No way": a probe that missed, or a set without a free way.
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  WayArray(std::uint32_t sets, std::uint32_t ways)
      : ways_(ways),
        way_bits_(static_cast<std::uint32_t>(std::countr_zero(ways))),
        tags_(static_cast<std::size_t>(sets) * ways, kNoTag),
        repl_(sets, ways) {
    resize_unwritten(payloads_, tags_.size());
  }

  /// Slot (set * ways + way) holding `line` in `set`, or kNoSlot.
  [[nodiscard]] std::uint32_t find(std::uint32_t set, LineAddr line) const noexcept {
    const std::uint32_t base = set << way_bits_;
    const LineAddr* tags = tags_.data() + base;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (tags[w] == line) return base + w;
    }
    return kNoSlot;
  }
  /// The lowest empty slot of `set`, or kNoSlot when every way is valid.
  [[nodiscard]] std::uint32_t free_slot(std::uint32_t set) const noexcept {
    return find(set, kNoTag);
  }
  /// The slot tree-PLRU evicts from `set`.
  [[nodiscard]] std::uint32_t victim(std::uint32_t set) const noexcept {
    return (set << way_bits_) + repl_.victim(set);
  }

  [[nodiscard]] bool valid(std::uint32_t slot) const noexcept { return tags_[slot] != kNoTag; }
  [[nodiscard]] LineAddr line(std::uint32_t slot) const noexcept { return tags_[slot]; }
  [[nodiscard]] Payload& at(std::uint32_t slot) noexcept { return payloads_[slot]; }
  [[nodiscard]] const Payload& at(std::uint32_t slot) const noexcept { return payloads_[slot]; }
  [[nodiscard]] WayCopy<Payload> copy(std::uint32_t slot) const noexcept {
    return WayCopy<Payload>{payloads_[slot], tags_[slot], true};
  }

  void touch(std::uint32_t slot) noexcept {
    repl_.touch(slot >> way_bits_, slot & (ways_ - 1));
  }
  /// Record `line` in the empty `slot` and touch it; the caller must write
  /// the returned payload.
  [[nodiscard]] Payload& install(std::uint32_t slot, LineAddr line) noexcept {
    tags_[slot] = line;
    ++valid_count_;
    touch(slot);
    return payloads_[slot];
  }
  /// Empty the valid `slot`, returning what it held.
  WayCopy<Payload> take(std::uint32_t slot) noexcept {
    const WayCopy<Payload> old = copy(slot);
    tags_[slot] = kNoTag;
    --valid_count_;
    return old;
  }
  /// Empty every way and forget the replacement history.
  void reset() {
    tags_.assign(tags_.size(), kNoTag);
    valid_count_ = 0;
    repl_ = ReplacementState(static_cast<std::uint32_t>(tags_.size() >> way_bits_), ways_);
  }

  /// Visit every valid way in slot order. F: void(LineAddr, const Payload&).
  template <typename F>
  void for_each_valid(F&& f) const {
    for (std::size_t s = 0; s < tags_.size(); ++s) {
      if (tags_[s] != kNoTag) f(tags_[s], payloads_[s]);
    }
  }

  [[nodiscard]] std::uint32_t ways() const noexcept { return ways_; }
  [[nodiscard]] std::uint32_t valid_count() const noexcept { return valid_count_; }

 private:
  /// Tag of an empty way. Unreachable as a real tag: line numbers are
  /// physical addresses >> 6, far below 2^64-1.
  static constexpr LineAddr kNoTag = ~LineAddr{0};

  std::uint32_t ways_;
  std::uint32_t way_bits_;
  std::vector<LineAddr> tags_;
  UninitVector<Payload> payloads_;
  ReplacementState repl_;
  std::uint32_t valid_count_ = 0;
};

}  // namespace raccd
