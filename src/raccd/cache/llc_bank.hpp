// One bank of the shared last-level cache (paper Table I: 32 MB unified LLC
// banked 2 MB/core, 8-way, 15 cycles, pseudoLRU, 64 B lines).
//
// Lines are interleaved across banks at line granularity by the fabric;
// within a bank the set index uses the line address above the bank bits.
// Each line carries an NC flag: NC-resident lines have no directory entry
// (paper III-C.3), which is what relieves directory capacity pressure.
#pragma once

#include <cstdint>

#include "raccd/cache/way_array.hpp"
#include "raccd/common/types.hpp"

namespace raccd {

/// What an LLC way holds besides its tag (which says valid and which line).
struct LlcPayload {
  std::uint64_t version;  ///< checker shadow value
  bool dirty;
  bool nc;
};
static_assert(sizeof(LlcPayload) <= 16, "LLC payload grew past 16 bytes");

/// An LLC line copied out: a fill's victim or invalidated contents.
using LlcLine = WayCopy<LlcPayload>;

struct LlcGeometry {
  std::uint32_t lines_per_bank = 32768;  ///< paper: 2 MB / 64 B
  std::uint32_t ways = 8;
  std::uint32_t bank_bits = 4;  ///< log2(bank count); strips bank-select bits

  [[nodiscard]] std::uint32_t sets() const noexcept { return lines_per_bank / ways; }
};

class LlcBank {
 public:
  static constexpr std::uint32_t kNoSlot = WayArray<LlcPayload>::kNoSlot;

  explicit LlcBank(const LlcGeometry& geo);

  [[nodiscard]] std::uint32_t set_of(LineAddr line) const noexcept {
    return static_cast<std::uint32_t>(line >> bank_bits_) & (sets_ - 1);
  }

  /// The slot holding `line`, or kNoSlot on a miss.
  [[nodiscard]] std::uint32_t slot_of(LineAddr line) const noexcept;
  /// The payload of a resident `line`; nullptr on miss.
  [[nodiscard]] LlcPayload* find(LineAddr line) noexcept {
    const std::uint32_t slot = slot_of(line);
    return slot != kNoSlot ? &ways_.at(slot) : nullptr;
  }
  [[nodiscard]] const LlcPayload* find(LineAddr line) const noexcept {
    return const_cast<LlcBank*>(this)->find(line);
  }
  [[nodiscard]] LlcPayload& at(std::uint32_t slot) noexcept { return ways_.at(slot); }
  void touch(std::uint32_t slot) noexcept { ways_.touch(slot); }

  /// Pick the way a fill of `line` would use. If the chosen way holds a valid
  /// line, that victim must be evicted by the caller *before* calling fill
  /// (the caller may need directory recalls, which can themselves invalidate
  /// LLC lines). Returns the victim line by value (valid=false if free way).
  [[nodiscard]] LlcLine peek_victim(LineAddr line) const noexcept;

  /// Install a line. The target way must be free (caller evicted the victim).
  LlcPayload& fill(LineAddr line, bool nc, bool dirty, std::uint64_t version);

  /// Invalidate one line if present; returns old contents (valid=false if absent).
  LlcLine invalidate(LineAddr line) noexcept;

  /// Visit every valid line (tests). F: void(LineAddr, const LlcPayload&).
  template <typename F>
  void for_each_valid(F&& f) const {
    ways_.for_each_valid(f);
  }

  [[nodiscard]] std::uint32_t sets() const noexcept { return sets_; }
  [[nodiscard]] std::uint32_t ways() const noexcept { return ways_.ways(); }
  [[nodiscard]] std::uint32_t valid_lines() const noexcept { return ways_.valid_count(); }
  [[nodiscard]] std::uint32_t line_capacity() const noexcept { return sets_ * ways(); }

 private:
  std::uint32_t sets_;
  std::uint32_t bank_bits_;
  WayArray<LlcPayload> ways_;
};

}  // namespace raccd
