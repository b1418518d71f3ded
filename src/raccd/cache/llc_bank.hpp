// One bank of the shared last-level cache (paper Table I: 32 MB unified LLC
// banked 2 MB/core, 8-way, 15 cycles, pseudoLRU, 64 B lines).
//
// Lines are interleaved across banks at line granularity by the fabric;
// within a bank the set index uses the line address above the bank bits.
// Each line carries an NC flag: NC-resident lines have no directory entry
// (paper III-C.3), which is what relieves directory capacity pressure.
#pragma once

#include <cstdint>
#include <vector>

#include "raccd/cache/replacement.hpp"
#include "raccd/common/types.hpp"

namespace raccd {

struct LlcLine {
  LineAddr line = 0;
  bool valid = false;
  bool dirty = false;
  bool nc = false;
  std::uint64_t version = 0;  ///< checker shadow value
};

struct LlcGeometry {
  std::uint32_t lines_per_bank = 32768;  ///< paper: 2 MB / 64 B
  std::uint32_t ways = 8;
  std::uint32_t bank_bits = 4;  ///< log2(bank count); strips bank-select bits

  [[nodiscard]] std::uint32_t sets() const noexcept { return lines_per_bank / ways; }
};

class LlcBank {
 public:
  explicit LlcBank(const LlcGeometry& geo);

  [[nodiscard]] std::uint32_t set_of(LineAddr line) const noexcept {
    return static_cast<std::uint32_t>(line >> bank_bits_) & (sets_ - 1);
  }

  [[nodiscard]] LlcLine* find(LineAddr line) noexcept;
  [[nodiscard]] const LlcLine* find(LineAddr line) const noexcept {
    return const_cast<LlcBank*>(this)->find(line);
  }
  void touch(const LlcLine& l) noexcept;

  /// Pick the way a fill of `line` would use. If the chosen way holds a valid
  /// line, that victim must be evicted by the caller *before* calling fill
  /// (the caller may need directory recalls, which can themselves invalidate
  /// LLC lines). Returns the victim line by value (valid=false if free way).
  [[nodiscard]] LlcLine peek_victim(LineAddr line) noexcept;

  /// Install a line. The target way must be free (caller evicted the victim).
  LlcLine& fill(LineAddr line, bool nc, bool dirty, std::uint64_t version);

  /// Invalidate one line if present; returns old contents (valid=false if absent).
  LlcLine invalidate(LineAddr line) noexcept;

  /// Visit every valid line (checker scans, tests).
  template <typename F>
  void for_each_valid(F&& f) const {
    for (const auto& l : lines_) {
      if (l.valid) f(l);
    }
  }

  [[nodiscard]] std::uint32_t sets() const noexcept { return sets_; }
  [[nodiscard]] std::uint32_t ways() const noexcept { return ways_; }
  [[nodiscard]] std::uint32_t valid_lines() const noexcept { return valid_count_; }
  [[nodiscard]] std::uint32_t line_capacity() const noexcept { return sets_ * ways_; }

 private:
  /// Sentinel in the SoA tag array marking an invalid way (real line numbers
  /// are paddr >> 6, far below 2^64-1).
  static constexpr LineAddr kNoTag = ~LineAddr{0};

  [[nodiscard]] LlcLine& at(std::uint32_t set, std::uint32_t way) noexcept {
    return lines_[static_cast<std::size_t>(set) * ways_ + way];
  }
  void set_tag(std::uint32_t set, std::uint32_t way, LineAddr tag) noexcept {
    tags_[static_cast<std::size_t>(set) * ways_ + way] = tag;
  }

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::uint32_t bank_bits_;
  std::vector<LlcLine> lines_;
  /// SoA mirror of (valid, line); find() scans this contiguous vector.
  std::vector<LineAddr> tags_;
  ReplacementState repl_;
  std::uint32_t valid_count_ = 0;
};

}  // namespace raccd
