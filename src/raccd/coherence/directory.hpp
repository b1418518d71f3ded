// One bank of the sparse full-map directory (paper Table I: 524288 entries
// banked 32768/core, 8-way, 15 cycles, pseudoLRU).
//
// Invariants maintained with the fabric:
//  * every *coherent* line resident in the LLC or any L1 has an entry here
//    (the directory is inclusive of the LLC: evicting an entry forces the
//    LLC line out and recalls the L1 copies — the mechanism behind the
//    FullCoh degradation in paper Fig. 6/7b);
//  * non-coherent lines are never tracked (the mechanism behind RaCCD's
//    capacity relief);
//  * `excl != kNoCore` means that core holds the line in E or M (the silent
//    E->M upgrade means the directory cannot distinguish them and must probe).
//
// The bank supports ADR resizing (paper §III-D): only `active_sets` sets are
// powered; resizing re-indexes surviving entries and reports the ones that no
// longer fit so the fabric can recall them.
#pragma once

#include <cstdint>
#include <vector>

#include "raccd/cache/replacement.hpp"
#include "raccd/common/types.hpp"

namespace raccd {

struct DirEntry {
  LineAddr line = 0;
  bool valid = false;
  std::uint64_t sharers = 0;   ///< bitmask of cores that may hold the line
  CoreId excl = kNoCore;       ///< core holding E/M, or kNoCore
};

struct DirGeometry {
  std::uint32_t entries_per_bank = 32768;
  std::uint32_t ways = 8;
  std::uint32_t bank_bits = 4;  ///< log2(bank count)
};

class DirectoryBank {
 public:
  explicit DirectoryBank(const DirGeometry& geo);

  [[nodiscard]] std::uint32_t set_of(LineAddr line) const noexcept {
    return static_cast<std::uint32_t>(line >> bank_bits_) & (active_sets_ - 1);
  }

  [[nodiscard]] DirEntry* find(LineAddr line) noexcept;
  [[nodiscard]] const DirEntry* find(LineAddr line) const noexcept;
  void touch(const DirEntry& e) noexcept;

  /// True if a fill of `line` would not displace a valid entry.
  [[nodiscard]] bool has_free_way(LineAddr line) const noexcept;
  /// The valid entry a fill of `line` would displace ({} if a way is free).
  [[nodiscard]] DirEntry peek_victim(LineAddr line) noexcept;
  /// Allocate an entry for `line`; a way must be free (caller evicted the
  /// victim via the recall procedure first).
  DirEntry& alloc(LineAddr line);
  /// Remove the entry for `line` if present; returns true if it existed.
  bool remove(LineAddr line) noexcept;

  // -- ADR support ------------------------------------------------------------
  /// Power the bank down/up to `new_active_sets` (power of two within
  /// [min_sets, total sets]). Surviving entries are re-indexed; entries that
  /// exceed the new set's associativity are returned for the caller to
  /// recall. Returns the number of entries moved (reconfiguration cost).
  std::uint32_t resize(std::uint32_t new_active_sets, std::vector<DirEntry>& displaced);

  /// Visit every valid entry (checker scans, tests).
  template <typename F>
  void for_each_valid(F&& f) const {
    for (const auto& e : entries_) {
      if (e.valid) f(e);
    }
  }

  [[nodiscard]] std::uint32_t total_sets() const noexcept { return total_sets_; }
  [[nodiscard]] std::uint32_t active_sets() const noexcept { return active_sets_; }
  [[nodiscard]] std::uint32_t ways() const noexcept { return ways_; }
  [[nodiscard]] std::uint32_t active_entries() const noexcept { return active_sets_ * ways_; }
  [[nodiscard]] std::uint32_t valid_entries() const noexcept { return valid_count_; }

  // -- Time-weighted occupancy (paper Fig. 8) ----------------------------------
  /// Must be called with the current time *before* any occupancy change and
  /// once at end of simulation.
  void occupancy_tick(Cycle now) noexcept;
  [[nodiscard]] double occupancy_integral() const noexcept { return occupancy_integral_; }
  /// Time-weighted integral of the active (powered) entry count, for ADR
  /// energy accounting.
  [[nodiscard]] double active_integral() const noexcept { return active_integral_; }

 private:
  /// Sentinel in the SoA tag array marking an invalid entry (real line
  /// numbers are paddr >> 6, far below 2^64-1).
  static constexpr LineAddr kNoTag = ~LineAddr{0};

  [[nodiscard]] DirEntry& at(std::uint32_t set, std::uint32_t way) noexcept {
    return entries_[static_cast<std::size_t>(set) * ways_ + way];
  }
  void set_tag(std::uint32_t set, std::uint32_t way, LineAddr tag) noexcept {
    tags_[static_cast<std::size_t>(set) * ways_ + way] = tag;
  }

  std::uint32_t total_sets_;
  std::uint32_t active_sets_;
  std::uint32_t ways_;
  std::uint32_t bank_bits_;
  std::vector<DirEntry> entries_;
  /// SoA mirror of (valid, line); find() scans this contiguous vector.
  std::vector<LineAddr> tags_;
  ReplacementState repl_;
  std::uint32_t valid_count_ = 0;
  Cycle last_tick_ = 0;
  double occupancy_integral_ = 0.0;
  double active_integral_ = 0.0;
};

}  // namespace raccd
