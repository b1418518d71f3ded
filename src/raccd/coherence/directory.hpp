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

#include "raccd/cache/way_array.hpp"
#include "raccd/common/types.hpp"

namespace raccd {

/// What a directory way holds besides its tag (which says valid and which
/// line).
struct DirPayload {
  std::uint64_t sharers;  ///< bitmask of cores that may hold the line
  CoreId excl;            ///< core holding E/M, or kNoCore
};
static_assert(sizeof(DirPayload) <= 16, "directory payload grew past 16 bytes");

/// A directory entry copied out: a fill's victim or a resize's displaced entry.
using DirEntry = WayCopy<DirPayload>;

struct DirGeometry {
  std::uint32_t entries_per_bank = 32768;
  std::uint32_t ways = 8;
  std::uint32_t bank_bits = 4;  ///< log2(bank count)
};

class DirectoryBank {
 public:
  static constexpr std::uint32_t kNoSlot = WayArray<DirPayload>::kNoSlot;

  explicit DirectoryBank(const DirGeometry& geo);

  [[nodiscard]] std::uint32_t set_of(LineAddr line) const noexcept {
    return static_cast<std::uint32_t>(line >> bank_bits_) & (active_sets_ - 1);
  }

  /// The slot holding `line`'s entry, or kNoSlot.
  [[nodiscard]] std::uint32_t slot_of(LineAddr line) const noexcept;
  /// The payload of `line`'s entry; nullptr if untracked.
  [[nodiscard]] DirPayload* find(LineAddr line) noexcept {
    const std::uint32_t slot = slot_of(line);
    return slot != kNoSlot ? &ways_.at(slot) : nullptr;
  }
  [[nodiscard]] const DirPayload* find(LineAddr line) const noexcept {
    return const_cast<DirectoryBank*>(this)->find(line);
  }
  [[nodiscard]] DirPayload& at(std::uint32_t slot) noexcept { return ways_.at(slot); }
  void touch(std::uint32_t slot) noexcept { ways_.touch(slot); }

  /// True if a fill of `line` would not displace a valid entry.
  [[nodiscard]] bool has_free_way(LineAddr line) const noexcept {
    return ways_.free_slot(set_of(line)) != kNoSlot;
  }
  /// The valid entry a fill of `line` would displace ({} if a way is free).
  [[nodiscard]] DirEntry peek_victim(LineAddr line) const noexcept;
  /// Allocate an entry for `line` with no sharers and no owner; a way must
  /// be free (caller evicted the victim via the recall procedure first).
  DirPayload& alloc(LineAddr line);
  /// Remove the entry for `line` if present; returns true if it existed.
  bool remove(LineAddr line) noexcept;

  // -- ADR support ------------------------------------------------------------
  /// Power the bank down/up to `new_active_sets` (power of two within
  /// [min_sets, total sets]). Surviving entries are re-indexed; entries that
  /// exceed the new set's associativity are returned for the caller to
  /// recall. Returns the number of entries moved (reconfiguration cost).
  std::uint32_t resize(std::uint32_t new_active_sets, std::vector<DirEntry>& displaced);

  /// Visit every valid entry (checker scans, tests).
  /// F: void(LineAddr, const DirPayload&).
  template <typename F>
  void for_each_valid(F&& f) const {
    ways_.for_each_valid(f);
  }

  [[nodiscard]] std::uint32_t total_sets() const noexcept { return total_sets_; }
  [[nodiscard]] std::uint32_t active_sets() const noexcept { return active_sets_; }
  [[nodiscard]] std::uint32_t ways() const noexcept { return ways_.ways(); }
  [[nodiscard]] std::uint32_t active_entries() const noexcept { return active_sets_ * ways(); }
  [[nodiscard]] std::uint32_t valid_entries() const noexcept { return ways_.valid_count(); }

  // -- Time-weighted occupancy (paper Fig. 8) ----------------------------------
  /// Must be called with the current time *before* any occupancy change and
  /// once at end of simulation.
  void occupancy_tick(Cycle now) noexcept;
  [[nodiscard]] double occupancy_integral() const noexcept { return occupancy_integral_; }
  /// Time-weighted integral of the active (powered) entry count, for ADR
  /// energy accounting.
  [[nodiscard]] double active_integral() const noexcept { return active_integral_; }

 private:
  std::uint32_t total_sets_;
  std::uint32_t active_sets_;
  std::uint32_t bank_bits_;
  WayArray<DirPayload> ways_;
  Cycle last_tick_ = 0;
  double occupancy_integral_ = 0.0;
  double active_integral_ = 0.0;
};

}  // namespace raccd
