// Private L1 data cache structure (paper Table I: 32 KB, 2-way, 64 B lines,
// 2-cycle hit, write-back, write-allocate) extended with the RaCCD
// Non-Coherent (NC) bit per line (paper Fig. 4).
//
// This class models tag state only; protocol decisions (what to do on a hit,
// miss, eviction, recall) live in coherence::Fabric. Functional data lives in
// SimMemory; lines carry a version stamp used by the optional coherence
// checker to verify that every load observes the last store. Callers address
// resident lines by slot (cache/way_array.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "raccd/cache/way_array.hpp"
#include "raccd/common/types.hpp"

namespace raccd {

/// MESI stable states for coherent lines.
enum class Mesi : std::uint8_t { kInvalid = 0, kShared, kExclusive, kModified };

[[nodiscard]] constexpr const char* to_string(Mesi s) noexcept {
  switch (s) {
    case Mesi::kInvalid: return "I";
    case Mesi::kShared: return "S";
    case Mesi::kExclusive: return "E";
    case Mesi::kModified: return "M";
  }
  return "?";
}

/// What an L1 way holds besides its tag (which says valid and which line).
struct L1Payload {
  std::uint64_t version;  ///< checker shadow value (see coherence/checker)
  bool nc;     ///< RaCCD NC bit: line fetched via a non-coherent request
  bool dirty;  ///< meaningful for NC lines and mirrors M for coherent ones
  Mesi coh;    ///< coherent state; kInvalid when nc
};
static_assert(sizeof(L1Payload) <= 16, "L1 payload grew past 16 bytes");

/// An L1 line copied out: a fill's victim, invalidated or dropped contents.
using L1Line = WayCopy<L1Payload>;

struct L1Geometry {
  std::uint32_t size_bytes = 32 * 1024;
  std::uint32_t ways = 2;

  [[nodiscard]] std::uint32_t sets() const noexcept {
    return size_bytes / kLineBytes / ways;
  }
  [[nodiscard]] std::uint32_t lines() const noexcept { return size_bytes / kLineBytes; }
};

class L1Cache {
 public:
  static constexpr std::uint32_t kNoSlot = WayArray<L1Payload>::kNoSlot;

  explicit L1Cache(const L1Geometry& geo);

  [[nodiscard]] std::uint32_t set_of(LineAddr line) const noexcept {
    return static_cast<std::uint32_t>(line) & (sets_ - 1);
  }

  /// The slot holding `line`, or kNoSlot on a miss. Does not update
  /// replacement state.
  [[nodiscard]] std::uint32_t slot_of(LineAddr line) const noexcept {
    return ways_.find(set_of(line), line);
  }
  /// The payload of a resident `line`; nullptr on miss.
  [[nodiscard]] L1Payload* find(LineAddr line) noexcept {
    const std::uint32_t slot = slot_of(line);
    return slot != kNoSlot ? &ways_.at(slot) : nullptr;
  }
  [[nodiscard]] const L1Payload* find(LineAddr line) const noexcept {
    return const_cast<L1Cache*>(this)->find(line);
  }
  [[nodiscard]] LineAddr line(std::uint32_t slot) const noexcept { return ways_.line(slot); }
  [[nodiscard]] bool valid(std::uint32_t slot) const noexcept { return ways_.valid(slot); }
  [[nodiscard]] L1Payload& at(std::uint32_t slot) noexcept { return ways_.at(slot); }

  /// Update replacement state for an access to the resident line in `slot`.
  void touch(std::uint32_t slot) noexcept { ways_.touch(slot); }

  /// Install `line`; returns the displaced valid victim (valid=false if the
  /// set had a free way). The caller handles victim writeback/notification.
  /// `installed`, when non-null, receives the new line's slot.
  L1Line fill(LineAddr line, bool nc, Mesi coh, bool dirty, std::uint64_t version,
              std::uint32_t* installed = nullptr);

  /// Invalidate one line if present; returns the old contents (valid=false
  /// if the line was not resident).
  L1Line invalidate(LineAddr line) noexcept;

  /// Visit every valid line in set-major order (checker, tests).
  /// F: void(LineAddr, const L1Payload&).
  template <typename F>
  void for_each_valid(F&& f) const {
    ways_.for_each_valid(f);
  }

  /// Invalidate every valid NC line (the raccd_invalidate walk), calling
  /// f(old contents) for each in set-major order — the order of the paper's
  /// "sequentially traverses the blocks of its private cache". Host cost is
  /// proportional to the NC fills since the last drop, not to the capacity:
  /// only slots recorded by fill() are visited, ascending. F: void(const
  /// L1Line&); it must not touch this cache.
  template <typename F>
  void drop_nc_lines(F&& f) {
    std::sort(nc_slots_.begin(), nc_slots_.end());
    for (const std::uint32_t slot : nc_slots_) {
      nc_listed_[slot] = 0;
      // Evicted or refilled coherent since its NC fill: nothing to drop.
      if (!ways_.valid(slot) || !ways_.at(slot).nc) continue;
      f(ways_.take(slot));
    }
    nc_slots_.clear();
  }

  /// Slots the next drop_nc_lines() will visit (never above line_capacity()).
  [[nodiscard]] std::size_t nc_slot_count() const noexcept { return nc_slots_.size(); }

  [[nodiscard]] std::uint32_t sets() const noexcept { return sets_; }
  [[nodiscard]] std::uint32_t ways() const noexcept { return ways_.ways(); }
  [[nodiscard]] std::uint32_t line_capacity() const noexcept { return sets_ * ways(); }
  [[nodiscard]] std::uint32_t valid_lines() const noexcept { return ways_.valid_count(); }

 private:
  std::uint32_t sets_;
  WayArray<L1Payload> ways_;
  /// Slots that received an NC fill since the last drop_nc_lines(), each
  /// listed once (nc_listed_ is the per-slot dedup bit). A listed slot may
  /// have been evicted or refilled coherent since; the drop re-checks it.
  std::vector<std::uint32_t> nc_slots_;
  std::vector<std::uint8_t> nc_listed_;
};

}  // namespace raccd
