// Private L1 data cache structure (paper Table I: 32 KB, 2-way, 64 B lines,
// 2-cycle hit, write-back, write-allocate) extended with the RaCCD
// Non-Coherent (NC) bit per line (paper Fig. 4).
//
// This class models tag state only; protocol decisions (what to do on a hit,
// miss, eviction, recall) live in coherence::Fabric. Functional data lives in
// SimMemory; lines carry a version stamp used by the optional coherence
// checker to verify that every load observes the last store.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "raccd/cache/replacement.hpp"
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

struct L1Line {
  LineAddr line = 0;
  bool valid = false;
  bool nc = false;     ///< RaCCD NC bit: line fetched via a non-coherent request
  bool dirty = false;  ///< meaningful for NC lines and mirrors M for coherent ones
  Mesi coh = Mesi::kInvalid;  ///< coherent state; kInvalid when nc
  std::uint64_t version = 0;  ///< checker shadow value (see coherence/checker)
};

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
  explicit L1Cache(const L1Geometry& geo);

  [[nodiscard]] std::uint32_t set_of(LineAddr line) const noexcept {
    return static_cast<std::uint32_t>(line) & (sets_ - 1);
  }

  /// Find a valid line; nullptr on miss. Does not update replacement state.
  [[nodiscard]] L1Line* find(LineAddr line) noexcept {
    const std::size_t base = static_cast<std::size_t>(set_of(line)) * ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (tags_[base + w] == line) return &lines_[base + w];
    }
    return nullptr;
  }
  [[nodiscard]] const L1Line* find(LineAddr line) const noexcept {
    return const_cast<L1Cache*>(this)->find(line);
  }

  /// Update replacement state for an access to this (resident) line.
  void touch(const L1Line& l) noexcept {
    const std::uint32_t set = set_of(l.line);
    const auto slot = static_cast<std::uint32_t>(&l - lines_.data());
    repl_.touch(set, slot - set * ways_);
  }

  /// Install `line`; returns the displaced valid victim (valid=false if the
  /// set had a free way). The caller handles victim writeback/notification.
  /// `installed`, when non-null, receives the new line's slot.
  L1Line fill(LineAddr line, bool nc, Mesi coh, bool dirty, std::uint64_t version,
              L1Line** installed = nullptr);

  /// Invalidate one line if present; returns the old contents (valid=false
  /// if the line was not resident).
  L1Line invalidate(LineAddr line) noexcept;

  /// Visit every valid line in set-major order (checker, tests).
  /// F: void(const L1Line&).
  template <typename F>
  void for_each_valid(F&& f) const {
    for (const auto& l : lines_) {
      if (l.valid) f(l);
    }
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
      L1Line& l = lines_[slot];
      if (!l.valid || !l.nc) continue;  // evicted or invalidated since its fill
      const L1Line old = l;
      l = L1Line{};
      tags_[slot] = kNoTag;
      --valid_count_;
      f(old);
    }
    nc_slots_.clear();
  }

  /// Slots the next drop_nc_lines() will visit (never above line_capacity()).
  [[nodiscard]] std::size_t nc_slot_count() const noexcept { return nc_slots_.size(); }

  [[nodiscard]] std::uint32_t sets() const noexcept { return sets_; }
  [[nodiscard]] std::uint32_t ways() const noexcept { return ways_; }
  [[nodiscard]] std::uint32_t line_capacity() const noexcept { return sets_ * ways_; }
  [[nodiscard]] std::uint32_t valid_lines() const noexcept { return valid_count_; }

 private:
  /// Sentinel in the SoA tag array marking an invalid way. Unreachable as a
  /// real tag: line numbers are physical addresses >> 6, far below 2^64-1.
  static constexpr LineAddr kNoTag = ~LineAddr{0};

  [[nodiscard]] L1Line& at(std::uint32_t set, std::uint32_t way) noexcept {
    return lines_[static_cast<std::size_t>(set) * ways_ + way];
  }
  void set_tag(std::uint32_t set, std::uint32_t way, LineAddr tag) noexcept {
    tags_[static_cast<std::size_t>(set) * ways_ + way] = tag;
  }

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::vector<L1Line> lines_;
  /// SoA mirror of (valid, line): find() scans this contiguous vector — the
  /// whole set's tags share one host cache line — instead of striding the
  /// 32-byte L1Line structs. kNoTag encodes invalid, so one compare per way.
  std::vector<LineAddr> tags_;
  ReplacementState repl_;
  std::uint32_t valid_count_ = 0;
  /// Slots that received an NC fill since the last drop_nc_lines(), each
  /// listed once (nc_listed_ is the per-slot dedup bit). A listed slot may
  /// have been evicted or refilled coherent since; the drop re-checks it.
  std::vector<std::uint32_t> nc_slots_;
  std::vector<std::uint8_t> nc_listed_;
};

}  // namespace raccd
