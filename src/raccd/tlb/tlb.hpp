// Per-core TLB model: fully associative, true LRU (paper Table I: 256-entry
// fully-associative DTLB, 1 cycle).
//
// Timing convention: lookups that hit are folded into the L1 access (VIPT
// style) and cost no extra cycles; misses pay the page-walk latency from
// SimConfig. The RaCCD `raccd_register` translation loop (paper Fig. 5) and
// the PT baseline's classification both run through this structure.
#pragma once

#include <cstdint>
#include <vector>

#include "raccd/common/field_list.hpp"
#include "raccd/common/flat_map.hpp"
#include "raccd/common/types.hpp"
#include "raccd/mem/page_table.hpp"

namespace raccd {

#define RACCD_TLB_STATS_FIELDS(X)                                          \
  X(std::uint64_t, lookups)                                                \
  X(std::uint64_t, hits)                                                   \
  X(std::uint64_t, misses)                                                 \
  X(std::uint64_t, shootdowns) /* entries invalidated by remote request */ \
  X(std::uint64_t, evictions)  /* capacity-driven LRU evictions */

struct TlbStats {
  RACCD_FIELDS(TlbStats, RACCD_TLB_STATS_FIELDS)
};

class Tlb {
 public:
  explicit Tlb(std::uint32_t capacity);

  struct Result {
    bool hit = false;
    PageNum pframe = 0;
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Look up vpage; on miss, walk `pt` and install the translation (evicting
  /// the LRU entry if full). Result.hit reports whether the walk was needed.
  Result access(PageNum vpage, const PageTable& pt);

  /// Side-effect-free lookup: the slot holding vpage's translation, or
  /// kNoSlot when access() would walk. Pair with frame() and hit() to do
  /// exactly what a hitting access() does, with one lookup.
  [[nodiscard]] std::uint32_t peek(PageNum vpage) const noexcept {
    if (vpage == last_vpage_) return head_;  // the filter mirrors the MRU entry
    const std::uint32_t* found = const_cast<OpenPageMap&>(index_).find(vpage);
    return found != nullptr ? *found : kNoSlot;
  }
  [[nodiscard]] PageNum frame(std::uint32_t slot) const noexcept {
    return entries_[slot].pframe;
  }
  /// Account a hit on a slot peek() returned: stats, LRU order, filter.
  void hit(std::uint32_t slot) noexcept {
    ++stats_.lookups;
    ++stats_.hits;
    if (slot != head_) {
      unlink(slot);
      push_front(slot);
    }
    last_vpage_ = entries_[slot].vpage;
  }

  /// Invalidate one entry (TLB shootdown). Returns true if it was present.
  bool invalidate(PageNum vpage);

  void flush();

  [[nodiscard]] bool contains(PageNum vpage) const noexcept {
    return const_cast<OpenPageMap&>(index_).find(vpage) != nullptr;
  }
  [[nodiscard]] std::uint32_t size() const noexcept {
    return index_.size();
  }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const TlbStats& stats() const noexcept { return stats_; }

 private:
  struct Entry {
    PageNum vpage = 0;
    PageNum pframe = 0;
    std::uint32_t prev = kNoSlot;
    std::uint32_t next = kNoSlot;
  };

  void unlink(std::uint32_t slot) noexcept {
    Entry& e = entries_[slot];
    if (e.prev != kNoSlot) {
      entries_[e.prev].next = e.next;
    } else {
      head_ = e.next;
    }
    if (e.next != kNoSlot) {
      entries_[e.next].prev = e.prev;
    } else {
      tail_ = e.prev;
    }
    e.prev = e.next = kNoSlot;
  }
  void push_front(std::uint32_t slot) noexcept {
    Entry& e = entries_[slot];
    e.prev = kNoSlot;
    e.next = head_;
    if (head_ != kNoSlot) entries_[head_].prev = slot;
    head_ = slot;
    if (tail_ == kNoSlot) tail_ = slot;
  }

  std::uint32_t capacity_;
  std::vector<Entry> entries_;          // slot storage
  std::vector<std::uint32_t> free_;     // free slots
  OpenPageMap index_;                   // vpage -> slot
  std::uint32_t head_ = kNoSlot;  // most recently used
  std::uint32_t tail_ = kNoSlot;  // least recently used
  // Single-entry filter for the common same-page-as-last-access case; keeps
  // host cost of the per-access timing lookup negligible. When set it names
  // the MRU entry (head_).
  PageNum last_vpage_ = ~PageNum{0};
  TlbStats stats_;
};

}  // namespace raccd
