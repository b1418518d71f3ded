#include "raccd/tlb/tlb.hpp"

#include "raccd/common/assert.hpp"

namespace raccd {

Tlb::Tlb(std::uint32_t capacity)
    : capacity_(capacity), index_(capacity) {
  RACCD_ASSERT(capacity_ > 0, "TLB needs at least one entry");
  entries_.resize(capacity_);
  free_.reserve(capacity_);
  for (std::uint32_t i = 0; i < capacity_; ++i) free_.push_back(capacity_ - 1 - i);
}

Tlb::Result Tlb::access(PageNum vpage, const PageTable& pt) {
  if (const std::uint32_t slot = peek(vpage); slot != kNoSlot) {
    hit(slot);
    return Result{true, entries_[slot].pframe};
  }
  ++stats_.lookups;
  // Miss: walk the page table and install.
  ++stats_.misses;
  const PageNum pframe = pt.frame_of(vpage);
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = tail_;
    ++stats_.evictions;
    index_.erase(entries_[slot].vpage);
    unlink(slot);
  }
  entries_[slot].vpage = vpage;
  entries_[slot].pframe = pframe;
  push_front(slot);
  index_.insert(vpage, slot);
  last_vpage_ = vpage;
  return Result{false, pframe};
}

bool Tlb::invalidate(PageNum vpage) {
  const std::uint32_t* found = index_.find(vpage);
  if (found == nullptr) return false;
  ++stats_.shootdowns;
  const std::uint32_t slot = *found;
  unlink(slot);
  free_.push_back(slot);
  index_.erase(vpage);
  if (last_vpage_ == vpage) last_vpage_ = ~PageNum{0};
  return true;
}

void Tlb::flush() {
  // Walk the LRU chain (valid entries exactly) so the free list refills in
  // MRU-to-LRU order, then reset the index wholesale.
  for (std::uint32_t slot = head_; slot != kNoSlot;) {
    const std::uint32_t next = entries_[slot].next;
    entries_[slot].prev = entries_[slot].next = kNoSlot;
    free_.push_back(slot);
    slot = next;
  }
  index_.clear();
  head_ = tail_ = kNoSlot;
  last_vpage_ = ~PageNum{0};
}

}  // namespace raccd
