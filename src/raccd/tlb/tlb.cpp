#include "raccd/tlb/tlb.hpp"

#include "raccd/common/assert.hpp"

namespace raccd {

Tlb::Tlb(std::uint32_t capacity)
    : capacity_(capacity), index_(capacity) {
  RACCD_ASSERT(capacity_ > 0, "TLB needs at least one entry");
  resize_unwritten(entries_, capacity_);
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
  } else if (fresh_ < capacity_) {
    slot = fresh_++;
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
  // Every slot becomes free; slot numbers are handles, never observable, so
  // the next fills simply start again from slot 0.
  index_.clear();
  free_.clear();
  fresh_ = 0;
  head_ = tail_ = kNoSlot;
  last_vpage_ = ~PageNum{0};
}

}  // namespace raccd
