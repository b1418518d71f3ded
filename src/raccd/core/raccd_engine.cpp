#include "raccd/core/raccd_engine.hpp"

#include "raccd/common/assert.hpp"

namespace raccd {

RaccdEngine::RaccdEngine(std::uint32_t cores, const RaccdEngineConfig& cfg,
                         Cycle tlb_walk_cycles)
    : cfg_(cfg), tlb_walk_cycles_(tlb_walk_cycles) {
  for (std::uint32_t c = 0; c < cores; ++c) {
    ncrts_.push_back(std::make_unique<Ncrt>(cfg_.ncrt_entries));
  }
}

RegisterOutcome RaccdEngine::register_region(CoreId c, VAddr va, std::uint64_t size,
                                             Tlb& tlb, const PageTable& pt) {
  RegisterOutcome out;
  out.cycles = cfg_.instr_overhead_cycles;
  if (size == 0) return out;
  Ncrt& table = ncrt(c);

  const VAddr end_va = va + size;
  // Iterative translation with contiguous-frame collapsing (paper Fig. 5):
  // walk the virtual pages in order; extend the open physical range while
  // frames stay contiguous, close and insert it when they do not.
  PAddr open_start = 0;
  PAddr open_end = 0;  // 0 means "no open range"
  for (VAddr page_va = align_down(va, kPageBytes); page_va < end_va;
       page_va += kPageBytes) {
    const auto res = tlb.access(page_of(page_va), pt);
    ++out.pages_translated;
    out.cycles += cfg_.per_page_lookup_cycles;
    if (!res.hit) {
      ++out.tlb_misses;
      out.cycles += tlb_walk_cycles_;
    }
    const PAddr frame_base = res.pframe << kPageShift;
    const PAddr chunk_start = frame_base + (page_va < va ? page_offset(va) : 0);
    const PAddr chunk_end =
        frame_base + (page_va + kPageBytes > end_va ? page_offset(end_va - 1) + 1
                                                    : kPageBytes);
    if (open_end != 0 && chunk_start == open_end) {
      open_end = chunk_end;  // physically contiguous: collapse
    } else {
      if (open_end != 0) {
        out.cycles += cfg_.per_insert_cycles;
        if (table.insert(open_start, open_end)) {
          ++out.ranges_inserted;
        } else {
          out.overflowed = true;
        }
      }
      open_start = chunk_start;
      open_end = chunk_end;
    }
  }
  if (open_end != 0) {
    out.cycles += cfg_.per_insert_cycles;
    if (table.insert(open_start, open_end)) {
      ++out.ranges_inserted;
    } else {
      out.overflowed = true;
    }
  }
  return out;
}

Cycle RaccdEngine::invalidate(CoreId c) {
  ncrt(c).clear();
  return cfg_.instr_overhead_cycles;
}

NcrtStats RaccdEngine::total_stats() const noexcept {
  NcrtStats total;
  for (const auto& n : ncrts_) add_fields(total, n->stats());
  return total;
}

}  // namespace raccd
