#include "raccd/cache/l1_cache.hpp"

#include "raccd/common/assert.hpp"
#include "raccd/common/bits.hpp"

namespace raccd {

L1Cache::L1Cache(const L1Geometry& geo)
    : sets_(geo.sets()), ways_(geo.sets(), geo.ways) {
  RACCD_ASSERT(is_pow2(sets_), "L1 set count must be a power of two");
  nc_listed_.assign(line_capacity(), 0);
}

L1Line L1Cache::fill(LineAddr line, bool nc, Mesi coh, bool dirty, std::uint64_t version,
                     std::uint32_t* installed) {
  RACCD_DEBUG_ASSERT(slot_of(line) == kNoSlot, "fill of already-resident line");
  const std::uint32_t set = set_of(line);
  std::uint32_t slot = ways_.free_slot(set);
  L1Line evicted{};
  if (slot == kNoSlot) {
    slot = ways_.victim(set);
    evicted = ways_.take(slot);
  }
  ways_.install(slot, line) = L1Payload{version, nc, dirty, nc ? Mesi::kInvalid : coh};
  if (nc && nc_listed_[slot] == 0) {
    nc_listed_[slot] = 1;
    nc_slots_.push_back(slot);
  }
  if (installed != nullptr) *installed = slot;
  return evicted;
}

L1Line L1Cache::invalidate(LineAddr line) noexcept {
  const std::uint32_t slot = slot_of(line);
  return slot != kNoSlot ? ways_.take(slot) : L1Line{};
}

}  // namespace raccd
