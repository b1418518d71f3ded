#include "raccd/cache/llc_bank.hpp"

#include "raccd/common/assert.hpp"
#include "raccd/common/bits.hpp"

namespace raccd {

LlcBank::LlcBank(const LlcGeometry& geo)
    : sets_(geo.sets()), bank_bits_(geo.bank_bits), ways_(geo.sets(), geo.ways) {
  RACCD_ASSERT(is_pow2(sets_), "LLC bank set count must be a power of two");
}

std::uint32_t LlcBank::slot_of(LineAddr line) const noexcept {
  return ways_.find(set_of(line), line);
}

LlcLine LlcBank::peek_victim(LineAddr line) const noexcept {
  const std::uint32_t set = set_of(line);
  if (ways_.free_slot(set) != kNoSlot) return LlcLine{};  // free way available
  return ways_.copy(ways_.victim(set));
}

LlcPayload& LlcBank::fill(LineAddr line, bool nc, bool dirty, std::uint64_t version) {
  RACCD_DEBUG_ASSERT(slot_of(line) == kNoSlot, "LLC fill of resident line");
  const std::uint32_t slot = ways_.free_slot(set_of(line));
  RACCD_ASSERT(slot != kNoSlot, "LLC fill with no free way (victim not evicted by caller)");
  return ways_.install(slot, line) = LlcPayload{version, dirty, nc};
}

LlcLine LlcBank::invalidate(LineAddr line) noexcept {
  const std::uint32_t slot = slot_of(line);
  return slot != kNoSlot ? ways_.take(slot) : LlcLine{};
}

}  // namespace raccd
