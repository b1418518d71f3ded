#include "raccd/coherence/directory.hpp"

#include "raccd/common/assert.hpp"
#include "raccd/common/bits.hpp"

namespace raccd {

DirectoryBank::DirectoryBank(const DirGeometry& geo)
    : total_sets_(geo.entries_per_bank / geo.ways),
      active_sets_(total_sets_),
      bank_bits_(geo.bank_bits),
      ways_(total_sets_, geo.ways) {
  RACCD_ASSERT(is_pow2(total_sets_), "directory bank set count must be a power of two");
}

std::uint32_t DirectoryBank::slot_of(LineAddr line) const noexcept {
  return ways_.find(set_of(line), line);
}

DirEntry DirectoryBank::peek_victim(LineAddr line) const noexcept {
  const std::uint32_t set = set_of(line);
  if (ways_.free_slot(set) != kNoSlot) return DirEntry{};
  return ways_.copy(ways_.victim(set));
}

DirPayload& DirectoryBank::alloc(LineAddr line) {
  RACCD_DEBUG_ASSERT(slot_of(line) == kNoSlot, "directory double-allocation");
  const std::uint32_t slot = ways_.free_slot(set_of(line));
  RACCD_ASSERT(slot != kNoSlot, "directory alloc with no free way (victim not recalled)");
  return ways_.install(slot, line) = DirPayload{0, kNoCore};
}

bool DirectoryBank::remove(LineAddr line) noexcept {
  const std::uint32_t slot = slot_of(line);
  if (slot == kNoSlot) return false;
  (void)ways_.take(slot);
  return true;
}

std::uint32_t DirectoryBank::resize(std::uint32_t new_active_sets,
                                    std::vector<DirEntry>& displaced) {
  RACCD_ASSERT(is_pow2(new_active_sets) && new_active_sets >= 1 &&
                   new_active_sets <= total_sets_,
               "invalid ADR resize target");
  if (new_active_sets == active_sets_) return 0;
  // Gather all valid entries, clear, re-index under the new mask. This is the
  // "move the contents of the directory to the appropriate entries" step of
  // paper §III-D, whose cost the caller converts into bank-blocked cycles.
  std::vector<DirEntry> survivors;
  survivors.reserve(ways_.valid_count());
  ways_.for_each_valid([&](LineAddr line, const DirPayload& p) {
    survivors.push_back(DirEntry{p, line, true});
  });
  ways_.reset();
  active_sets_ = new_active_sets;
  std::uint32_t moved = 0;
  for (const DirEntry& s : survivors) {
    const std::uint32_t slot = ways_.free_slot(set_of(s.line));
    if (slot == kNoSlot) {
      displaced.push_back(s);  // conflict overflow: caller recalls
      continue;
    }
    ways_.install(slot, s.line) = s;
    ++moved;
  }
  return moved;
}

void DirectoryBank::occupancy_tick(Cycle now) noexcept {
  if (now > last_tick_) {
    const double dt = static_cast<double>(now - last_tick_);
    occupancy_integral_ += dt * static_cast<double>(valid_entries());
    active_integral_ += dt * static_cast<double>(active_entries());
    last_tick_ = now;
  }
}

}  // namespace raccd
