#include "raccd/coherence/directory.hpp"

#include "raccd/common/assert.hpp"
#include "raccd/common/bits.hpp"

namespace raccd {

DirectoryBank::DirectoryBank(const DirGeometry& geo)
    : total_sets_(geo.entries_per_bank / geo.ways),
      active_sets_(total_sets_),
      ways_(geo.ways),
      bank_bits_(geo.bank_bits),
      repl_(total_sets_, geo.ways) {
  RACCD_ASSERT(is_pow2(total_sets_), "directory bank set count must be a power of two");
  entries_.resize(static_cast<std::size_t>(total_sets_) * ways_);
  tags_.assign(static_cast<std::size_t>(total_sets_) * ways_, kNoTag);
}

DirEntry* DirectoryBank::find(LineAddr line) noexcept {
  const std::uint32_t set = set_of(line);
  const LineAddr* tags = tags_.data() + static_cast<std::size_t>(set) * ways_;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (tags[w] == line) return &at(set, w);
  }
  return nullptr;
}

const DirEntry* DirectoryBank::find(LineAddr line) const noexcept {
  return const_cast<DirectoryBank*>(this)->find(line);
}

void DirectoryBank::touch(const DirEntry& e) noexcept {
  const auto idx = static_cast<std::size_t>(&e - entries_.data());
  repl_.touch(static_cast<std::uint32_t>(idx / ways_),
              static_cast<std::uint32_t>(idx % ways_));
}

bool DirectoryBank::has_free_way(LineAddr line) const noexcept {
  const std::uint32_t set = const_cast<DirectoryBank*>(this)->set_of(line);
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (!entries_[static_cast<std::size_t>(set) * ways_ + w].valid) return true;
  }
  return false;
}

DirEntry DirectoryBank::peek_victim(LineAddr line) noexcept {
  const std::uint32_t set = set_of(line);
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (!at(set, w).valid) return DirEntry{};
  }
  return at(set, repl_.victim(set));
}

DirEntry& DirectoryBank::alloc(LineAddr line) {
  RACCD_DEBUG_ASSERT(find(line) == nullptr, "directory double-allocation");
  const std::uint32_t set = set_of(line);
  for (std::uint32_t w = 0; w < ways_; ++w) {
    DirEntry& e = at(set, w);
    if (!e.valid) {
      e = DirEntry{line, true, 0, kNoCore};
      set_tag(set, w, line);
      ++valid_count_;
      repl_.touch(set, w);
      return e;
    }
  }
  RACCD_ASSERT(false, "directory alloc with no free way (victim not recalled)");
  return at(set, 0);
}

bool DirectoryBank::remove(LineAddr line) noexcept {
  DirEntry* e = find(line);
  if (e == nullptr) return false;
  *e = DirEntry{};
  tags_[static_cast<std::size_t>(e - entries_.data())] = kNoTag;
  --valid_count_;
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
  survivors.reserve(valid_count_);
  for (auto& e : entries_) {
    if (e.valid) {
      survivors.push_back(e);
      e = DirEntry{};
    }
  }
  tags_.assign(tags_.size(), kNoTag);
  valid_count_ = 0;
  active_sets_ = new_active_sets;
  repl_ = ReplacementState(total_sets_, ways_);
  std::uint32_t moved = 0;
  for (const DirEntry& s : survivors) {
    const std::uint32_t set = set_of(s.line);
    bool placed = false;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      DirEntry& slot = at(set, w);
      if (!slot.valid) {
        slot = s;
        set_tag(set, w, s.line);
        ++valid_count_;
        repl_.touch(set, w);
        placed = true;
        ++moved;
        break;
      }
    }
    if (!placed) displaced.push_back(s);  // conflict overflow: caller recalls
  }
  return moved;
}

void DirectoryBank::occupancy_tick(Cycle now) noexcept {
  if (now > last_tick_) {
    const double dt = static_cast<double>(now - last_tick_);
    occupancy_integral_ += dt * static_cast<double>(valid_count_);
    active_integral_ += dt * static_cast<double>(active_entries());
    last_tick_ = now;
  }
}

}  // namespace raccd
