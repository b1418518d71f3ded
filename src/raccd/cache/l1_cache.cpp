#include "raccd/cache/l1_cache.hpp"

#include "raccd/common/assert.hpp"
#include "raccd/common/bits.hpp"

namespace raccd {

L1Cache::L1Cache(const L1Geometry& geo)
    : sets_(geo.sets()),
      ways_(geo.ways),
      repl_(geo.sets(), geo.ways) {
  RACCD_ASSERT(is_pow2(sets_), "L1 set count must be a power of two");
  lines_.resize(static_cast<std::size_t>(sets_) * ways_);
  tags_.assign(static_cast<std::size_t>(sets_) * ways_, kNoTag);
  nc_listed_.assign(static_cast<std::size_t>(sets_) * ways_, 0);
}

L1Line L1Cache::fill(LineAddr line, bool nc, Mesi coh, bool dirty, std::uint64_t version,
                     L1Line** installed) {
  RACCD_DEBUG_ASSERT(find(line) == nullptr, "fill of already-resident line");
  const std::uint32_t set = set_of(line);
  std::uint32_t way = ways_;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (!at(set, w).valid) {
      way = w;
      break;
    }
  }
  L1Line evicted{};
  if (way == ways_) {
    way = repl_.victim(set);
    evicted = at(set, way);
    --valid_count_;
  }
  at(set, way) = L1Line{line, true, nc, dirty, nc ? Mesi::kInvalid : coh, version};
  set_tag(set, way, line);
  ++valid_count_;
  repl_.touch(set, way);
  const std::uint32_t slot = set * ways_ + way;
  if (nc && nc_listed_[slot] == 0) {
    nc_listed_[slot] = 1;
    nc_slots_.push_back(slot);
  }
  if (installed != nullptr) *installed = &lines_[slot];
  return evicted;
}

L1Line L1Cache::invalidate(LineAddr line) noexcept {
  L1Line* l = find(line);
  if (l == nullptr) return L1Line{};
  const L1Line old = *l;
  *l = L1Line{};
  const auto idx = static_cast<std::size_t>(l - lines_.data());
  tags_[idx] = kNoTag;
  --valid_count_;
  return old;
}

}  // namespace raccd
