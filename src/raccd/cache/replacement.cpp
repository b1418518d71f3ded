#include "raccd/cache/replacement.hpp"

#include "raccd/common/assert.hpp"
#include "raccd/common/bits.hpp"

namespace raccd {

ReplacementState::ReplacementState(std::uint32_t sets, std::uint32_t ways)
    : sets_(sets), ways_(ways) {
  RACCD_ASSERT(sets > 0 && ways > 0, "degenerate cache geometry");
  RACCD_ASSERT(is_pow2(ways) && ways <= 64, "tree-PLRU requires pow2 ways <= 64");
  levels_ = log2_exact(ways);
  tree_.assign(sets, 0);
}

void ReplacementState::touch(std::uint32_t set, std::uint32_t way) noexcept {
  RACCD_DEBUG_ASSERT(set < sets_ && way < ways_, "touch out of range");
  if (levels_ == 0) return;
  // Walk root->leaf; at each level point the tree bit AWAY from `way`
  // (victim() follows the bits: 0 = left, 1 = right).
  std::uint64_t bits = tree_[set];
  std::uint32_t node = 0;  // heap-style index, root = 0
  for (unsigned level = 0; level < levels_; ++level) {
    const std::uint32_t bit = (way >> (levels_ - 1 - level)) & 1u;
    if (bit != 0) {
      bits &= ~(1ULL << node);  // way is in right subtree -> point left (0)
    } else {
      bits |= (1ULL << node);  // way is in left subtree -> point right (1)
    }
    node = 2 * node + 1 + bit;
  }
  tree_[set] = bits;
}

std::uint32_t ReplacementState::victim(std::uint32_t set) const noexcept {
  RACCD_DEBUG_ASSERT(set < sets_, "victim out of range");
  if (levels_ == 0) return 0;
  const std::uint64_t bits = tree_[set];
  std::uint32_t node = 0;
  std::uint32_t way = 0;
  for (unsigned level = 0; level < levels_; ++level) {
    const std::uint32_t bit = static_cast<std::uint32_t>((bits >> node) & 1u);
    way = (way << 1) | bit;
    node = 2 * node + 1 + bit;
  }
  return way;
}

}  // namespace raccd
