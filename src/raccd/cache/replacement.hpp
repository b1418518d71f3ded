// Replacement state for the set-associative structures (L1, LLC banks,
// directory banks): tree-PLRU, the paper's pseudoLRU (Table I), is the one
// policy every structure of the modelled machine uses.
#pragma once

#include <cstdint>
#include <vector>

namespace raccd {

/// Tree-PLRU state for one cache, all sets: ways-1 tree bits per set packed
/// in a uint64 (ways <= 64, power-of-two).
class ReplacementState {
 public:
  ReplacementState(std::uint32_t sets, std::uint32_t ways);

  /// Record an access to (set, way). Out of line on purpose: inlined into
  /// the machine's replay loops, the tree walk slowed them (see DESIGN.md).
  void touch(std::uint32_t set, std::uint32_t way) noexcept;

  /// Way to evict in `set` (callers prefer invalid ways before asking).
  [[nodiscard]] std::uint32_t victim(std::uint32_t set) const noexcept;

  [[nodiscard]] std::uint32_t ways() const noexcept { return ways_; }

 private:
  std::uint32_t sets_;
  std::uint32_t ways_;
  unsigned levels_ = 0;              // log2(ways)
  std::vector<std::uint64_t> tree_;  // tree bits per set
};

}  // namespace raccd
