#include "raccd/cache/llc_bank.hpp"

#include "raccd/common/assert.hpp"
#include "raccd/common/bits.hpp"

namespace raccd {

LlcBank::LlcBank(const LlcGeometry& geo)
    : sets_(geo.sets()),
      ways_(geo.ways),
      bank_bits_(geo.bank_bits),
      repl_(geo.sets(), geo.ways) {
  RACCD_ASSERT(is_pow2(sets_), "LLC bank set count must be a power of two");
  lines_.resize(static_cast<std::size_t>(sets_) * ways_);
  tags_.assign(static_cast<std::size_t>(sets_) * ways_, kNoTag);
}

LlcLine* LlcBank::find(LineAddr line) noexcept {
  const std::uint32_t set = set_of(line);
  const LineAddr* tags = tags_.data() + static_cast<std::size_t>(set) * ways_;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (tags[w] == line) return &at(set, w);
  }
  return nullptr;
}

void LlcBank::touch(const LlcLine& l) noexcept {
  const auto idx = static_cast<std::size_t>(&l - lines_.data());
  repl_.touch(static_cast<std::uint32_t>(idx / ways_),
              static_cast<std::uint32_t>(idx % ways_));
}

LlcLine LlcBank::peek_victim(LineAddr line) noexcept {
  const std::uint32_t set = set_of(line);
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (!at(set, w).valid) return LlcLine{};  // free way available
  }
  return at(set, repl_.victim(set));
}

LlcLine& LlcBank::fill(LineAddr line, bool nc, bool dirty, std::uint64_t version) {
  RACCD_DEBUG_ASSERT(find(line) == nullptr, "LLC fill of resident line");
  const std::uint32_t set = set_of(line);
  for (std::uint32_t w = 0; w < ways_; ++w) {
    LlcLine& l = at(set, w);
    if (!l.valid) {
      l = LlcLine{line, true, dirty, nc, version};
      set_tag(set, w, line);
      ++valid_count_;
      repl_.touch(set, w);
      return l;
    }
  }
  RACCD_ASSERT(false, "LLC fill with no free way (victim not evicted by caller)");
  return at(set, 0);
}

LlcLine LlcBank::invalidate(LineAddr line) noexcept {
  LlcLine* l = find(line);
  if (l == nullptr) return LlcLine{};
  const LlcLine old = *l;
  *l = LlcLine{};
  const auto idx = static_cast<std::size_t>(l - lines_.data());
  tags_[idx] = kNoTag;
  --valid_count_;
  return old;
}

}  // namespace raccd
