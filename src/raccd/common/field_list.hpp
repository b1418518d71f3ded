// Field lists: a stats struct declares each member once, as a row of an
// X-macro list kept beside it. A row is X(type, member) or, for a non-zero
// initial value, X(type, member, value); the member's doc is a /* */
// comment after the row. RACCD_FIELDS(Struct, LIST) in the struct body
// generates the members in row order and a static for_each_field(f) that
// calls f("member", &Struct::member) per row. Merging, sampled scale-up and
// the stats cache are loops over those calls, so a new counter is one row
// (plus a MetricSchema descriptor if it is reported).
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>

#define RACCD_FIELD_MEMBER(type, name, ...) type name{__VA_ARGS__};
#define RACCD_FIELD_VISIT(type, name, ...) f(#name, &Self::name);
#define RACCD_FIELDS(Struct, LIST)              \
  LIST(RACCD_FIELD_MEMBER)                      \
  template <class F>                            \
  static constexpr void for_each_field(F&& f) { \
    using Self = Struct;                        \
    LIST(RACCD_FIELD_VISIT)                     \
  }

namespace raccd {

/// A struct declared through RACCD_FIELDS.
template <class T>
concept FieldList = requires { T::for_each_field([](const char*, auto) {}); };

/// Calls f(leaf, rest_leaf...) for every scalar member of `v`, in
/// declaration order, descending into nested field lists and std::array
/// elements. `rest` are values of the same type walked in lockstep.
template <class F, class V, class... Rest>
constexpr void for_each_leaf(F&& f, V& v, Rest&... rest) {
  using T = std::remove_const_t<V>;
  if constexpr (FieldList<T>) {
    T::for_each_field(
        [&](const char*, auto member) { for_each_leaf(f, v.*member, rest.*member...); });
  } else if constexpr (requires { std::tuple_size<T>::value; }) {
    for (std::size_t i = 0; i < v.size(); ++i) for_each_leaf(f, v[i], rest[i]...);
  } else {
    f(v, rest...);
  }
}

/// a += b, member by member.
template <FieldList S>
constexpr void add_fields(S& a, const S& b) noexcept {
  for_each_leaf([](auto& x, const auto& y) { x += y; }, a, b);
}

}  // namespace raccd
