#include "raccd/harness/sweep_cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "raccd/common/format.hpp"

namespace raccd {
namespace {

// The v5 text layout: `format=5`, then one `key=value` line per SimStats
// leaf field, sorted by key. A key is its struct's prefix plus the member
// name. A nested struct's prefix is "<outer prefix><member>_", except for
// the spellings in spelled() and noc.per_class[i] = "noc<i>_". Integers are
// decimal, doubles %.17g. The sampling and service blocks are written only
// when their first field (`active`, `requests`) is non-zero, so detailed
// batch entries keep the bytes they had before those blocks existed.

/// Largest value an integer-typed field may hold.
template <class T>
constexpr std::uint64_t kMaxValue = std::numeric_limits<T>::max();
template <>
constexpr std::uint64_t kMaxValue<bool> = 1;
template <>
constexpr std::uint64_t kMaxValue<CohMode> = kAllBackends.size() - 1;

/// Parses all of `v` as a T: no sign or space the type does not take, no
/// trailing characters, no overflow.
template <class T>
bool parse_all(std::string_view v, T& out) {
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc() && end == v.data() + v.size();
}

template <class T>
void put(std::string& out, const void* field) {
  const T& v = *static_cast<const T*>(field);
  if constexpr (std::is_same_v<T, double>) {
    out += strprintf("%.17g", v);
  } else {
    out += std::to_string(static_cast<std::uint64_t>(v));
  }
}

template <class T>
bool get(std::string_view text, void* field) {
  T& v = *static_cast<T*>(field);
  if constexpr (std::is_same_v<T, double>) {
    return parse_all(text, v);
  } else {
    std::uint64_t u = 0;
    if (!parse_all(text, u) || u > kMaxValue<T>) return false;
    v = static_cast<T>(u);
    return true;
  }
}

static_assert(std::is_standard_layout_v<SimStats>, "fields are addressed by offset");
static_assert(offsetof(SamplingStats, active) == 0 && offsetof(ServiceStats, requests) == 0 &&
                  std::is_same_v<decltype(SamplingStats::active), std::uint64_t> &&
                  std::is_same_v<decltype(ServiceStats::requests), std::uint64_t>,
              "a gated block's gate is its first field, a std::uint64_t");
constexpr std::size_t kNoGate = static_cast<std::size_t>(-1);

struct Slot {
  std::string key;
  std::size_t offset;  ///< of the field within SimStats
  std::size_t gate;    ///< offset of its block's gate field, or kNoGate
  void (*put)(std::string&, const void*);
  bool (*get)(std::string_view, void*);
};

std::string spelled(const std::string& prefix) {
  if (prefix == "fabric_") return "";
  if (prefix == "noc_cross_socket_") return "noc_cross_";
  if (prefix == "service_queueing_") return "service_queue_";
  if (prefix == "service_service_") return "service_svc_";
  return prefix;
}

/// Appends a slot for every leaf field of `s`, which lies inside `root`.
template <class S>
void add_slots(std::vector<Slot>& slots, const SimStats& root, const S& s,
               const std::string& prefix, std::size_t gate) {
  const auto offset_of = [&root](const auto& v) {
    return static_cast<std::size_t>(reinterpret_cast<const char*>(&v) -
                                    reinterpret_cast<const char*>(&root));
  };
  S::for_each_field([&](const std::string& name, auto member) {
    const auto& v = s.*member;
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (FieldList<T>) {
      // A gated block's gate is its first field, at the block's offset.
      const bool gated =
          std::is_same_v<S, SimStats> && (name == "sampling" || name == "service");
      add_slots(slots, root, v, spelled(prefix + name + "_"), gated ? offset_of(v) : gate);
    } else if constexpr (requires { std::tuple_size<T>::value; }) {
      for (std::size_t i = 0; i < v.size(); ++i) {
        add_slots(slots, root, v[i],
                  prefix.substr(0, prefix.size() - 1) + std::to_string(i) + "_", gate);
      }
    } else {
      slots.push_back(Slot{prefix + name, offset_of(v), gate, &put<T>, &get<T>});
    }
  });
}

/// Every leaf field of SimStats, sorted by key (the file order).
const std::vector<Slot>& layout() {
  static const std::vector<Slot> kSlots = [] {
    std::vector<Slot> slots;
    const SimStats root;
    add_slots(slots, root, root, "", kNoGate);
    std::sort(slots.begin(), slots.end(),
              [](const Slot& a, const Slot& b) { return a.key < b.key; });
    return slots;
  }();
  return kSlots;
}

void* field(SimStats& s, std::size_t offset) { return reinterpret_cast<char*>(&s) + offset; }
const void* field(const SimStats& s, std::size_t offset) {
  return reinterpret_cast<const char*>(&s) + offset;
}

/// Whether the field's block is present.
bool block_on(const SimStats& s, const Slot& f) {
  return f.gate == kNoGate || *static_cast<const std::uint64_t*>(field(s, f.gate)) != 0;
}

}  // namespace

std::string stats_to_text(const SimStats& s) {
  std::string out = strprintf("format=%u\n", kStatsFormatVersion);
  out.reserve(4096);
  for (const Slot& f : layout()) {
    if (!block_on(s, f)) continue;
    out += f.key;
    out += '=';
    f.put(out, field(s, f.offset));
    out += '\n';
  }
  return out;
}

std::optional<SimStats> stats_from_text(const std::string& text) {
  const std::vector<Slot>& slots = layout();
  SimStats s;
  std::vector<bool> seen(slots.size());
  bool version_ok = false;
  std::string_view rest = text;
  while (!rest.empty()) {
    const std::size_t nl = rest.find('\n');
    const std::string_view line = rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view() : rest.substr(nl + 1);
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) continue;
    const std::string_view k = line.substr(0, eq);
    const std::string_view v = line.substr(eq + 1);
    if (k == "format") {
      unsigned version = 0;
      version_ok = parse_all(v, version) && version == kStatsFormatVersion;
      continue;
    }
    const auto it = std::lower_bound(
        slots.begin(), slots.end(), k,
        [](const Slot& f, std::string_view key) { return f.key < key; });
    if (it == slots.end() || it->key != k) continue;  // not a v5 key
    if (!it->get(v, field(s, it->offset))) return std::nullopt;
    seen[static_cast<std::size_t>(it - slots.begin())] = true;
  }
  if (!version_ok) return std::nullopt;
  // Exactly the keys stats_to_text writes for these values: a missing one
  // means a truncated entry, which must be a miss rather than zeros.
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Slot& f = slots[i];
    if (f.gate != f.offset && seen[i] != block_on(s, f)) return std::nullopt;
  }
  return s;
}

namespace {

// Cache keys become single filenames: map path separators and other
// filesystem-hostile characters to '_' (identity for legacy keys, which
// only contain [A-Za-z0-9.{}=,:-]).
[[nodiscard]] std::string key_filename(const std::string& key) {
  std::string out = key;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '{' || c == '}' ||
                    c == '=' || c == ',' || c == ':' || c == '-' || c == '_';
    if (!ok) c = '_';
  }
  return out + ".stats";
}

}  // namespace

std::optional<SimStats> cache_load(const std::string& dir, const std::string& key) {
  std::error_code ec;
  const std::filesystem::path path = std::filesystem::path(dir) / key_filename(key);
  if (!std::filesystem::exists(path, ec)) return std::nullopt;
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return stats_from_text(text);
}

bool cache_store(const std::string& dir, const std::string& key, const SimStats& s) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;
  if (!std::filesystem::is_directory(dir, ec)) return false;
  // Write-to-temp + rename so concurrent executor workers (or bench
  // binaries sharing one cache) never observe a truncated entry; the rename
  // makes same-key races benign — the model is deterministic, so the last
  // writer wins with identical bytes. The tmp name must be unique across
  // every concurrent writer: pid (thread-id hashes can collide across
  // processes) + thread id + a per-process sequence number (two stores from
  // one worker can otherwise alias under recycled thread ids).
  static std::atomic<unsigned long long> seq{0};
  const std::filesystem::path path = std::filesystem::path(dir) / key_filename(key);
  const std::filesystem::path tmp =
      path.string() +
      strprintf(".tmp.%ld.%llu.%llu", static_cast<long>(::getpid()),
                static_cast<unsigned long long>(
                    std::hash<std::thread::id>{}(std::this_thread::get_id())),
                seq.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << stats_to_text(s);
    if (!out) {
      out.close();
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

}  // namespace raccd
