// File-backed SimStats cache: one key=value text file per run spec.
// The format version is baked into the key, so stale results from older
// model revisions are never reused.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "raccd/sim/stats.hpp"

namespace raccd {

/// Bump when the simulation model or stats layout changes.
/// v5: coherence-backend seam — task-end ADR evaluation is a single
/// poll_all (the redundant dirty-bank poll is gone), so RaCCD+ADR numbers
/// can differ from v4 caches.
inline constexpr unsigned kStatsFormatVersion = 5;

[[nodiscard]] std::string stats_to_text(const SimStats& s);
[[nodiscard]] std::optional<SimStats> stats_from_text(const std::string& text);

/// Load a cached result for `key` from `dir` (nullopt on miss/corruption).
[[nodiscard]] std::optional<SimStats> cache_load(const std::string& dir,
                                                 const std::string& key);
/// Store a result under `dir` (nested directories are created as needed).
/// The entry appears under its name complete or not at all, replacing any
/// entry already there. Returns false when the directory cannot be created
/// or the write fails — callers decide whether to report (run_all does,
/// under --verbose).
bool cache_store(const std::string& dir, const std::string& key, const SimStats& s);

namespace detail {
/// The store cache_store falls back to when the filesystem has no
/// O_TMPFILE: write a uniquely named temp file beside `path`, then rename
/// it onto `path`. Declared here for its test.
bool publish_by_rename(const std::string& path, std::string_view text);
}  // namespace detail

}  // namespace raccd
