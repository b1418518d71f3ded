#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <type_traits>
#include <vector>

#include "raccd/common/field_list.hpp"
#include "raccd/harness/experiment.hpp"
#include "raccd/harness/sweep_cache.hpp"
#include "raccd/harness/table.hpp"
#include "raccd/metrics/metric_schema.hpp"

namespace raccd {
namespace {

TEST(RunSpec, KeyIsStableAndDistinguishes) {
  RunSpec a;
  a.app = "jacobi";
  RunSpec b = a;
  EXPECT_EQ(a.key(), b.key());
  b.dir_ratio = 64;
  EXPECT_NE(a.key(), b.key());
  b = a;
  b.mode = CohMode::kRaCCD;
  EXPECT_NE(a.key(), b.key());
  b = a;
  b.adr = true;
  EXPECT_NE(a.key(), b.key());
}

TEST(RunSpec, ConfigReflectsSpec) {
  RunSpec spec;
  spec.mode = CohMode::kRaCCD;
  spec.dir_ratio = 16;
  spec.adr = true;
  spec.ncrt_latency = 5;
  const SimConfig cfg = config_for(spec);
  EXPECT_EQ(cfg.mode, CohMode::kRaCCD);
  EXPECT_EQ(cfg.dir_ratio(), 16u);
  EXPECT_TRUE(cfg.adr.enabled);
  EXPECT_EQ(cfg.raccd.ncrt_lookup_cycles, 5u);
}

TEST(StatsIo, RoundTrip) {
  SimStats s;
  s.mode = CohMode::kPT;
  s.dir_ratio = 64;
  s.cycles = 123456789;
  s.fabric.dir_accesses = 42;
  s.fabric.e_dir_pj = 3.14159;
  s.noc.per_class[1].flit_hops = 77;
  s.avg_dir_occupancy = 0.123456789;
  s.tasks = 5;
  const std::string text = stats_to_text(s);
  const auto back = stats_from_text(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->mode, CohMode::kPT);
  EXPECT_EQ(back->dir_ratio, 64u);
  EXPECT_EQ(back->cycles, 123456789u);
  EXPECT_EQ(back->fabric.dir_accesses, 42u);
  EXPECT_DOUBLE_EQ(back->fabric.e_dir_pj, 3.14159);
  EXPECT_EQ(back->noc.per_class[1].flit_hops, 77u);
  EXPECT_DOUBLE_EQ(back->avg_dir_occupancy, 0.123456789);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// A committed v5 entry holding every key, the sampling and service blocks
// included. Line n (1-based, `format=5` is line 1) holds n for integers and
// n + 0.25 for doubles, except `mode` (a real CohMode, 3 = WbNC) and
// `adr_enabled` (1). Loading and re-serializing it must reproduce it byte
// for byte: this pins every v5 key name, its type, and both gated blocks.
TEST(StatsIo, GoldenEntryRoundTripsByteForByte) {
  const std::string golden = read_file(RACCD_TEST_DATA_DIR "/stats_v5_golden.stats");
  ASSERT_FALSE(golden.empty());
  const auto s = stats_from_text(golden);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(stats_to_text(*s), golden);

  // One member per struct, read back from the line that holds it.
  EXPECT_EQ(s->mode, CohMode::kWbNC);
  EXPECT_TRUE(s->adr_enabled);
  EXPECT_EQ(s->dir_ratio, 29u);
  EXPECT_EQ(s->cycles, 19u);
  EXPECT_DOUBLE_EQ(s->core_utilization, 17.25);
  EXPECT_EQ(s->fabric.l1_hits, 56u);
  EXPECT_DOUBLE_EQ(s->fabric.e_mem_pj, 41.25);
  EXPECT_EQ(s->noc.per_class[2].flits, 91u);
  EXPECT_EQ(s->noc.cross_socket.flit_hops, 99u);
  EXPECT_EQ(s->noc.socket_link_flits, 102u);
  EXPECT_EQ(s->ncrt.overflows, 83u);
  EXPECT_EQ(s->tlb.misses, 148u);
  EXPECT_EQ(s->pt.transitions, 106u);
  EXPECT_EQ(s->adr.entries_moved, 6u);
  EXPECT_EQ(s->sampling.active, 108u);
  EXPECT_DOUBLE_EQ(s->sampling.scale, 121.25);
  EXPECT_EQ(s->service.requests, 137u);
  EXPECT_EQ(s->service.queueing.count, 131u);
  EXPECT_DOUBLE_EQ(s->service.service.p95, 142.25);
  EXPECT_DOUBLE_EQ(s->service.e2e.max, 126.25);
}

// Entries written before the dynamic-energy totals were read from
// `fabric.e_*_pj` also carry five `*_dyn_energy_pj` mirror lines. They stay
// v5 entries: the loader skips the retired keys, so such an entry loads to
// the same values and re-serializes to today's bytes.
TEST(StatsIo, EntryWithRetiredEnergyMirrorsLoadsToEqualValues) {
  const std::string golden = read_file(RACCD_TEST_DATA_DIR "/stats_v5_golden.stats");
  const std::string with_mirrors = golden +
                                   "dir_dyn_energy_pj=37.25\n"
                                   "llc_dyn_energy_pj=39.25\n"
                                   "noc_dyn_energy_pj=45.25\n"
                                   "mem_dyn_energy_pj=41.25\n"
                                   "l1_dyn_energy_pj=38.25\n";
  const auto want = stats_from_text(golden);
  const auto got = stats_from_text(with_mirrors);
  ASSERT_TRUE(want.has_value());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(stats_to_text(*got), golden);
  std::size_t leaves = 0, equal = 0;
  for_each_leaf(
      [&](const auto& a, const auto& b) {
        ++leaves;
        equal += std::memcmp(&a, &b, sizeof a) == 0 ? 1 : 0;
      },
      *want, *got);
  EXPECT_EQ(equal, leaves);
}

// The loader expects lines in the order stats_to_text writes them, but it
// looks up any other key by name: the golden entry with its lines reversed,
// a retired key in the middle and an earlier repeat of `cycles` loads to the
// same values, and of repeated lines the last one wins.
TEST(StatsIo, AcceptsLinesInAnyOrder) {
  const std::string golden = read_file(RACCD_TEST_DATA_DIR "/stats_v5_golden.stats");
  std::vector<std::string> lines;
  std::istringstream in(golden);
  for (std::string line; std::getline(in, line);) lines.push_back(line + "\n");
  ASSERT_GT(lines.size(), 100u);
  std::reverse(lines.begin(), lines.end());
  lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(lines.size() / 2),
               "l1_dyn_energy_pj=38.25\n");
  std::string shuffled = "cycles=1\n";
  for (const std::string& line : lines) shuffled += line;
  ASSERT_NE(shuffled.find("cycles=19\n"), std::string::npos);

  const auto got = stats_from_text(shuffled);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(stats_to_text(*got), golden);

  const auto repeated = stats_from_text(shuffled + "cycles=7\n");
  ASSERT_TRUE(repeated.has_value());
  EXPECT_EQ(repeated->cycles, 7u);
}

TEST(StatsIo, RejectsWrongVersion) {
  EXPECT_FALSE(stats_from_text("format=0\ncycles=5\n").has_value());
  EXPECT_FALSE(stats_from_text("garbage").has_value());
}

/// `text` with the value of `key` replaced (or its line dropped when
/// `value` is null).
std::string with_value(const std::string& text, const std::string& key, const char* value) {
  std::istringstream in(text);
  std::string out, line;
  bool found = false;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size() + 1, key + "=") == 0) {
      found = true;
      if (value == nullptr) continue;
      line = key + "=" + value;
    }
    out += line + "\n";
  }
  EXPECT_TRUE(found) << key;
  return out;
}

// A cache hit must be a complete, well-formed entry: anything else is a
// miss (nullopt), so the spec is simulated again rather than served zeros.
TEST(StatsIo, RejectsTruncatedOrGarbledEntries) {
  SimStats s;
  s.cycles = 12;
  s.tasks = 3;
  const std::string text = stats_to_text(s);
  ASSERT_TRUE(stats_from_text(text).has_value());

  EXPECT_FALSE(stats_from_text("format=5\n").has_value());
  EXPECT_FALSE(stats_from_text(with_value(text, "l1_hits", nullptr)).has_value());
  EXPECT_FALSE(stats_from_text(with_value(text, "format", "5x")).has_value());
  for (const auto& [key, value] : std::vector<std::pair<std::string, const char*>>{
           {"tasks", "-1"},
           {"cycles", "12abc"},
           {"cycles", ""},
           {"cycles", " 12"},
           {"cycles", "+12"},
           {"cycles", "18446744073709551616"},  // 2^64
           {"dir_ratio", "4294967296"},         // 2^32
           {"adr_enabled", "2"},
           {"mode", "4"},
           {"avg_dir_occupancy", "0.5x"},
           {"avg_dir_occupancy", "x"},
       }) {
    EXPECT_FALSE(stats_from_text(with_value(text, key, value)).has_value())
        << key << "=" << value;
  }

  // Once a gated block's gate key is present, every key of the block is
  // expected; without the gate, none of them may appear.
  SimStats sampled = s;
  sampled.sampling.active = 1;
  const std::string sampled_text = stats_to_text(sampled);
  ASSERT_TRUE(stats_from_text(sampled_text).has_value());
  EXPECT_FALSE(stats_from_text(with_value(sampled_text, "sampling_scale", nullptr)).has_value());
  EXPECT_FALSE(stats_from_text(with_value(sampled_text, "sampling_active", nullptr)).has_value());
  SimStats service = s;
  service.service.requests = 4;
  const std::string service_text = stats_to_text(service);
  ASSERT_TRUE(stats_from_text(service_text).has_value());
  EXPECT_FALSE(stats_from_text(with_value(service_text, "service_e2e_p99", nullptr)).has_value());
}

TEST(StatsIo, AcceptsEveryDoubleTheWriterEmits) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const double v : {0.0, -0.0, 0.1, -2.5, 1e300, 5e-324, 2.2250738585072014e-308,
                         std::numeric_limits<double>::max(), 0.12345678901234568, kInf, -kInf,
                         kNan, -kNan}) {
    SimStats s;
    s.avg_dir_occupancy = v;
    const std::string text = stats_to_text(s);
    const auto back = stats_from_text(text);
    ASSERT_TRUE(back.has_value()) << text;
    if (std::isnan(v)) {
      EXPECT_TRUE(std::isnan(back->avg_dir_occupancy)) << text;
    } else {
      EXPECT_EQ(back->avg_dir_occupancy, v) << text;
      EXPECT_EQ(std::signbit(back->avg_dir_occupancy), std::signbit(v)) << text;
    }
  }
}

/// Changes a leaf to another valid value of its type; `target` (the leaf's
/// for_each_leaf index) keeps the values of different leaves distinct.
template <class Leaf>
void perturb(Leaf& v, std::size_t target) {
  if constexpr (std::is_same_v<Leaf, bool>) {
    v = !v;
  } else if constexpr (std::is_same_v<Leaf, CohMode>) {
    v = CohMode::kWbNC;
  } else if constexpr (std::is_same_v<Leaf, double>) {
    v += 0.5 + static_cast<double>(target);
  } else {
    v = static_cast<Leaf>(v + 2 + target);
  }
}

template <class Leaf, class Block>
bool inside(const Leaf& leaf, const Block& block) {
  const auto* p = reinterpret_cast<const char*>(&leaf);
  const auto* b = reinterpret_cast<const char*>(&block);
  return p >= b && p < b + sizeof(Block);
}

std::size_t leaf_count() {
  SimStats probe;
  std::size_t n = 0;
  for_each_leaf([&n](const auto&) { ++n; }, probe);
  return n;
}

// Every SimStats leaf, set alone (plus its block's gate), survives
// stats_to_text -> stats_from_text: each field has a key, and the key is
// read back into the same member.
TEST(StatsIo, EveryFieldRoundTripsAlone) {
  // One key per leaf once both gated blocks are present.
  SimStats gated;
  gated.sampling.active = 1;
  gated.service.requests = 1;
  const std::string all_keys = stats_to_text(gated);
  const std::size_t n = leaf_count();
  ASSERT_EQ(n + 1, static_cast<std::size_t>(std::count(all_keys.begin(), all_keys.end(), '\n')));
  for (std::size_t target = 0; target < n; ++target) {
    SimStats s;
    std::size_t i = 0;
    for_each_leaf(
        [&](auto& v) {
          if (i++ != target) return;
          perturb(v, target);
          if (inside(v, s.sampling) && s.sampling.active == 0) s.sampling.active = 1;
          if (inside(v, s.service) && s.service.requests == 0) s.service.requests = 1;
        },
        s);
    const std::string text = stats_to_text(s);
    const auto back = stats_from_text(text);
    ASSERT_TRUE(back.has_value()) << text;
    i = 0;
    for_each_leaf(
        [&](const auto& got, const auto& want) {
          EXPECT_TRUE(got == want) << "leaf " << i << " (set: leaf " << target << ")\n" << text;
          ++i;
        },
        *back, s);
  }
}

TEST(SweepCache, StoreAndLoad) {
  const std::string dir = "test_cache_tmp";
  SimStats s;
  s.cycles = 999;
  cache_store(dir, "unit-key", s);
  const auto loaded = cache_load(dir, "unit-key");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->cycles, 999u);
  EXPECT_FALSE(cache_load(dir, "missing-key").has_value());
  std::filesystem::remove_all(dir);
}

std::vector<std::string> file_names(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    names.push_back(e.path().filename().string());
  }
  return names;
}

// An entry that does not load is a miss, and the store that follows must
// replace it in place: no second file, no temp file left behind.
TEST(SweepCache, StoreReplacesGarbledEntry) {
  const std::string dir = "test_cache_garbled";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/unit-key.stats") << "format=5\ncycles=junk\n";
  EXPECT_FALSE(cache_load(dir, "unit-key").has_value());

  SimStats s;
  s.cycles = 999;
  s.tasks = 7;
  EXPECT_TRUE(cache_store(dir, "unit-key", s));
  const auto loaded = cache_load(dir, "unit-key");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(stats_to_text(*loaded), stats_to_text(s));
  EXPECT_EQ(read_file(dir + "/unit-key.stats"), stats_to_text(s));
  EXPECT_EQ(file_names(dir), std::vector<std::string>{"unit-key.stats"});
  std::filesystem::remove_all(dir);
}

// The store for filesystems without O_TMPFILE publishes the same bytes
// under the same name, replaces what is there and leaves no temp file.
TEST(SweepCache, RenameFallbackReplacesEntry) {
  const std::string dir = "test_cache_rename";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/unit-key.stats") << "junk";
  SimStats s;
  s.cycles = 999;
  ASSERT_TRUE(cache_store(dir, "other-key", s));
  EXPECT_TRUE(detail::publish_by_rename(dir + "/unit-key.stats", stats_to_text(s)));
  EXPECT_EQ(read_file(dir + "/unit-key.stats"), read_file(dir + "/other-key.stats"));
  const auto loaded = cache_load(dir, "unit-key");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->cycles, 999u);
  std::vector<std::string> names = file_names(dir);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"other-key.stats", "unit-key.stats"}));
  EXPECT_FALSE(detail::publish_by_rename(dir + "/missing/unit-key.stats", "x"));
  std::filesystem::remove_all(dir);
}

TEST(RunAll, ParallelAndCached) {
  const std::string dir = "test_cache_runall";
  std::filesystem::remove_all(dir);
  std::vector<RunSpec> specs;
  for (const CohMode mode : kAllModes) {
    RunSpec s;
    s.app = "histo";
    s.size = SizeClass::kTiny;
    s.mode = mode;
    specs.push_back(s);
  }
  RunOptions opts;
  opts.jobs = 3;
  opts.cache_dir = dir;
  const auto first = run_all(specs, opts);
  ASSERT_EQ(first.size(), 3u);
  for (const auto& s : first) EXPECT_GT(s.cycles, 0u);
  // Second invocation must be served from the cache with identical numbers.
  const auto second = run_all(specs, opts);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(first[i].cycles, second[i].cycles);
    EXPECT_EQ(first[i].fabric.dir_accesses, second[i].fabric.dir_accesses);
  }
  std::filesystem::remove_all(dir);
}

TEST(TextTable, PrintsAlignedAndCsv) {
  TextTable t({"app", "value"});
  t.add_row({"jacobi", "1.00"});
  t.add_separator();
  t.add_row({"avg", "2.00"});
  // Render to a temp file and check content.
  const char* path = "test_table_tmp.txt";
  std::FILE* f = std::fopen(path, "w");
  t.print(f);
  std::fclose(f);
  std::string content;
  {
    std::FILE* in = std::fopen(path, "r");
    char buf[256];
    while (std::fgets(buf, sizeof buf, in) != nullptr) content += buf;
    std::fclose(in);
  }
  EXPECT_NE(content.find("jacobi"), std::string::npos);
  EXPECT_NE(content.find("| app"), std::string::npos);
  std::remove(path);

  EXPECT_TRUE(t.write_csv("test_csv_tmp/out.csv"));
  std::string csv;
  {
    std::FILE* in = std::fopen("test_csv_tmp/out.csv", "r");
    char buf[256];
    while (std::fgets(buf, sizeof buf, in) != nullptr) csv += buf;
    std::fclose(in);
  }
  EXPECT_EQ(csv, "app,value\njacobi,1.00\navg,2.00\n");
  std::filesystem::remove_all("test_csv_tmp");
}

TEST(BenchOptions, ParsesFlags) {
  const char* argv[] = {"bench", "--size=tiny", "--paper", "--no-cache", "--jobs=7"};
  const auto o = BenchOptions::parse(5, const_cast<char**>(argv));
  EXPECT_EQ(o.size, SizeClass::kTiny);
  EXPECT_TRUE(o.paper_machine);
  EXPECT_FALSE(o.run.use_cache);
  EXPECT_EQ(o.run.jobs, 7u);
}

TEST(BenchOptions, JobsSpellings) {
  {  // -jN short form
    const char* argv[] = {"bench", "-j4"};
    EXPECT_EQ(BenchOptions::parse(2, const_cast<char**>(argv)).run.jobs, 4u);
  }
  {  // --jobs N two-argument form
    const char* argv[] = {"bench", "--jobs", "9"};
    EXPECT_EQ(BenchOptions::parse(3, const_cast<char**>(argv)).run.jobs, 9u);
  }
}

TEST(SizeClass, ParseInvertsToString) {
  for (const SizeClass c : {SizeClass::kTiny, SizeClass::kSmall, SizeClass::kMedium,
                            SizeClass::kPaper, SizeClass::kLarge}) {
    EXPECT_EQ(parse_size_class(to_string(c)), c);
  }
  EXPECT_EQ(parse_size_class("smal"), std::nullopt);
  EXPECT_EQ(parse_size_class(""), std::nullopt);
  EXPECT_EQ(parse_size_class("Tiny"), std::nullopt);
}

TEST(BenchOptionsDeathTest, UnknownSizeExitsWithMessage) {
  const char* argv[] = {"bench", "--size=smal"};
  EXPECT_EXIT((void)BenchOptions::parse(2, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "--size smal");
  EXPECT_EXIT(
      {
        setenv("RACCD_SIZE", "bogus", 1);
        (void)BenchOptions::parse(1, const_cast<char**>(argv));
      },
      ::testing::ExitedWithCode(2), "--size bogus");
}

// Stored fields that no MetricSchema value reads, by cache key: the run's
// identity, the sampling gate and the distribution sample counts.
const std::set<std::string> kCacheOnlyKeys = {
    "mode", "dir_ratio", "adr_enabled",
    "sampling_active",
    "service_queue_count", "service_svc_count", "service_e2e_count",
};

bool same_metrics(const SimStats& a, const SimStats& b) {
  for (const MetricDesc& m : MetricSchema::instance().all()) {
    const MetricValue x = m.value(a), y = m.value(b);
    if (x.is_int != y.is_int || x.u != y.u ||
        std::memcmp(&x.d, &y.d, sizeof x.d) != 0) {
      return false;
    }
  }
  return true;
}

// Perturbing any stored field changes at least one schema value, except
// for the cache-only fields above: a new counter cannot go unreported
// unless it is added to that list.
TEST(MetricSchema, EveryStoredFieldReachesAMetric) {
  SimStats base;
  base.sampling.active = 1;
  base.service.requests = 1;
  const std::string base_text = stats_to_text(base);
  std::set<std::string> unreported;
  for (std::size_t target = 0; target < leaf_count(); ++target) {
    SimStats s = base;
    std::size_t i = 0;
    for_each_leaf([&](auto& v) { if (i++ == target) perturb(v, target); }, s);
    // The perturbed field's key: the one line that differs from base_text.
    std::istringstream want(base_text), got(stats_to_text(s));
    std::string a, b, key;
    while (std::getline(want, a) && std::getline(got, b)) {
      if (a == b) continue;
      EXPECT_TRUE(key.empty()) << "leaf " << target << " changed two lines";
      key = b.substr(0, b.find('='));
    }
    ASSERT_FALSE(key.empty()) << "leaf " << target << " is not stored";
    if (same_metrics(s, base)) unreported.insert(key);
  }
  EXPECT_EQ(unreported, kCacheOnlyKeys);
}

}  // namespace
}  // namespace raccd
