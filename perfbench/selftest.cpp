// Self-test of the benchmark's helpers (bench_util.hpp): run-to-run
// statistics against Python's statistics module, metric-name validation,
// the per-layer counts read from SimStats, and the span trace writer
// against the program's own trace validator. perfbench/run.py runs it after
// every build; a non-zero exit stops the benchmark.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "raccd/obs/trace_validate.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * (1.0 + std::fabs(b)); }

void test_statistics() {
  using perfbench::median;
  using perfbench::quartiles;
  // Expected values from Python: statistics.quantiles(v, n=4), statistics.median(v).
  struct Case {
    std::vector<double> v;
    double q1, med, q3;
  };
  const std::vector<Case> cases = {
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
      {{1, 2, 3, 4}, 1.25, 2.5, 3.75},
      {{5, 1, 3}, 1.0, 3.0, 5.0},
      {{1, 2}, 0.75, 1.5, 2.25},
      {{0.1, 0.7, 0.2, 0.9, 0.4, 1.3, 0.05}, 0.1, 0.4, 0.9},
  };
  for (const Case& c : cases) {
    const auto [q1, q3] = quartiles(c.v);
    CHECK(near(q1, c.q1));
    CHECK(near(q3, c.q3));
    CHECK(near(median(c.v), c.med));
  }
  const auto [one_q1, one_q3] = quartiles({4.0});
  CHECK(one_q1 == 4.0 && one_q3 == 4.0);
  CHECK(median({}) == 0.0);
}

void test_names() {
  using perfbench::valid_metric_name;
  using perfbench::valid_unit;
  CHECK(valid_metric_name("accesses_per_s"));
  CHECK(valid_metric_name("coherence.ns_per_access"));
  CHECK(valid_metric_name("9lives-x.y_z"));
  CHECK(valid_metric_name(std::string(64, 'a')));
  CHECK(!valid_metric_name(std::string(65, 'a')));
  CHECK(!valid_metric_name(""));
  CHECK(!valid_metric_name("_leading"));
  CHECK(!valid_metric_name(".leading"));
  CHECK(!valid_metric_name("has space"));
  CHECK(!valid_metric_name("slash/no"));
  CHECK(!valid_metric_name("quote\""));
  CHECK(valid_unit("1/s"));
  CHECK(valid_unit("%"));
  CHECK(valid_unit("count"));
  CHECK(!valid_unit(""));
  CHECK(!valid_unit("a b"));
  CHECK(!valid_unit(std::string(17, 's')));
}

void test_layer_counts() {
  raccd::SimStats s;
  s.tasks = 128;
  s.cycles = 11923632;
  s.edges = 418;
  s.ncrt.lookups = 200;
  s.ncrt.hits = 150;
  s.register_cycles = 777;
  s.flushed_nc_lines = 55;
  s.tlb.lookups = 1000;
  s.tlb.misses = 10;
  s.fabric.dir_accesses = 6879736;
  s.fabric.dir_evictions = 12;
  s.fabric.dir_recall_msgs = 34;
  s.fabric.nc_reads = 30;
  s.fabric.nc_writes = 10;
  s.fabric.coh_reads = 50;
  s.fabric.coh_writes = 10;
  s.fabric.l1_accesses = 400;
  s.fabric.l1_hits = 300;
  s.fabric.llc_lookups = 100;
  s.fabric.llc_hits = 25;
  s.fabric.dram_row_hits = 8;
  s.fabric.dram_row_misses = 2;
  s.fabric.dram_row_conflicts = 30;
  s.fabric.dram_queue_wait_cycles = 99;
  s.fabric.mem_reads = 31;
  s.fabric.mem_writes = 9;
  s.noc.per_class[0].flit_hops = 60;
  s.noc.per_class[1].flit_hops = 40;
  s.noc.cross_socket.flit_hops = 25;
  s.service.requests = 16384;
  s.service.e2e.p99 = 13900.0;

  std::map<std::string, double> got;
  for (const perfbench::Metric& m : perfbench::layer_counts(s)) {
    CHECK(perfbench::valid_metric_name(m.name));
    CHECK(perfbench::valid_unit(m.unit));
    CHECK(got.count(m.name) == 0);
    got[m.name] = m.value;
  }
  CHECK(got.size() == 20);
  CHECK(got["sim.tasks"] == 128);
  CHECK(got["sim.cycles"] == 11923632);
  CHECK(got["runtime.edges"] == 418);
  CHECK(near(got["core.ncrt_hit_ratio"], 0.75));
  CHECK(got["modes.register_cycles"] == 777);
  CHECK(got["modes.flushed_nc_lines"] == 55);
  CHECK(near(got["tlb.miss_ratio"], 0.01));
  CHECK(got["coherence.dir_accesses"] == 6879736);
  CHECK(got["coherence.dir_evictions"] == 12);
  CHECK(got["coherence.dir_recall_msgs"] == 34);
  CHECK(near(got["coherence.nc_frac"], 0.4));
  CHECK(near(got["cache.l1_hit_ratio"], 0.75));
  CHECK(near(got["cache.llc_hit_ratio"], 0.25));
  CHECK(got["dram.requests"] == 40);
  CHECK(near(got["dram.row_hit_ratio"], 0.2));
  CHECK(got["dram.queue_wait_cycles"] == 99);
  CHECK(got["noc.flit_hops"] == 100);
  CHECK(near(got["noc.cross_socket_frac"], 0.25));
  CHECK(got["service.requests"] == 16384);
  CHECK(got["service.e2e_p99_cycles"] == 13900.0);

  // A batch run: no requests, an empty (NaN) latency distribution, no
  // lookups anywhere — every ratio and count reads 0, never NaN.
  raccd::SimStats empty;
  empty.service.e2e.p99 = std::nan("");
  for (const perfbench::Metric& m : perfbench::layer_counts(empty)) {
    CHECK(m.value == 0.0);
  }
}

void test_spans() {
  perfbench::SpanRecorder rec;
  const int root = rec.begin("workload", "bench");
  rec.time("config_for", "sim", [] {});
  const int parent = rec.begin("replay", "bench");
  rec.time("Tlb::access", "tlb", [] {});
  rec.time("Fabric::access", "coherence", [] {});
  rec.end(parent);
  rec.end(root);
  const auto& spans = rec.spans();
  CHECK(spans.size() == 5);
  CHECK(spans[1].parent == root && spans[3].parent == parent && spans[2].parent == root);
  CHECK(spans[0].dur_us >= spans[2].dur_us);
  const double child = spans[1].dur_us + spans[2].dur_us;
  CHECK(near(rec.self_us(0), spans[0].dur_us - child));
  CHECK(rec.self_us_by_layer().size() == 4);

  const raccd::obs::TraceValidation v = raccd::obs::validate_trace_json(rec.chrome_json());
  CHECK(v.ok);
  CHECK(v.spans == 5);
  CHECK(v.tracks == 4);
}

}  // namespace

int main() {
  test_statistics();
  test_names();
  test_layer_counts();
  test_spans();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench selftest: all checks passed\n");
  return 0;
}
