// Open-loop service workload: request arrivals against a shared read-mostly
// store, with per-request tail latency (DESIGN.md substitution #13).
//
// Each request is a small task chain — parse (fills private scratch), `chain`
// lookup stages probing pseudo-random slots of a shared region (a small
// fraction of requests also update their home slot in place), and a respond
// task writing one result word. The chain head carries a release time from a
// seeded arrival process (Poisson, bursty, or a replayed raccd-sched trace),
// so the machine serves requests open-loop: arrivals keep coming whether or
// not earlier requests finished, and queueing shows up as tail latency
// instead of a longer makespan.
//
// The `load` knob targets a load factor rho against a *nominal* request cost
// model (task overheads + L1-hit-priced accesses + annotated compute); the
// simulated service rate is lower — misses, coherence and NUMA make real
// service time exceed nominal — so the saturation knee lands below rho = 1
// and moves with the coherence mode. That gap is the experiment.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "raccd/apps/registry.hpp"
#include "raccd/common/format.hpp"
#include "raccd/common/rng.hpp"
#include "raccd/service/arrivals.hpp"

namespace raccd::apps {
namespace {

struct SvcParams {
  std::uint32_t requests;
  std::string arrival;  // poisson | burst | trace
  double load;
  double update_frac;
  std::uint32_t shared_kb;
  std::uint32_t scratch_kb;
  std::uint32_t chain;
  std::uint32_t probes;
  std::uint32_t compute;
  double burst_duty;
  std::uint64_t burst_period;
  std::string trace_file;
};

[[nodiscard]] SvcParams params_for(const AppConfig& cfg) {
  SvcParams p{256, "poisson", 0.6, 0.125, 64, 2, 3, 8, 16, 0.25, 0, ""};
  switch (cfg.size) {
    case SizeClass::kTiny: p = {24, "poisson", 0.6, 0.125, 8, 1, 2, 4, 8, 0.25, 0, ""}; break;
    case SizeClass::kSmall: break;  // the baseline above
    case SizeClass::kMedium: p = {1024, "poisson", 0.6, 0.125, 128, 2, 3, 8, 16, 0.25, 0, ""}; break;
    case SizeClass::kPaper: p = {4096, "poisson", 0.6, 0.125, 512, 4, 4, 16, 16, 0.25, 0, ""}; break;
    case SizeClass::kLarge: p = {16384, "poisson", 0.6, 0.125, 1024, 4, 4, 16, 16, 0.25, 0, ""}; break;
  }
  p.requests = cfg.params.get_u32("requests", p.requests);
  p.arrival = cfg.params.get_string("arrival", p.arrival);
  p.load = cfg.params.get_double("load", p.load);
  p.update_frac = cfg.params.get_double("update_frac", p.update_frac);
  p.shared_kb = cfg.params.get_u32("shared_kb", p.shared_kb);
  p.scratch_kb = cfg.params.get_u32("scratch_kb", p.scratch_kb);
  p.chain = cfg.params.get_u32("chain", p.chain);
  p.probes = cfg.params.get_u32("probes", p.probes);
  p.compute = cfg.params.get_u32("compute", p.compute);
  p.burst_duty = cfg.params.get_double("burst_duty", p.burst_duty);
  p.burst_period = static_cast<std::uint64_t>(
      cfg.params.get_int("burst_period", static_cast<std::int64_t>(p.burst_period)));
  p.trace_file = cfg.params.get_string("trace_file", p.trace_file);
  return p;
}

[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 29;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 32;
  return x;
}

class ServiceApp final : public App {
 public:
  explicit ServiceApp(const AppConfig& cfg) : p_(params_for(cfg)), seed_(cfg.seed) {
    shared_elems_ = std::max<std::uint64_t>(p_.shared_kb * 1024 / 8, 8);
    scratch_elems_ = std::max<std::uint64_t>(p_.scratch_kb * 1024 / 8, 8);
  }

  [[nodiscard]] std::string_view name() const override { return "service"; }
  [[nodiscard]] std::string problem() const override {
    return strprintf("%u %s requests @ load %.2f: chain %u x %u probes over %u KB "
                     "shared (%.0f%% updates), %u KB scratch",
                     p_.requests, p_.arrival.c_str(), p_.load, p_.chain, p_.probes,
                     p_.shared_kb, 100.0 * p_.update_frac, p_.scratch_kb);
  }

  void run(Machine& m) override {
    shared_ = m.mem().alloc_array<std::uint64_t>(shared_elems_, "svc.shared");
    scratch_ = m.mem().alloc_array<std::uint64_t>(
        static_cast<std::uint64_t>(p_.requests) * scratch_elems_, "svc.scratch");
    results_ = m.mem().alloc_array<std::uint64_t>(std::max(p_.requests, 1u),
                                                  "svc.results");
    init_memory(m);

    const std::vector<Cycle> schedule = make_schedule(m);
    for (std::uint32_t r = 0; r < p_.requests; ++r) {
      submit_request(m, r, schedule[r]);
    }
    m.taskwait();
  }

  [[nodiscard]] std::string verify(Machine& m) override {
    // Host mirror replayed in creation order: every pair of conflicting
    // accesses (updates vs probes of the same slot, chained scratch stages)
    // carries dependence annotations, so creation order is a legal serial
    // schedule every mode must reproduce.
    std::vector<std::uint64_t> ref_shared(shared_elems_);
    mirror_init(ref_shared);
    std::vector<std::uint64_t> ref_results(p_.requests, 0);
    std::vector<std::uint64_t> scr(scratch_elems_);
    for (std::uint32_t r = 0; r < p_.requests; ++r) {
      mirror_request(r, ref_shared, scr, ref_results[r]);
    }

    std::vector<std::uint64_t> got(shared_elems_);
    m.mem().copy_out(shared_, got.data(), shared_elems_ * 8);
    for (std::uint64_t j = 0; j < shared_elems_; ++j) {
      if (got[j] != ref_shared[j]) {
        return strprintf("service shared mismatch: slot %llu got %llx want %llx",
                         static_cast<unsigned long long>(j),
                         static_cast<unsigned long long>(got[j]),
                         static_cast<unsigned long long>(ref_shared[j]));
      }
    }
    std::vector<std::uint64_t> got_res(p_.requests);
    m.mem().copy_out(results_, got_res.data(), p_.requests * 8);
    for (std::uint32_t r = 0; r < p_.requests; ++r) {
      if (got_res[r] != ref_results[r]) {
        return strprintf("service result mismatch: request %u got %llx want %llx", r,
                         static_cast<unsigned long long>(got_res[r]),
                         static_cast<unsigned long long>(ref_results[r]));
      }
    }
    return {};
  }

 private:
  // -- deterministic request plan (shared by deps, bodies and the mirror) ----
  [[nodiscard]] std::uint64_t probe_idx(std::uint32_t r, std::uint32_t k,
                                        std::uint32_t p) const noexcept {
    return mix64(seed_ ^ (static_cast<std::uint64_t>(r) << 24) ^
                 (static_cast<std::uint64_t>(k) << 12) ^ p) %
           shared_elems_;
  }
  [[nodiscard]] std::uint64_t home_idx(std::uint32_t r) const noexcept {
    return mix64(seed_ ^ 0x40DEULL ^ (static_cast<std::uint64_t>(r) * 0x9E37ULL)) %
           shared_elems_;
  }
  [[nodiscard]] bool is_update(std::uint32_t r) const noexcept {
    const std::uint64_t u = mix64(seed_ ^ 0xF8AC ^ r) >> 11;  // 53 random bits
    return static_cast<double>(u) * 0x1.0p-53 < p_.update_frac;
  }

  /// Nominal single-core cost of one request, pricing every access at the L1
  /// hit latency: runtime overheads + streamed scratch + probes + compute.
  /// Real service time exceeds this (misses, coherence), which is why the
  /// saturation knee sits below load = 1 (DESIGN.md #13).
  [[nodiscard]] double nominal_request_cycles() const {
    const double tasks = 2.0 + p_.chain;
    const double deps = 1.0                          // parse: out scratch
                        + p_.chain * (1.0 + p_.probes) + 1.0  // lookups (+home)
                        + 2.0;                       // respond: in scratch, out result
    const double accesses = static_cast<double>(scratch_elems_)       // parse stores
                            + p_.chain * (p_.probes + 2.0) + 2.0      // lookups + home
                            + 3.0;                                    // respond
    const double overhead =
        tasks * (kTaskCreateCycles + kScheduleCycles + kWakeupPerEdgeCycles) +
        deps * kDepAnalysisCycles;
    return overhead + accesses * kL1HitCycles +
           static_cast<double>(p_.chain) * p_.compute;
  }

  [[nodiscard]] std::vector<Cycle> make_schedule(Machine& m) const {
    ArrivalConfig ac;
    ac.count = p_.requests;
    ac.seed = seed_ ^ 0x5EDC0DEULL;
    ac.burst_duty = p_.burst_duty;
    ac.burst_period_cycles = p_.burst_period;
    ac.trace_path = p_.trace_file;
    if (p_.arrival == "burst") {
      ac.kind = ArrivalKind::kBurst;
    } else if (p_.arrival == "trace") {
      ac.kind = ArrivalKind::kTrace;
    } else {
      ac.kind = ArrivalKind::kPoisson;
    }
    const std::uint32_t cores = m.config().fabric.cores;
    ac.mean_gap_cycles =
        nominal_request_cycles() / (static_cast<double>(cores) * p_.load);

    std::string err;
    std::vector<Cycle> schedule = generate_arrivals(ac, &err);
    RACCD_ASSERT(!schedule.empty(), err.c_str());
    if (ac.kind == ArrivalKind::kTrace && schedule.size() < p_.requests) {
      RACCD_ASSERT(false, "service: trace holds fewer releases than requests");
    }
    schedule.resize(p_.requests);
    return schedule;
  }

  void submit_request(Machine& m, std::uint32_t r, Cycle release) {
    const VAddr scratch = scratch_ + static_cast<std::uint64_t>(r) * scratch_elems_ * 8;
    const bool upd = is_update(r);
    const std::uint64_t home = home_idx(r);

    // parse: fill the private scratch from the request id.
    {
      TaskDesc t;
      t.name = strprintf("req%u.parse", r);
      t.release = release;
      t.request = r;
      t.deps.push_back({scratch, scratch_elems_ * 8, DepKind::kOut});
      t.body = [this, r, scratch](TaskContext& ctx) {
        const std::uint64_t base = mix64(seed_ ^ r);
        ctx.compute(p_.compute);
        for (std::uint64_t j = 0; j < scratch_elems_; ++j) {
          ctx.store<std::uint64_t>(scratch + j * 8, mix64(base + j));
        }
      };
      m.spawn(std::move(t));
    }

    // chain of lookups: probe shared slots, fold into scratch[0]; the last
    // stage of an update request rewrites its home slot in place.
    for (std::uint32_t k = 0; k < p_.chain; ++k) {
      const bool write_home = upd && k == p_.chain - 1;
      TaskDesc t;
      t.name = strprintf("req%u.lu%u", r, k);
      t.request = r;
      t.deps.push_back({scratch, scratch_elems_ * 8, DepKind::kInout});
      for (std::uint32_t p = 0; p < p_.probes; ++p) {
        t.deps.push_back({shared_ + probe_idx(r, k, p) * 8, 8, DepKind::kIn});
      }
      if (write_home) t.deps.push_back({shared_ + home * 8, 8, DepKind::kInout});
      t.body = [this, r, k, scratch, write_home, home](TaskContext& ctx) {
        ctx.compute(p_.compute);
        std::uint64_t acc = ctx.load<std::uint64_t>(scratch);
        for (std::uint32_t p = 0; p < p_.probes; ++p) {
          acc += ctx.load<std::uint64_t>(shared_ + probe_idx(r, k, p) * 8);
        }
        if (write_home) {
          const std::uint64_t old = ctx.load<std::uint64_t>(shared_ + home * 8);
          ctx.store<std::uint64_t>(shared_ + home * 8, mix64(old + acc));
        }
        ctx.store<std::uint64_t>(scratch, mix64(acc + k));
      };
      m.spawn(std::move(t));
    }

    // respond: one result word from the scratch head and tail.
    {
      TaskDesc t;
      t.name = strprintf("req%u.resp", r);
      t.request = r;
      t.deps.push_back({scratch, scratch_elems_ * 8, DepKind::kIn});
      t.deps.push_back({results_ + static_cast<std::uint64_t>(r) * 8, 8, DepKind::kOut});
      t.body = [this, r, scratch](TaskContext& ctx) {
        const std::uint64_t head = ctx.load<std::uint64_t>(scratch);
        const std::uint64_t tail =
            ctx.load<std::uint64_t>(scratch + (scratch_elems_ - 1) * 8);
        ctx.store<std::uint64_t>(results_ + static_cast<std::uint64_t>(r) * 8,
                                 mix64(head + tail + r));
      };
      m.spawn(std::move(t));
    }
  }

  void init_memory(Machine& m) {
    Rng rng(seed_);
    for (std::uint64_t j = 0; j < shared_elems_; ++j) {
      m.mem().write<std::uint64_t>(shared_ + j * 8, rng.next_u64());
    }
  }

  void mirror_init(std::vector<std::uint64_t>& ref_shared) const {
    Rng rng(seed_);
    for (std::uint64_t j = 0; j < shared_elems_; ++j) ref_shared[j] = rng.next_u64();
  }

  void mirror_request(std::uint32_t r, std::vector<std::uint64_t>& shared,
                      std::vector<std::uint64_t>& scr, std::uint64_t& result) const {
    const std::uint64_t base = mix64(seed_ ^ r);
    for (std::uint64_t j = 0; j < scratch_elems_; ++j) scr[j] = mix64(base + j);
    const bool upd = is_update(r);
    const std::uint64_t home = home_idx(r);
    for (std::uint32_t k = 0; k < p_.chain; ++k) {
      std::uint64_t acc = scr[0];
      for (std::uint32_t p = 0; p < p_.probes; ++p) acc += shared[probe_idx(r, k, p)];
      if (upd && k == p_.chain - 1) shared[home] = mix64(shared[home] + acc);
      scr[0] = mix64(acc + k);
    }
    result = mix64(scr[0] + scr[scratch_elems_ - 1] + r);
  }

  SvcParams p_;
  std::uint64_t seed_;
  std::uint64_t shared_elems_ = 0;
  std::uint64_t scratch_elems_ = 0;
  VAddr shared_ = 0, scratch_ = 0, results_ = 0;
};

const WorkloadRegistrar kRegistrar{{
    "service",
    "open-loop request server: arrival-released task chains over a shared store",
    "service",
    ParamSchema()
        .add_int("requests", 256, "requests to serve", 1, 1 << 20)
        .add_enum("arrival", "poisson", "arrival process",
                  {"poisson", "burst", "trace"})
        .add_double("load", 0.6, "target load factor vs the nominal request cost",
                    0.01, 8.0)
        .add_double("update_frac", 0.125, "fraction of requests that update their home slot",
                    0.0, 1.0)
        .add_int("shared_kb", 64, "shared read-mostly region size in KB", 1, 65536)
        .add_int("scratch_kb", 2, "per-request private scratch in KB", 1, 256)
        .add_int("chain", 3, "lookup stages per request", 1, 32)
        .add_int("probes", 8, "shared-region probes per lookup stage", 1, 64)
        .add_int("compute", 16, "annotated compute cycles per stage", 0, 4096)
        .add_double("burst_duty", 0.25, "burst: on-window fraction of each period",
                    0.01, 1.0)
        .add_int("burst_period", 0, "burst: period in cycles (0 = 16x mean gap)", 0,
                 1'000'000'000)
        .add_string("trace_file", "", "trace: raccd-sched schedule file to replay"),
    [](const AppConfig& cfg) -> std::unique_ptr<App> {
      return std::make_unique<ServiceApp>(cfg);
    },
}};

}  // namespace
}  // namespace raccd::apps
