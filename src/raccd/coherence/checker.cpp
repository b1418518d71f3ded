#include "raccd/coherence/checker.hpp"

#include <unordered_map>

#include "raccd/coherence/fabric.hpp"
#include "raccd/common/assert.hpp"
#include "raccd/common/format.hpp"

namespace raccd {

void CoherenceChecker::on_store(LineAddr line, std::uint64_t version) {
  ++stores_seen_;
  golden_.set(line, version);
}

void CoherenceChecker::on_load(LineAddr line, std::uint64_t observed) {
  ++loads_checked_;
  const std::uint64_t expected = golden_.get(line);
  if (observed != expected) fail(line, expected, observed);
}

void CoherenceChecker::fail(LineAddr line, std::uint64_t expected, std::uint64_t observed) {
  ++violations_;
  if (strict_) {
    std::fprintf(stderr,
                 "coherence violation: line %llu expected version %llu observed %llu\n",
                 static_cast<unsigned long long>(line),
                 static_cast<unsigned long long>(expected),
                 static_cast<unsigned long long>(observed));
    RACCD_ASSERT(false, "stale data observed by load");
  }
}

std::vector<std::string> CoherenceChecker::scan(const Fabric& fabric) {
  std::vector<std::string> out;
  const auto& cfg = fabric.config();

  struct Holder {
    CoreId core;
    Mesi state;
    bool nc;
    bool dirty;
  };
  std::unordered_map<LineAddr, std::vector<Holder>> holders;
  for (CoreId c = 0; c < cfg.cores; ++c) {
    fabric.l1(c).for_each_valid([&](LineAddr line, const L1Payload& l) {
      holders[line].push_back(Holder{c, l.coh, l.nc, l.dirty});
    });
  }

  // SWMR + state compatibility across L1 copies.
  for (const auto& [line, hs] : holders) {
    unsigned excl_holders = 0;
    unsigned coh_holders = 0;
    for (const Holder& h : hs) {
      if (h.nc) continue;
      ++coh_holders;
      if (h.state == Mesi::kExclusive || h.state == Mesi::kModified) ++excl_holders;
      if (h.dirty && h.state != Mesi::kModified) {
        out.push_back(strprintf("line %llu: dirty coherent copy in %s state at core %u",
                                static_cast<unsigned long long>(line), to_string(h.state),
                                h.core));
      }
    }
    if (excl_holders > 0 && coh_holders > 1) {
      out.push_back(strprintf("line %llu: E/M copy coexists with %u coherent copies",
                              static_cast<unsigned long long>(line), coh_holders));
    }
    if (excl_holders > 1) {
      out.push_back(strprintf("line %llu: %u exclusive holders",
                              static_cast<unsigned long long>(line), excl_holders));
    }
  }

  for (BankId b = 0; b < cfg.cores; ++b) {
    const auto& dbank = fabric.dir(b);
    const auto& lbank = fabric.llc(b);

    // Directory -> LLC inclusivity; directory never tracks NC LLC lines.
    dbank.for_each_valid([&](LineAddr line, const DirPayload& e) {
      const LlcPayload* ll = lbank.find(line);
      if (ll == nullptr) {
        out.push_back(strprintf("dir bank %u: entry for line %llu without LLC line", b,
                                static_cast<unsigned long long>(line)));
      } else if (ll->nc) {
        out.push_back(strprintf("dir bank %u: entry tracks NC LLC line %llu", b,
                                static_cast<unsigned long long>(line)));
      }
      // Every actual coherent holder must appear in the sharer vector (the
      // converse is allowed: silent clean evictions leave stale sharers).
      if (const auto it = holders.find(line); it != holders.end()) {
        for (const Holder& h : it->second) {
          if (h.nc) {
            out.push_back(strprintf("line %llu: NC L1 copy while directory-tracked",
                                    static_cast<unsigned long long>(line)));
            continue;
          }
          if ((e.sharers & (1ULL << h.core)) == 0) {
            out.push_back(
                strprintf("line %llu: core %u holds coherent copy but is not a sharer",
                          static_cast<unsigned long long>(line), h.core));
          }
          if ((h.state == Mesi::kExclusive || h.state == Mesi::kModified) &&
              e.excl != h.core) {
            out.push_back(strprintf("line %llu: E/M holder %u is not the directory excl",
                                    static_cast<unsigned long long>(line), h.core));
          }
        }
      }
    });

    // Untracked coherent LLC lines are legal in the sparse-directory design
    // (no private-cache copies); NC LLC lines must never be tracked, which
    // the directory-side scan above already enforces.
  }

  // Coherent L1 copies must be directory-tracked (recalls enforce this).
  for (const auto& [line, hs] : holders) {
    bool any_coh = false;
    for (const Holder& h : hs) any_coh |= !h.nc;
    if (!any_coh) continue;
    const BankId b = fabric.home_of(line);
    if (fabric.dir(b).find(line) == nullptr) {
      out.push_back(strprintf("line %llu: coherent L1 copy without directory entry",
                              static_cast<unsigned long long>(line)));
    }
  }
  return out;
}

}  // namespace raccd
