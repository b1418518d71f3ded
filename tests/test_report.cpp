// Report/summary formatting and configuration-printing smoke tests, plus the
// paper-preset (Table I) machine configuration checks.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "raccd/harness/experiment.hpp"
#include "raccd/sim/report.hpp"

namespace raccd {
namespace {

std::string render_config(const SimConfig& cfg) {
  std::FILE* f = std::tmpfile();
  print_config(cfg, f);
  std::rewind(f);
  std::string out;
  char buf[512];
  while (std::fgets(buf, sizeof buf, f) != nullptr) out += buf;
  std::fclose(f);
  return out;
}

TEST(Report, ScaledConfigHeaderMentionsGeometry) {
  const std::string text = render_config(SimConfig::scaled(CohMode::kRaCCD));
  EXPECT_NE(text.find("16 cores"), std::string::npos);
  EXPECT_NE(text.find("4x4 mesh"), std::string::npos);
  EXPECT_NE(text.find("32 KB"), std::string::npos);   // L1
  EXPECT_NE(text.find("2 MB total"), std::string::npos);
  EXPECT_NE(text.find("RaCCD"), std::string::npos);
  EXPECT_NE(text.find("NCRT: 32 entries/core"), std::string::npos);
}

TEST(Report, PaperConfigMatchesTableI) {
  const SimConfig cfg = SimConfig::paper(CohMode::kFullCoh);
  // Table I: 32 MB LLC banked 2 MB/core; directory 524288 entries total,
  // 32768/bank, 8-way; 32 KB 2-way L1s.
  EXPECT_EQ(cfg.fabric.cores, 16u);
  EXPECT_EQ(cfg.fabric.llc.lines_per_bank * std::uint64_t{kLineBytes}, 2u * 1024 * 1024);
  EXPECT_EQ(cfg.total_dir_entries(), 524288u);
  EXPECT_EQ(cfg.fabric.dir.ways, 8u);
  EXPECT_EQ(cfg.fabric.l1.size_bytes, 32u * 1024);
  EXPECT_EQ(cfg.fabric.l1.ways, 2u);
  EXPECT_EQ(cfg.tlb_entries, 256u);
  const std::string text = render_config(cfg);
  EXPECT_NE(text.find("32 MB total"), std::string::npos);
  EXPECT_NE(text.find("524,288 entries"), std::string::npos);
}

// The whole print_config() text, byte for byte, for both presets under every
// mode and for RaCCD with ADR. It prints the L1, LLC and directory latencies,
// the TLB size, the NCRT lookup cost and the WbNC flush-call cost, so a model
// constant whose value drifts shows up here.
TEST(Report, PrintConfigTextIsPinned) {
  const std::string scaled_geometry =
      "  L1D: 32 KB, 2-way, 2-cycle | TLB: 256 entries\n"
      "  LLC: 2 MB total (128 KB/bank), 8-way, 15-cycle\n"
      "  directory: 1:1 — 32,768 entries (2048/bank), 8-way, 15-cycle, 264.0 KB, 14.88 mm2\n";
  const std::string paper_geometry =
      "  L1D: 32 KB, 2-way, 2-cycle | TLB: 256 entries\n"
      "  LLC: 32 MB total (2 MB/bank), 8-way, 15-cycle\n"
      "  directory: 1:1 — 524,288 entries (32768/bank), 8-way, 15-cycle, 4224.0 KB, "
      "106.08 mm2\n";
  const auto tail = [](CohMode m) -> std::string {
    switch (m) {
      case CohMode::kRaCCD: return "  NCRT: 32 entries/core, 1-cycle lookup | ADR: off\n";
      case CohMode::kWbNC:
        return "  software coherence: whole-L1 writeback flush at task end (30-cycle call)\n";
      default: return "";
    }
  };
  for (const CohMode m : {CohMode::kFullCoh, CohMode::kPT, CohMode::kRaCCD, CohMode::kWbNC}) {
    const std::string head =
        std::string("machine: 16 cores, flat 4x4 mesh, mode=") + to_string(m) + "\n";
    EXPECT_EQ(render_config(SimConfig::scaled(m)), head + scaled_geometry + tail(m))
        << to_string(m);
    EXPECT_EQ(render_config(SimConfig::paper(m)), head + paper_geometry + tail(m))
        << to_string(m);
  }
  SimConfig adr = SimConfig::scaled(CohMode::kRaCCD);
  adr.adr.enabled = true;
  EXPECT_EQ(render_config(adr), "machine: 16 cores, flat 4x4 mesh, mode=RaCCD\n" +
                                    scaled_geometry +
                                    "  NCRT: 32 entries/core, 1-cycle lookup | ADR: on\n");
}

TEST(Report, DirRatioSweepChangesEntries) {
  SimConfig cfg = SimConfig::paper();
  for (const std::uint32_t r : kDirRatios) {
    cfg.set_dir_ratio(r);
    EXPECT_EQ(cfg.dir_ratio(), r);
    EXPECT_EQ(cfg.total_dir_entries(), 524288u / r);
  }
}

TEST(Report, SummaryAndReportContainKeyMetrics) {
  RunSpec spec;
  spec.app = "histo";
  spec.size = SizeClass::kTiny;
  spec.mode = CohMode::kRaCCD;
  spec.adr = true;
  const SimStats s = run_one(spec);
  const std::string summary = s.summary();
  EXPECT_NE(summary.find("mode=RaCCD"), std::string::npos);
  EXPECT_NE(summary.find("tasks="), std::string::npos);
  EXPECT_NE(summary.find("non-coherent blocks"), std::string::npos);

  std::FILE* f = std::tmpfile();
  print_report(s, f);
  std::rewind(f);
  std::string text;
  char buf[512];
  while (std::fgets(buf, sizeof buf, f) != nullptr) text += buf;
  std::fclose(f);
  EXPECT_NE(text.find("runtime overhead"), std::string::npos);
  EXPECT_NE(text.find("register="), std::string::npos);  // RaCCD-only line
  EXPECT_NE(text.find("ADR:"), std::string::npos);
}

TEST(Report, PaperMachineRunsTinyWorkload) {
  // Smoke: the full Table I machine executes and verifies a tiny app.
  RunSpec spec;
  spec.app = "md5";
  spec.size = SizeClass::kTiny;
  spec.mode = CohMode::kRaCCD;
  spec.paper_machine = true;
  const SimStats s = run_one(spec);
  EXPECT_GT(s.cycles, 0u);
  EXPECT_GT(s.noncoherent_block_fraction, 0.9);
}

}  // namespace
}  // namespace raccd
