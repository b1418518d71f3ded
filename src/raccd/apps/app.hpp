// Benchmark application interface (paper §IV-B, Table II).
//
// Each app allocates its dataset in the machine's simulated memory,
// initializes it functionally (host-side, untimed — gem5 checkpoints past
// initialization the same way), then submits OpenMP-4.0-style tasks with
// in/out/inout dependence annotations and runs them through taskwait phases.
// After run(), verify() checks the *functional* result (residuals, reference
// digests, conservation laws), proving the simulated protocol delivered
// correct data in every mode.
//
// Size classes: kTiny for unit tests, kSmall (default) keeps the paper's
// working-set : LLC ratio on the scaled machine, kPaper is Table II verbatim.
// kMedium sits between kSmall and kPaper; kLarge goes beyond Table II and is
// only tractable under sampled simulation (SamplingConfig).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "raccd/apps/workload_params.hpp"
#include "raccd/sim/machine.hpp"

namespace raccd {

enum class SizeClass : std::uint8_t { kTiny, kSmall, kMedium, kPaper, kLarge };

[[nodiscard]] constexpr const char* to_string(SizeClass s) noexcept {
  switch (s) {
    case SizeClass::kTiny: return "tiny";
    case SizeClass::kSmall: return "small";
    case SizeClass::kMedium: return "medium";
    case SizeClass::kPaper: return "paper";
    case SizeClass::kLarge: return "large";
  }
  return "?";
}

/// Inverse of to_string(SizeClass); nullopt for an unknown name.
[[nodiscard]] constexpr std::optional<SizeClass> parse_size_class(std::string_view s) noexcept {
  for (const SizeClass c : {SizeClass::kTiny, SizeClass::kSmall, SizeClass::kMedium,
                            SizeClass::kPaper, SizeClass::kLarge}) {
    if (s == to_string(c)) return c;
  }
  return std::nullopt;
}

struct AppConfig {
  AppConfig() = default;
  AppConfig(SizeClass s, std::uint64_t sd, WorkloadParams p = {})
      : size(s), seed(sd), params(std::move(p)) {}

  SizeClass size = SizeClass::kSmall;
  std::uint64_t seed = 0xA99DA7A;
  /// Explicit knob overrides; the size class supplies the baseline values
  /// and each override replaces one knob (validated by the workload schema).
  WorkloadParams params;
};

class App {
 public:
  virtual ~App() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Problem-size description (Table II analogue).
  [[nodiscard]] virtual std::string problem() const = 0;

  /// Allocate, initialize, submit tasks and execute to completion.
  virtual void run(Machine& m) = 0;

  /// Functional check after run(); empty string on success.
  [[nodiscard]] virtual std::string verify(Machine& m) = 0;
};

/// The nine paper benchmarks, in the paper's order (a fixed fact of the
/// paper; the full dynamic workload list lives in WorkloadRegistry).
[[nodiscard]] const std::vector<std::string>& paper_app_names();

/// Convenience front end over WorkloadRegistry::create: on an unknown name
/// or invalid parameters, prints the error (listing registered workloads /
/// valid knobs) to stderr and returns nullptr — it no longer asserts.
[[nodiscard]] std::unique_ptr<App> make_app(std::string_view name,
                                            const AppConfig& cfg = {});

}  // namespace raccd
