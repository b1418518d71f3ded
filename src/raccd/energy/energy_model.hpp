// Analytical dynamic-energy model for the simulated structures.
//
// Substitutes McPAT/CACTI 6.0 (paper §IV-A; 22 nm, 0.6 V). Per-access dynamic
// energy of an SRAM array scales sub-linearly with its active capacity: we
// use E(n) = E_ref * (n / n_ref)^alpha with alpha = 0.5, the classic
// bitline/wordline length scaling CACTI exhibits for same-associativity
// arrays. Reference energies are in the range CACTI reports for similar
// arrays at this node. All paper energy figures are *normalized*, so only
// this relative scaling is load-bearing; DESIGN.md's "Model constants" table
// lists the absolute values for transparency.
//
// The reference size of both arrays is the machine's LLC bank (lines per
// bank): the 1:1 directory bank has as many entries, so a full directory
// bank costs kDirRefPj per access and the LLC bank always costs kLlcAccessPj.
//
// ADR ties per-access energy to the *currently active* directory size: a
// Gated-Vdd powered-down portion neither spends dynamic energy nor leaks.
#pragma once

#include <cstdint>

namespace raccd {

inline constexpr double kSizeExponent = 0.5;  ///< alpha in E(n) = E_ref * (n/n_ref)^alpha

/// Directory bank access at the reference size (one LLC bank's line count).
inline constexpr double kDirRefPj = 20.0;
/// LLC bank access. The bank is its own reference size, so this never scales.
inline constexpr double kLlcAccessPj = 120.0;

inline constexpr double kL1AccessPj = 10.0;
/// Pure hits sum their L1 energy out of the global event order (DESIGN.md,
/// "Conservative lookahead"), which is exact only in whole picojoules.
static_assert(kL1AccessPj == static_cast<double>(static_cast<std::int64_t>(kL1AccessPj)),
              "out-of-order L1 energy sums need an integral per-access energy");
inline constexpr double kNocFlitHopPj = 6.0;
inline constexpr double kMemAccessPj = 15000.0;  ///< DRAM access (row activation + IO)

/// Per-op DRAM energies for the detailed dram/dram.hpp model, which
/// replace the flat kMemAccessPj there: a closed-page access
/// (ACT + RD + PRE ~ 13 nJ) lands near the flat number, while a row hit
/// pays only the column read — the energy side of row-buffer locality.
inline constexpr double kDramActivatePj = 8000.0;
inline constexpr double kDramReadPj = 3000.0;
inline constexpr double kDramWritePj = 3200.0;
inline constexpr double kDramPrechargePj = 2000.0;

/// Leakage power per directory entry (Gated-Vdd cuts this for powered-off
/// entries). 66 bits/entry at 22 nm LP: ~2 pW/bit.
inline constexpr double kDirLeakPwPerEntry = 132.0;

/// Per-access dynamic energy of one directory bank with `active_entries`
/// currently powered (ADR shrinks this), against a bank of `ref_entries`.
[[nodiscard]] double dir_access_pj(std::uint32_t active_entries,
                                   std::uint32_t ref_entries) noexcept;

/// Leakage energy of `active_entries` over `cycles` cycles at `ghz`.
[[nodiscard]] double dir_leakage_pj(std::uint64_t active_entries, std::uint64_t cycles,
                                    double ghz = 1.0) noexcept;

}  // namespace raccd
