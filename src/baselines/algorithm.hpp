#pragma once
/// \file algorithm.hpp
/// Common interface over all rearrangement planners, used by the Fig. 7(b)
/// comparison bench and the algorithm_comparison example.
///
/// The paper compares against three published algorithms whose sources are
/// not public; our implementations reproduce each one's *structure* — what
/// is analysed, how often, and with what move granularity — so that the
/// relative cost profile (QRM < Tetris < PSCA < MTA1) emerges from the
/// algorithms themselves rather than from tuned constants. README.md,
/// "Reproduction notes", states what each reconstruction keeps.

#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "lattice/grid.hpp"
#include "lattice/region.hpp"

namespace qrm::baselines {

class RearrangementAlgorithm {
 public:
  virtual ~RearrangementAlgorithm() = default;

  /// Short identifier ("tetris", "psca", ...).
  [[nodiscard]] virtual std::string name() const = 0;
  /// One-line provenance/description for reports.
  [[nodiscard]] virtual std::string description() const = 0;

  /// Compute a rearrangement schedule for `initial` filling `target`.
  /// The returned schedule must be executable (collision-free, AOD-legal)
  /// and fill the target whenever enough atoms are available.
  [[nodiscard]] virtual PlanResult plan(const OccupancyGrid& initial,
                                        const Region& target) const = 0;
};

/// Cross-cutting options applied to every algorithm.
struct AlgorithmOptions {
  /// Split every emitted round into AOD-legal sub-moves. On by default
  /// (schedules are physically executable as-is). Benches measuring pure
  /// *analysis* latency — the quantity the paper times — turn it off, since
  /// the published measurements do not include physical-command
  /// legalisation.
  bool aod_legalize = true;
};

/// Factory. Known names: "qrm" (balanced QRM, the paper's CPU reference),
/// "qrm-compact", "typical", "tetris", "psca", "mta1".
/// Throws PreconditionError for unknown names.
[[nodiscard]] std::unique_ptr<RearrangementAlgorithm> make_algorithm(
    const std::string& name, const AlgorithmOptions& options = {});

/// All registered algorithm names, in comparison-table order.
[[nodiscard]] std::vector<std::string> algorithm_names();

}  // namespace qrm::baselines
