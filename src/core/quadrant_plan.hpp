#pragma once
/// \file quadrant_plan.hpp
/// Quadrant-local pass generators: the schedule analysis the Shift Kernel
/// performs, expressed on a quadrant-local grid whose origin (0,0) is the
/// trap adjacent to the array centre.
///
/// A *pass* is one full scan over the quadrant's rows (Axis::Rows, horizontal
/// motion) or columns (Axis::Cols, vertical motion). Each generator returns
/// the per-line re-placements the pass wants; the caller lowers them to
/// moves with the realizer. Generators never mutate the grid.

#include <cstdint>
#include <vector>

#include "lattice/grid.hpp"
#include "moves/realizer.hpp"

namespace qrm {

/// Full inward compaction of every line toward position 0 (the centre).
///
/// `sen_limit` models the kernel's manual shift-enable gate: atoms at local
/// positions >= sen_limit are excluded from the scan (negative = no gate).
/// Lines already compact are omitted.
[[nodiscard]] std::vector<LineAssignment> compact_pass(const OccupancyGrid& local, Axis axis,
                                                       std::int32_t sen_limit = -1);

/// Outcome of the demand computation of balance_pass.
struct BalanceReport {
  bool feasible = true;       ///< all target columns can reach full demand
  std::int64_t shortfall = 0; ///< total unmet column demand (0 when feasible)
};

/// Demand-balanced horizontal placement (see README.md, "Reproduction notes").
///
/// Every local target column c in [0, target_cols) must end the vertical
/// pass with at least `target_rows` atoms. This pass chooses, for every row,
/// a full set of final column positions such that each target column is
/// promised >= target_rows atoms across distinct rows (largest-remaining-
/// capacity greedy, ties to the row stacked last), keeping surplus atoms at
/// their original columns. A subsequent vertical compact_pass then fills
/// the target quarter.
///
/// When demand cannot be met (not enough atoms below the sen gate), the
/// greedy fills as much as possible and `report` (optional) records the
/// shortfall. Preconditions: 0 < target_rows <= height, 0 < target_cols <=
/// width, and no sen gate inside the target quarter (sen_limit < 0 or
/// sen_limit >= target_cols), where a donor could be sent onto a gated
/// atom.
[[nodiscard]] std::vector<LineAssignment> balance_pass(const OccupancyGrid& local,
                                                       std::int32_t target_rows,
                                                       std::int32_t target_cols,
                                                       std::int32_t sen_limit = -1,
                                                       BalanceReport* report = nullptr);

}  // namespace qrm
