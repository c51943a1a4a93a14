#pragma once
/// \file aod.hpp
/// The 2D-AOD trap-generation constraint (paper Sec. II-B).
///
/// A move is realised by driving one RF tone per selected row and per
/// selected column; tweezers appear at *every* (row, col) cross product.
/// A parallel move is therefore physically legal only if every occupied trap
/// in rows(move) x cols(move) is itself part of the move — otherwise a
/// bystander atom would be grabbed and dragged. Unoccupied cross traps are
/// harmless.

#include <optional>
#include <span>
#include <string>

#include "lattice/grid.hpp"
#include "moves/schedule.hpp"

namespace qrm {

/// Returns an explanation of the first violation of the AOD cross-product
/// rule for `move` against `grid`, or nullopt when legal. Does not check
/// collision/occupancy semantics (see executor.hpp for those).
[[nodiscard]] std::optional<std::string> aod_violation(const OccupancyGrid& grid,
                                                       const ParallelMove& move);

[[nodiscard]] inline bool is_aod_legal(const OccupancyGrid& grid, const ParallelMove& move) {
  return !aod_violation(grid, move).has_value();
}

/// Partition an intended simultaneous displacement of `sites` (all moving
/// `steps` in `dir`) into a sequence of AOD-legal, collision-free parallel
/// moves, in execution order.
///
/// The returned moves, applied in order to `grid`'s state, displace exactly
/// the requested atoms; `grid` itself is not modified. Sites must be
/// occupied and their intended destinations must be collision-free as a
/// whole (i.e. the *intent* is valid; legalisation only handles the AOD
/// cross-product and intra-set ordering). Each move lists its sites
/// front-first (nearest the destination side), ties by minor coordinate
/// ascending. Every step count runs one round of the realizer's
/// mask-native partition (unit_rounds.hpp). Throws PreconditionError when a
/// site is out of bounds, unoccupied or listed twice, and InvariantError
/// when the intent cannot be realised.
[[nodiscard]] Schedule legalize(const OccupancyGrid& grid, std::span<const Coord> sites,
                                Direction dir, std::int32_t steps);

}  // namespace qrm
