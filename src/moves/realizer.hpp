#pragma once
/// \file realizer.hpp
/// Turns per-line (row or column) atom re-placements into an executable
/// schedule of unit-step parallel moves.
///
/// Rearrangement planners think in terms of "this row's atoms should end up
/// at these columns". The realizer lowers that intent to physics: rounds of
/// simultaneous single-step shifts (the hardware's shift commands), with
/// each round optionally partitioned into AOD-legal sub-moves. Motion is
/// order-preserving within every line, which is exactly the regime in which
/// lockstep tweezer moves are collision-free.

#include <cstdint>
#include <span>
#include <vector>

#include "lattice/grid.hpp"
#include "moves/dead_channels.hpp"
#include "moves/schedule.hpp"

namespace qrm {

/// Which family of lines an assignment addresses.
enum class Axis : std::uint8_t {
  Rows,  ///< lines are rows; positions are column indices; motion is W/E
  Cols,  ///< lines are columns; positions are row indices; motion is N/S
};

/// Re-placement of (a subset of) one line's atoms.
///
/// `sources[i]` (strictly ascending, each holding an atom) is sent to
/// `targets[i]` (strictly ascending). Atoms of the line not listed stay
/// fixed; the combined final placement must remain strictly ordered, i.e.
/// no moving atom may pass a fixed one.
struct LineAssignment {
  std::int32_t line = 0;
  std::vector<std::int32_t> sources;
  std::vector<std::int32_t> targets;
};

struct RealizeOptions {
  /// Partition every round into AOD-legal sub-moves (cross-product rule).
  /// When false each round is emitted as one ParallelMove (useful to study
  /// the idealised lower bound on command count).
  bool aod_legalize = true;
  /// Dead AOD channels to route around (nullable; empty mask behaves like
  /// null). Positions on a dead perpendicular line cannot host an atom, so
  /// rounds crossing one are emitted as multi-step hops that land on the
  /// next live position. The grid must already be masked (no atoms on dead
  /// lines) — planners guarantee this via mask_dead_lines. A non-empty mask
  /// requires aod_legalize (PreconditionError otherwise).
  const DeadChannelMask* dead = nullptr;
};

struct RealizeResult {
  std::size_t rounds_toward_origin = 0;  ///< unit-step rounds moving W/N
  std::size_t rounds_away = 0;           ///< unit-step rounds moving E/S
  std::size_t atoms_moved = 0;           ///< atoms with nonzero displacement
};

/// Realize `assignments`, appending the generated moves to `schedule` and
/// advancing `grid` to the post-move state.
///
/// Throws PreconditionError when an assignment is malformed (non-ascending,
/// unoccupied source, out-of-bounds target, order violation with fixed
/// atoms, duplicate final positions), or when dead channels come without
/// aod_legalize.
RealizeResult realize_assignments(OccupancyGrid& grid, Axis axis,
                                  std::span<const LineAssignment> assignments,
                                  Schedule& schedule, const RealizeOptions& options = {});

}  // namespace qrm
