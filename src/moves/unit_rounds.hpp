#pragma once
/// \file unit_rounds.hpp
/// The mask-native AOD partition behind legalize() (aod.cpp) and
/// realize_assignments() (realizer.cpp). Internal to the moves module.
///
/// By the cross-product rule (Sec. II-B, aod_violation) a legal command
/// picks up exactly (selected lines) x (selected minors) ∩ occupied, so the
/// greedy partition of a round, its lockstep update and the commands it
/// emits (line form: each line's member mask) are word operations on
/// per-line masks.

#include <cstdint>
#include <span>
#include <vector>

#include "lattice/direction.hpp"
#include "lattice/grid.hpp"
#include "moves/schedule.hpp"

namespace qrm {

/// Rounds of moves along one axis on flat per-line word masks in major-line
/// orientation: line m is grid column m for horizontal (W/E) moves and grid
/// row m for vertical (N/S) ones; bit x of a line is the minor coordinate.
/// Holds a mirror of the grid and the set of movers, which every step()
/// advances by its hop length: one line for the realizer's unit rounds,
/// more for legalize()'s multi-step intents and dead-channel hops. The
/// buffers are sized once, so a round allocates nothing but the growth of
/// the schedule it writes its commands into.
class UnitRounds {
 public:
  using Word = BitRow::Word;

  /// Mirrors `grid` for moves along the horizontal (W/E) or vertical axis.
  UnitRounds(const OccupancyGrid& grid, bool horizontal);

  /// Adds the atom at (major, minor) to the movers. Throws PreconditionError
  /// unless it is in bounds, occupied and not already a mover.
  void add_mover(std::int32_t major, std::int32_t minor);
  /// Drops the mover now at (major, minor), which has reached its target.
  /// Throws InvariantError when no mover is there.
  void arrive(std::int32_t major, std::int32_t minor);

  /// Moves every mover `steps` lines in `dir` (along this object's axis),
  /// appending the round's AOD-legal sub-moves to `out` in execution order:
  /// the whole set as one command when that is legal, else the greedy
  /// front-first partition. A mover's swept cells (each line it crosses,
  /// and its destination) must be free or vacated by a member of its
  /// command. Each sub-move is a line-form command (SiteList): its lines
  /// front-first, each with its member mask, so its sites expand
  /// front-first with minors ascending, which is lossy_move_order. Throws
  /// InvariantError when the round cannot make progress.
  void step(Direction dir, std::int32_t steps, Schedule& out);

  /// Writes the mirrored occupancy back into `grid`, the grid this object
  /// was built from: only the words (vertical) or sites (horizontal) the
  /// rounds changed.
  void store(OccupancyGrid& grid) const;

 private:
  [[nodiscard]] std::span<Word> line(std::vector<Word>& masks, std::int32_t m) {
    return std::span<Word>(masks).subspan(static_cast<std::size_t>(m) * words_, words_);
  }
  /// True when every mover can go in one command (no bystander in the
  /// cross product, every swept cell free or vacated by a mover).
  [[nodiscard]] bool one_command_legal(std::int32_t dmaj, std::int32_t steps);
  /// Select every mover into the next command (mem_, accepted_); returns
  /// the number selected.
  std::size_t select_all();
  /// Select the greedy partition's next command; returns the number
  /// selected.
  std::size_t select_greedy(std::int32_t dmaj, std::int32_t steps);

  bool horizontal_ = false;
  std::int32_t lines_ = 0;  ///< major lines
  std::int32_t minors_ = 0;
  std::size_t words_ = 0;   ///< words per line
  std::vector<Word> occ_;   ///< grid mirror, lines_ x words_
  std::vector<Word> initial_;  ///< occ_ as built, so store() writes only changes
  std::vector<Word> mov_;   ///< movers of the coming round
  std::vector<Word> next_;  ///< movers after the current round
  std::vector<Word> mem_;   ///< members of the current command
  std::vector<Word> acc_;   ///< minors the current command selects
  std::vector<Word> byst_;  ///< minors whose selection would catch a bystander
  std::vector<Word> surv_;  ///< one line's candidates that pass
  std::vector<std::int32_t> mover_lines_;  ///< lines holding movers this round, front-first
  std::vector<std::int32_t> accepted_;     ///< lines of the current command, front-first
};

}  // namespace qrm
