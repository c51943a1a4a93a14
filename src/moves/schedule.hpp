#pragma once
/// \file schedule.hpp
/// Move representation: what the rearrangement analysis produces and what is
/// ultimately handed to the AWG.

#include <cstdint>
#include <string>
#include <vector>

#include "lattice/coord.hpp"
#include "lattice/direction.hpp"

namespace qrm {

/// One simultaneous multi-tweezer move: every atom listed in `sites` is
/// displaced by `steps` unit moves in direction `dir`, in lockstep.
///
/// This is exactly the operation the 2D-AOD hardware supports (Sec. II-B of
/// the paper): a set of atoms moved "at the same time when they are to be
/// moved towards the same direction with the same step size".
struct ParallelMove {
  Direction dir = Direction::West;
  std::int32_t steps = 1;
  std::vector<Coord> sites;  ///< source coordinates, unique

  [[nodiscard]] std::size_t atom_count() const noexcept { return sites.size(); }
  [[nodiscard]] Coord destination(std::size_t i) const {
    return moved(sites[i], dir, steps);
  }

  friend bool operator==(const ParallelMove&, const ParallelMove&) = default;
};

/// The per-atom record emitted by the accelerator's Movement Recording unit:
/// original location, direction of travel and step count.
struct MoveRecord {
  Coord origin;
  Direction dir = Direction::West;
  std::int32_t steps = 1;

  friend bool operator==(const MoveRecord&, const MoveRecord&) = default;
};

/// Aggregate statistics of a schedule, used by benches and reports.
struct ScheduleStats {
  std::size_t parallel_moves = 0;   ///< number of AWG commands
  std::size_t atom_moves = 0;       ///< sum over moves of |sites|
  std::int64_t total_steps = 0;     ///< sum over moves of |sites| * steps
  std::int32_t max_steps = 0;       ///< largest single-move step count
  std::size_t max_parallelism = 0;  ///< largest |sites| in one move
  double mean_parallelism = 0.0;    ///< atom_moves / parallel_moves
};

/// An ordered list of parallel moves. Order matters: moves execute
/// sequentially and each is validated against the grid state it sees.
class Schedule {
 public:
  Schedule() = default;

  void push_back(ParallelMove move) { moves_.push_back(std::move(move)); }
  /// Appends `other`'s moves; `other` may be this schedule.
  void append(const Schedule& other);
  void clear() noexcept { moves_.clear(); }

  [[nodiscard]] bool empty() const noexcept { return moves_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return moves_.size(); }
  [[nodiscard]] const ParallelMove& operator[](std::size_t i) const { return moves_[i]; }
  [[nodiscard]] const std::vector<ParallelMove>& moves() const noexcept { return moves_; }
  [[nodiscard]] std::vector<ParallelMove>& moves() noexcept { return moves_; }

  /// Expand to per-atom movement records (the OCM output format).
  [[nodiscard]] std::vector<MoveRecord> records() const;

  [[nodiscard]] ScheduleStats stats() const noexcept;

  /// Human-readable dump ("E x1 {(3,4),(7,2)}"), one move per line.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Schedule&, const Schedule&) = default;

 private:
  std::vector<ParallelMove> moves_;
};

}  // namespace qrm
