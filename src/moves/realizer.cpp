#include "moves/realizer.hpp"

#include <algorithm>
#include <string>

#include "moves/executor.hpp"
#include "moves/unit_rounds.hpp"
#include "util/assert.hpp"

namespace qrm {

namespace {

/// A moving atom tracked through the rounds.
struct Mover {
  std::int32_t line;
  std::int32_t pos;     // current position along the line
  std::int32_t target;  // final position
};

Coord to_coord(Axis axis, std::int32_t line, std::int32_t pos) {
  return axis == Axis::Rows ? Coord{line, pos} : Coord{pos, line};
}

/// Throws PreconditionError unless `a` is a well-formed re-placement of
/// the atoms on its line. `fixed` is a work row of the line's length; it
/// ends up holding the line's atoms that `a` leaves in place.
void validate_assignment(const OccupancyGrid& grid, Axis axis, const LineAssignment& a,
                         BitRow& fixed) {
  const std::int32_t line_count = axis == Axis::Rows ? grid.height() : grid.width();
  const std::int32_t line_length = axis == Axis::Rows ? grid.width() : grid.height();
  QRM_EXPECTS_MSG(a.line >= 0 && a.line < line_count, "assignment line out of range");
  QRM_EXPECTS_MSG(a.sources.size() == a.targets.size(),
                  "assignment sources/targets size mismatch");
  if (axis == Axis::Rows) {
    fixed.assign_slice(grid.row(a.line), 0, false);
  } else {
    grid.column(a.line, fixed);
  }
  for (std::size_t i = 0; i < a.sources.size(); ++i) {
    QRM_EXPECTS_MSG(a.sources[i] >= 0 && a.sources[i] < line_length,
                    "assignment source out of range");
    QRM_EXPECTS_MSG(a.targets[i] >= 0 && a.targets[i] < line_length,
                    "assignment target out of range");
    const auto source = static_cast<std::uint32_t>(a.sources[i]);
    QRM_EXPECTS_MSG(fixed.test(source), "assignment source holds no atom");
    fixed.clear(source);
    if (i > 0) {
      QRM_EXPECTS_MSG(a.sources[i] > a.sources[i - 1], "assignment sources must ascend");
      QRM_EXPECTS_MSG(a.targets[i] > a.targets[i - 1], "assignment targets must ascend");
    }
  }
  // Full-line order consistency: the line's final placement, fixed atoms
  // and moving atoms' targets in source order, must stay strictly
  // increasing and duplicate-free, or motion would require passing an atom.
  // With sources and targets ascending, that holds exactly when no fixed
  // atom lies between a mover's source and its target, the target included.
  for (std::size_t i = 0; i < a.sources.size(); ++i) {
    const auto s = static_cast<std::uint32_t>(a.sources[i]);
    const auto t = static_cast<std::uint32_t>(a.targets[i]);
    const bool passes = t < s ? fixed.count_range(t, s) != 0
                              : t > s && fixed.count_range(s + 1, t + 1) != 0;
    QRM_EXPECTS_MSG(!passes, "assignment would require an atom to pass another in line " +
                                 std::to_string(a.line));
  }
}

Direction phase_direction(Axis axis, bool toward_origin) {
  return axis == Axis::Rows ? (toward_origin ? Direction::West : Direction::East)
                            : (toward_origin ? Direction::North : Direction::South);
}

/// Displacement `m` has left to cover in its phase's direction.
std::int32_t remaining(const Mover& m, bool toward_origin) {
  return toward_origin ? m.pos - m.target : m.target - m.pos;
}

/// The movers with displacement left in the phase's direction.
std::vector<Mover*> phase_movers(std::vector<Mover>& movers, bool toward_origin) {
  std::vector<Mover*> active;
  active.reserve(movers.size());
  for (auto& m : movers) {
    if (remaining(m, toward_origin) > 0) active.push_back(&m);
  }
  return active;
}

/// Run all rounds of one phase with dead perpendicular lines to hop across,
/// on the masks of `rounds`. Each round every active mover advances to the
/// next live position (one step plus the length of the dead run it
/// crosses, capped at its remaining displacement — the cap only binds when
/// the assigned target itself is dead, which upper passes may produce
/// mid-plan; the executor freezes such atoms and the next loop round
/// replans them). Movers are walked front-first, so a hop's landing cell is
/// always vacated before it is reached: cells inside a dead run hold no
/// atoms (the grid is masked), and the live landing cell either belonged to
/// a front mover that has already moved this round or was free at
/// validation time (the order-consistency sweep forbids fixed atoms between
/// a mover and its target).
std::size_t run_phase_dead(UnitRounds& rounds, Axis axis, std::vector<Mover>& movers,
                           bool toward_origin, Schedule& schedule,
                           const std::vector<std::int32_t>& dead_positions) {
  const Direction dir = phase_direction(axis, toward_origin);
  const auto pos_dead = [&dead_positions](std::int32_t p) {
    return std::binary_search(dead_positions.begin(), dead_positions.end(), p);
  };
  std::vector<Mover*> active = phase_movers(movers, toward_origin);
  const std::int32_t delta = toward_origin ? -1 : +1;
  std::size_t round = 0;
  std::vector<std::int32_t> steps;
  while (!active.empty()) {
    // Front-first walk order, re-established every round (variable steps
    // let a rear mover close a gap, so a single phase-start sort would go
    // stale). Ties across lines break by line for determinism.
    std::sort(active.begin(), active.end(), [&](const Mover* a, const Mover* b) {
      if (a->pos != b->pos) return toward_origin ? a->pos < b->pos : a->pos > b->pos;
      return a->line < b->line;
    });
    steps.assign(active.size(), 1);
    for (std::size_t i = 0; i < active.size(); ++i) {
      const Mover& m = *active[i];
      while (steps[i] < remaining(m, toward_origin) && pos_dead(m.pos + delta * steps[i]))
        ++steps[i];
    }
    // Each run of equal step counts is one hop round of its own movers; a
    // run is internally collision-free (order-preserving equal shifts) and
    // its swept cells are dead, hence empty.
    std::size_t begin = 0;
    while (begin < active.size()) {
      std::size_t end = begin;
      while (end < active.size() && steps[end] == steps[begin]) ++end;
      for (std::size_t i = begin; i < end; ++i) rounds.add_mover(active[i]->pos, active[i]->line);
      rounds.step(dir, steps[begin], schedule);
      for (std::size_t i = begin; i < end; ++i) {
        active[i]->pos += delta * steps[begin];
        rounds.arrive(active[i]->pos, active[i]->line);
      }
      begin = end;
    }
    std::erase_if(active, [toward_origin](Mover* m) { return remaining(*m, toward_origin) == 0; });
    ++round;
  }
  return round;
}

/// Run all rounds of one phase without AOD legalization: each round is
/// one ParallelMove of every mover still in motion. `toward_origin` selects
/// atoms that must decrease their position (motion W/N); otherwise increase
/// (E/S).
///
/// Movers are sorted by remaining displacement (descending) so that each
/// round only touches the prefix still in motion; total work is the sum of
/// displacements, not movers x rounds.
std::size_t run_phase(OccupancyGrid& grid, Axis axis, std::vector<Mover>& movers,
                      bool toward_origin, Schedule& schedule) {
  const Direction dir = phase_direction(axis, toward_origin);
  std::vector<Mover*> active = phase_movers(movers, toward_origin);
  std::sort(active.begin(), active.end(), [toward_origin](const Mover* a, const Mover* b) {
    return remaining(*a, toward_origin) > remaining(*b, toward_origin);
  });

  const std::int32_t delta = toward_origin ? -1 : +1;
  std::size_t rounds = 0;
  while (!active.empty()) {
    const std::span<Coord> sites = schedule.add_move(dir, 1, active.size());
    for (std::size_t i = 0; i < active.size(); ++i)
      sites[i] = to_coord(axis, active[i]->line, active[i]->pos);
    apply_move_unchecked(grid, {dir, 1, sites});
    for (Mover* m : active) m->pos += delta;
    // Arrived movers form a suffix of the displacement-sorted list.
    while (!active.empty() && remaining(*active.back(), toward_origin) == 0) active.pop_back();
    ++rounds;
  }
  return rounds;
}

/// Run all AOD-legalized rounds of one phase on the masks of `rounds`: the
/// phase's movers join at their sources (major = position, minor = line on
/// either axis), every round steps them all one cell, and each one drops
/// out on the round its displacement runs out. Movers are bucketed by
/// displacement (a stack per displacement, linked through `next`), so the
/// arrivals of round r are bucket r; order inside a bucket is free, since
/// arrive() clears one bit.
std::size_t run_phase_legalized(UnitRounds& rounds, Axis axis, std::vector<Mover>& movers,
                                bool toward_origin, Schedule& schedule) {
  const Direction dir = phase_direction(axis, toward_origin);
  std::int32_t longest = 0;
  for (const Mover& m : movers) longest = std::max(longest, remaining(m, toward_origin));
  std::vector<std::int32_t> bucket(static_cast<std::size_t>(longest) + 1, -1);
  std::vector<std::int32_t> next(movers.size());
  for (std::size_t i = 0; i < movers.size(); ++i) {
    const std::int32_t d = remaining(movers[i], toward_origin);
    if (d <= 0) continue;
    rounds.add_mover(movers[i].pos, movers[i].line);
    next[i] = bucket[static_cast<std::size_t>(d)];
    bucket[static_cast<std::size_t>(d)] = static_cast<std::int32_t>(i);
  }

  for (std::int32_t round = 1; round <= longest; ++round) {
    rounds.step(dir, 1, schedule);
    for (std::int32_t i = bucket[static_cast<std::size_t>(round)]; i >= 0;
         i = next[static_cast<std::size_t>(i)]) {
      Mover& m = movers[static_cast<std::size_t>(i)];
      rounds.arrive(m.target, m.line);  // throws unless the atom got there
      m.pos = m.target;
    }
  }
  return static_cast<std::size_t>(longest);
}

}  // namespace

RealizeResult realize_assignments(OccupancyGrid& grid, Axis axis,
                                  std::span<const LineAssignment> assignments,
                                  Schedule& schedule, const RealizeOptions& options) {
  const bool rows = axis == Axis::Rows;
  BitRow seen_lines(static_cast<std::uint32_t>(rows ? grid.height() : grid.width()));
  BitRow fixed(static_cast<std::uint32_t>(rows ? grid.width() : grid.height()));
  std::size_t listed = 0;
  for (const auto& a : assignments) listed += a.sources.size();
  std::vector<Mover> movers;
  movers.reserve(listed);
  for (const auto& a : assignments) {
    validate_assignment(grid, axis, a, fixed);
    QRM_EXPECTS_MSG(!seen_lines.test(static_cast<std::uint32_t>(a.line)),
                    "duplicate line in one realize call");
    seen_lines.set(static_cast<std::uint32_t>(a.line));
    for (std::size_t i = 0; i < a.sources.size(); ++i) {
      if (a.sources[i] != a.targets[i]) movers.push_back({a.line, a.sources[i], a.targets[i]});
    }
  }

  RealizeResult result;
  result.atoms_moved = movers.size();
  // Dead perpendicular lines along this axis force hop rounds: positions
  // are column indices for row motion (so dead *columns* interrupt the
  // line) and row indices for column motion.
  const std::vector<std::int32_t>* dead_positions = nullptr;
  if (options.dead != nullptr) {
    QRM_EXPECTS_MSG(options.aod_legalize || options.dead->empty(),
                    "dead channels require aod_legalize");
    const auto& perpendicular = axis == Axis::Rows ? options.dead->cols : options.dead->rows;
    if (!perpendicular.empty()) dead_positions = &perpendicular;
  }
  if (!options.aod_legalize) {
    result.rounds_toward_origin = run_phase(grid, axis, movers, true, schedule);
    result.rounds_away = run_phase(grid, axis, movers, false, schedule);
  } else if (!movers.empty()) {
    // Both phases move along `axis`, so one set of major-oriented masks
    // serves every round; the grid takes their final state once.
    // Toward-origin movers are provably never blocked by fixed atoms,
    // arrived atoms, or away-movers (order preservation forbids all three),
    // so the phase completes in max|displacement| rounds; the away phase
    // mirrors it.
    UnitRounds rounds(grid, axis == Axis::Rows);
    if (dead_positions != nullptr) {
      result.rounds_toward_origin =
          run_phase_dead(rounds, axis, movers, true, schedule, *dead_positions);
      result.rounds_away = run_phase_dead(rounds, axis, movers, false, schedule, *dead_positions);
    } else {
      result.rounds_toward_origin = run_phase_legalized(rounds, axis, movers, true, schedule);
      result.rounds_away = run_phase_legalized(rounds, axis, movers, false, schedule);
    }
    rounds.store(grid);
  }

  for (const auto& m : movers) {
    QRM_ENSURES_MSG(m.pos == m.target, "realizer failed to deliver an atom");
  }
  return result;
}

}  // namespace qrm
