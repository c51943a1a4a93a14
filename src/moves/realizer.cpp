#include "moves/realizer.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "moves/aod.hpp"
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

void validate_assignment(const OccupancyGrid& grid, Axis axis, const LineAssignment& a) {
  const std::int32_t line_count = axis == Axis::Rows ? grid.height() : grid.width();
  const std::int32_t line_length = axis == Axis::Rows ? grid.width() : grid.height();
  QRM_EXPECTS_MSG(a.line >= 0 && a.line < line_count, "assignment line out of range");
  QRM_EXPECTS_MSG(a.sources.size() == a.targets.size(),
                  "assignment sources/targets size mismatch");
  for (std::size_t i = 0; i < a.sources.size(); ++i) {
    QRM_EXPECTS_MSG(a.sources[i] >= 0 && a.sources[i] < line_length,
                    "assignment source out of range");
    QRM_EXPECTS_MSG(a.targets[i] >= 0 && a.targets[i] < line_length,
                    "assignment target out of range");
    QRM_EXPECTS_MSG(grid.occupied(to_coord(axis, a.line, a.sources[i])),
                    "assignment source holds no atom");
    if (i > 0) {
      QRM_EXPECTS_MSG(a.sources[i] > a.sources[i - 1], "assignment sources must ascend");
      QRM_EXPECTS_MSG(a.targets[i] > a.targets[i - 1], "assignment targets must ascend");
    }
  }
  // Full-line order consistency: merge fixed atoms (unselected) with the
  // moving atoms' targets in source order; the sequence must stay strictly
  // increasing and duplicate-free, or motion would require passing an atom.
  // Sources are strictly ascending (checked above), so a two-pointer sweep
  // pairs each selected occupied site with its target in index order —
  // no set lookups or per-line allocations on this hot path.
  std::size_t next_moving = 0;
  std::int32_t prev_final = -1;
  bool have_prev = false;
  for (std::int32_t pos = 0; pos < line_length; ++pos) {
    if (!grid.occupied(to_coord(axis, a.line, pos))) continue;
    std::int32_t final_pos = pos;
    if (next_moving < a.sources.size() && a.sources[next_moving] == pos) {
      final_pos = a.targets[next_moving++];
    }
    QRM_EXPECTS_MSG(!have_prev || final_pos > prev_final,
                    "assignment would require an atom to pass another in line " +
                        std::to_string(a.line));
    prev_final = final_pos;
    have_prev = true;
  }
}

Direction phase_direction(Axis axis, bool toward_origin) {
  return axis == Axis::Rows ? (toward_origin ? Direction::West : Direction::East)
                            : (toward_origin ? Direction::North : Direction::South);
}

/// Emit one hop round (`sites` move `steps` cells in `dir`) and advance the
/// grid. Hop rounds are rare enough that legalize's per-call mirror of the
/// grid does not matter.
void emit_hop_round(OccupancyGrid& grid, std::vector<Coord> sites, Direction dir,
                    std::int32_t steps, Schedule& schedule, const RealizeOptions& options) {
  if (sites.empty()) return;
  if (options.aod_legalize) {
    for (auto& sub : legalize(grid, sites, dir, steps)) {
      apply_move_unchecked(grid, sub);
      schedule.push_back(std::move(sub));
    }
  } else {
    ParallelMove move{dir, steps, std::move(sites)};
    apply_move_unchecked(grid, move);
    schedule.push_back(std::move(move));
  }
}

/// Run all rounds of one phase with dead perpendicular lines to hop across.
/// Each round every active mover advances to the next live position (one
/// step plus the length of the dead run it crosses, capped at its remaining
/// displacement — the cap only binds when the assigned target itself is
/// dead, which upper passes may produce mid-plan; the executor freezes such
/// atoms and the next loop round replans them). Movers are walked
/// front-first, so a hop's landing cell is always vacated before it is
/// reached: cells inside a dead run hold no atoms (the grid is masked), and
/// the live landing cell either belonged to a front mover that has already
/// moved this round or was free at validation time (the order-consistency
/// sweep forbids fixed atoms between a mover and its target).
std::size_t run_phase_dead(OccupancyGrid& grid, Axis axis, std::vector<Mover>& movers,
                           bool toward_origin, Schedule& schedule,
                           const RealizeOptions& options,
                           const std::vector<std::int32_t>& dead_positions) {
  const Direction dir = phase_direction(axis, toward_origin);
  const auto remaining = [toward_origin](const Mover& m) {
    return toward_origin ? m.pos - m.target : m.target - m.pos;
  };
  const auto pos_dead = [&dead_positions](std::int32_t p) {
    return std::binary_search(dead_positions.begin(), dead_positions.end(), p);
  };
  std::vector<Mover*> active;
  active.reserve(movers.size());
  for (auto& m : movers) {
    if (remaining(m) > 0) active.push_back(&m);
  }

  const std::int32_t delta = toward_origin ? -1 : +1;
  std::size_t rounds = 0;
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
      while (steps[i] < remaining(m) && pos_dead(m.pos + delta * steps[i])) ++steps[i];
    }
    // Emit runs of equal step counts as one command each; a run is
    // internally collision-free (order-preserving equal shifts) and its
    // swept cells are dead, hence empty.
    std::size_t begin = 0;
    while (begin < active.size()) {
      std::size_t end = begin;
      while (end < active.size() && steps[end] == steps[begin]) ++end;
      std::vector<Coord> sites;
      sites.reserve(end - begin);
      for (std::size_t i = begin; i < end; ++i)
        sites.push_back(to_coord(axis, active[i]->line, active[i]->pos));
      emit_hop_round(grid, std::move(sites), dir, steps[begin], schedule, options);
      for (std::size_t i = begin; i < end; ++i) active[i]->pos += delta * steps[begin];
      begin = end;
    }
    std::erase_if(active, [&remaining](Mover* m) { return remaining(*m) == 0; });
    ++rounds;
  }
  return rounds;
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
  const auto remaining = [toward_origin](const Mover& m) {
    return toward_origin ? m.pos - m.target : m.target - m.pos;
  };
  std::vector<Mover*> active;
  active.reserve(movers.size());
  for (auto& m : movers) {
    if (remaining(m) > 0) active.push_back(&m);
  }
  std::sort(active.begin(), active.end(),
            [&remaining](const Mover* a, const Mover* b) { return remaining(*a) > remaining(*b); });

  const std::int32_t delta = toward_origin ? -1 : +1;
  std::size_t rounds = 0;
  while (!active.empty()) {
    ParallelMove move{dir, 1, {}};
    move.sites.reserve(active.size());
    for (Mover* m : active) move.sites.push_back(to_coord(axis, m->line, m->pos));
    apply_move_unchecked(grid, move);
    schedule.push_back(std::move(move));
    for (Mover* m : active) m->pos += delta;
    // Arrived movers form a suffix of the displacement-sorted list.
    while (!active.empty() && remaining(*active.back()) == 0) active.pop_back();
    ++rounds;
  }
  return rounds;
}

/// Run all AOD-legalized rounds of one phase on the masks of `rounds`: the
/// phase's movers join at their sources (major = position, minor = line on
/// either axis), every round steps them all one cell, and each one drops
/// out on the round its displacement runs out.
std::size_t run_phase_legalized(UnitRounds& rounds, Axis axis, std::vector<Mover>& movers,
                                bool toward_origin, Schedule& schedule) {
  const Direction dir = phase_direction(axis, toward_origin);
  const auto remaining = [toward_origin](const Mover& m) {
    return toward_origin ? m.pos - m.target : m.target - m.pos;
  };
  std::vector<Mover*> active;
  active.reserve(movers.size());
  for (auto& m : movers) {
    if (remaining(m) <= 0) continue;
    active.push_back(&m);
    rounds.add_mover(m.pos, m.line);
  }
  std::sort(active.begin(), active.end(),
            [&remaining](const Mover* a, const Mover* b) { return remaining(*a) < remaining(*b); });

  std::size_t round = 0;
  for (auto arriving = active.begin(); arriving != active.end();) {
    rounds.step(dir, schedule.moves());
    ++round;
    for (; arriving != active.end() &&
           static_cast<std::size_t>(remaining(**arriving)) == round;
         ++arriving) {
      Mover& m = **arriving;
      rounds.arrive(m.target, m.line);  // throws unless the atom got there
      m.pos = m.target;
    }
  }
  return round;
}

}  // namespace

RealizeResult realize_assignments(OccupancyGrid& grid, Axis axis,
                                  std::span<const LineAssignment> assignments,
                                  Schedule& schedule, const RealizeOptions& options) {
  std::set<std::int32_t> seen_lines;
  std::vector<Mover> movers;
  for (const auto& a : assignments) {
    QRM_EXPECTS_MSG(seen_lines.insert(a.line).second,
                    "duplicate line in one realize call");
    validate_assignment(grid, axis, a);
    for (std::size_t i = 0; i < a.sources.size(); ++i) {
      if (a.sources[i] != a.targets[i]) movers.push_back({a.line, a.sources[i], a.targets[i]});
    }
  }

  RealizeResult result;
  result.atoms_moved = movers.size();
  // Dead perpendicular lines along this axis force the hop path: positions
  // are column indices for row motion (so dead *columns* interrupt the
  // line) and row indices for column motion.
  const std::vector<std::int32_t>* dead_positions = nullptr;
  if (options.dead != nullptr) {
    const auto& perpendicular = axis == Axis::Rows ? options.dead->cols : options.dead->rows;
    if (!perpendicular.empty()) dead_positions = &perpendicular;
  }
  if (dead_positions != nullptr) {
    result.rounds_toward_origin =
        run_phase_dead(grid, axis, movers, true, schedule, options, *dead_positions);
    result.rounds_away =
        run_phase_dead(grid, axis, movers, false, schedule, options, *dead_positions);
  } else if (!options.aod_legalize) {
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
    result.rounds_toward_origin = run_phase_legalized(rounds, axis, movers, true, schedule);
    result.rounds_away = run_phase_legalized(rounds, axis, movers, false, schedule);
    rounds.store(grid);
  }

  for (const auto& m : movers) {
    QRM_ENSURES_MSG(m.pos == m.target, "realizer failed to deliver an atom");
  }
  return result;
}

}  // namespace qrm
