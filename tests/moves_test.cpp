// Tests for the moves substrate: AOD legality, legalisation, the executor,
// the realizer, schedules, and the physical-time model.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "loading/loader.hpp"
#include "moves/aod.hpp"
#include "moves/executor.hpp"
#include "moves/physical.hpp"
#include "moves/realizer.hpp"
#include "moves/schedule.hpp"
#include "testutil.hpp"
#include "util/rng.hpp"

namespace qrm {
namespace {

/// A move that owns its sites, so tests can write moves inline: a
/// ParallelMove is a view, and `Move{dir, steps, {...}}` keeps the sites
/// alive for the full expression it appears in.
struct Move {
  Direction dir = Direction::West;
  std::int32_t steps = 1;
  std::vector<Coord> sites;

  operator ParallelMove() const noexcept { return {dir, steps, sites}; }
};

// ---------------------------------------------------------------------------
// AOD cross-product legality
// ---------------------------------------------------------------------------

TEST(Aod, SingleAtomAlwaysLegal) {
  OccupancyGrid g(4, 4);
  g.set({1, 1});
  EXPECT_TRUE(is_aod_legal(g, Move{Direction::East, 1, {{1, 1}}}));
}

TEST(Aod, CrossTrapBystanderIsIllegal) {
  // Sites (0,0) and (1,1) selected: rows {0,1} x cols {0,1} generates traps
  // at (0,1) and (1,0) too. Put a bystander at (0,1).
  OccupancyGrid g(4, 4);
  g.set({0, 0});
  g.set({1, 1});
  g.set({0, 1});  // bystander
  const Move move{Direction::East, 1, {{0, 0}, {1, 1}}};
  const auto violation = aod_violation(g, move);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("(0,1)"), std::string::npos);
}

TEST(Aod, CrossTrapMemberIsLegal) {
  // Same geometry but the cross trap is itself part of the move.
  OccupancyGrid g(4, 4);
  g.set({0, 0});
  g.set({1, 1});
  g.set({0, 1});
  const Move move{Direction::South, 1, {{0, 0}, {1, 1}, {0, 1}}};
  // (1,0) is empty, so the remaining cross trap is harmless.
  EXPECT_TRUE(is_aod_legal(g, move));
}

TEST(Aod, EmptyCrossTrapHarmless) {
  OccupancyGrid g(4, 4);
  g.set({0, 0});
  g.set({1, 1});
  EXPECT_TRUE(is_aod_legal(g, Move{Direction::East, 1, {{0, 0}, {1, 1}}}));
}

TEST(Aod, LegalizeSplitsOnBystander) {
  OccupancyGrid g(4, 4);
  g.set({0, 0});
  g.set({1, 1});
  g.set({0, 1});  // bystander: (0,0) and (1,1) cannot ride together
  const std::vector<Coord> sites{{0, 0}, {1, 1}};
  const auto batches = legalize(g, sites, Direction::South, 1);
  ASSERT_EQ(batches.size(), 2u);
  // Every batch must be AOD-legal at its execution time and apply cleanly.
  OccupancyGrid state = g;
  for (const ParallelMove& b : batches.moves()) {
    EXPECT_FALSE(validate_move(state, b, true).has_value());
    apply_move_unchecked(state, b);
  }
  EXPECT_TRUE(state.occupied({1, 0}));
  EXPECT_TRUE(state.occupied({2, 1}));
  EXPECT_TRUE(state.occupied({0, 1}));  // bystander untouched
}

TEST(Aod, LegalizeKeepsLockstepChainsTogether) {
  // Three atoms in a row moving west: a chain that must stay in one batch
  // (or be ordered front-first).
  OccupancyGrid g(1, 6);
  g.set({0, 2});
  g.set({0, 3});
  g.set({0, 4});
  const std::vector<Coord> sites{{0, 2}, {0, 3}, {0, 4}};
  const auto batches = legalize(g, sites, Direction::West, 1);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].sites.size(), 3u);
  OccupancyGrid state = g;
  EXPECT_FALSE(validate_move(state, batches[0], true).has_value());
}

TEST(Aod, LegalizeRejectsDuplicateSites) {
  // A duplicated site passes the occupancy precondition (both copies see the
  // same atom) and used to be emitted twice inside one ParallelMove; it must
  // fail fast instead.
  OccupancyGrid g(4, 4);
  g.set({1, 1});
  g.set({2, 2});
  const std::vector<Coord> sites{{1, 1}, {2, 2}, {1, 1}};
  EXPECT_THROW((void)legalize(g, sites, Direction::East, 1), PreconditionError);
}

TEST(Aod, LegalizeHandsBlockedFollowerToLaterBatch) {
  // Atoms at (0,2) and (2,2) move West; bystander at (0,1)... the first
  // cannot move at all -> invalid intent must throw.
  OccupancyGrid g(3, 4);
  g.set({0, 2});
  g.set({0, 1});  // permanent blocker (not part of the move)
  const std::vector<Coord> sites{{0, 2}};
  EXPECT_THROW((void)legalize(g, sites, Direction::West, 1), InvariantError);
}

TEST(Aod, LegalizeHopNeverSweepsThroughAnAtom) {
  // A hop's intermediate cells count like its destination: an atom there
  // that is not part of the move blocks the hop though the destination is
  // free. A member vacates its cell in lockstep, so with the blocker moving
  // along the hop is one command.
  OccupancyGrid g(1, 6);
  g.set({0, 0});
  g.set({0, 2});
  const std::vector<Coord> alone{{0, 0}};
  EXPECT_THROW((void)legalize(g, alone, Direction::East, 3), InvariantError);
  const std::vector<Coord> both{{0, 0}, {0, 2}};
  Schedule expected;
  expected.push_back(Move{Direction::East, 3, {{0, 2}, {0, 0}}});
  EXPECT_EQ(legalize(g, both, Direction::East, 3), expected);
}

TEST(Aod, LegalizeRandomisedAlwaysExecutable) {
  // Property: for random grids, pick the set of all atoms that can shift one
  // step west (destination empty); legalize must produce batches that run
  // cleanly under full validation and move exactly the chosen atoms.
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    const OccupancyGrid g = load_random(12, 12, {0.45, 1000 + static_cast<std::uint64_t>(trial)});
    std::vector<Coord> sites;
    for (std::int32_t r = 0; r < 12; ++r) {
      for (std::int32_t c = 1; c < 12; ++c) {
        if (g.occupied({r, c}) && !g.occupied({r, c - 1})) sites.push_back({r, c});
      }
    }
    if (sites.empty()) continue;
    const auto batches = legalize(g, sites, Direction::West, 1);
    OccupancyGrid state = g;
    std::size_t moved = 0;
    for (const ParallelMove& b : batches.moves()) {
      const auto violation = validate_move(state, b, true);
      ASSERT_FALSE(violation.has_value()) << *violation;
      apply_move_unchecked(state, b);
      moved += b.sites.size();
    }
    EXPECT_EQ(moved, sites.size());
    EXPECT_EQ(state.atom_count(), g.atom_count());
  }
}

// Front-first order of a move's sites: the major line nearest the
// destination side first, then (row, col) — minors ascending on a line.
bool front_first(Direction dir, const Coord& a, const Coord& b) {
  const Coord d = direction_delta(dir);
  const std::int32_t ka = -(a.row * d.row + a.col * d.col);
  const std::int32_t kb = -(b.row * d.row + b.col * d.col);
  return ka != kb ? ka < kb : a < b;
}

// Test-local reference for legalize: one command when the whole set is
// legal, else greedy commands, each a pass over the remaining sites in
// front-first order (major line nearest the destination first, minor
// ascending) that accepts a site when every cell it sweeps (k = 1..steps)
// is free or vacated by an accepted member and neither the new row nor the
// new column of AOD traps catches a bystander. Written per candidate, per
// trap.
Schedule reference_legalize(const OccupancyGrid& grid, std::vector<Coord> sites, Direction dir,
                            std::int32_t steps) {
  std::sort(sites.begin(), sites.end(),
            [dir](const Coord& a, const Coord& b) { return front_first(dir, a, b); });
  OccupancyGrid state = grid;
  Schedule out;
  if (!validate_move(state, {dir, steps, sites}, /*check_aod=*/true).has_value()) {
    out.push_back({dir, steps, sites});
    return out;
  }
  while (!sites.empty()) {
    std::vector<Coord> batch;
    std::vector<Coord> deferred;
    std::set<std::int32_t> rows;
    std::set<std::int32_t> cols;
    std::set<Coord> members;
    const auto bystander = [&](Coord trap) {
      return state.occupied(trap) && !members.contains(trap);
    };
    for (const Coord& s : sites) {
      bool ok = true;
      for (std::int32_t k = 1; k <= steps && ok; ++k) {
        const Coord cell = moved(s, dir, k);
        ok = state.in_bounds(cell) && (!state.occupied(cell) || members.contains(cell));
      }
      for (const std::int32_t c : cols)
        if (ok && c != s.col && bystander({s.row, c})) ok = false;
      for (const std::int32_t r : rows)
        if (ok && r != s.row && bystander({r, s.col})) ok = false;
      if (ok) {
        batch.push_back(s);
        members.insert(s);
        rows.insert(s.row);
        cols.insert(s.col);
      } else {
        deferred.push_back(s);
      }
    }
    if (batch.empty()) throw InvariantError("reference legalize made no progress");
    const ParallelMove move{dir, steps, batch};
    apply_move_unchecked(state, move);
    out.push_back(move);
    sites = std::move(deferred);
  }
  return out;
}

TEST(Aod, UnitLegalizeMatchesThePerCandidateReference) {
  // Lines of 5 to 130 minors (one to three 64-bit words) in all four
  // directions, with unit steps and hops of 2 or 3 lines. Intents are drawn
  // front-first: an atom joins with probability `p` when every cell it
  // sweeps is in bounds and free or taken by a joined atom (so dense
  // intents form chains that need several commands). One intent in eight
  // may also take atoms that cannot go, which must throw InvariantError on
  // both sides.
  Rng rng(2024);
  const std::int32_t minor_counts[] = {5, 17, 40, 63, 64, 65, 90, 127, 128, 129, 130};
  // [unit step, hop]: intents that went as one command, split, or stuck.
  std::size_t single[2] = {};
  std::size_t split[2] = {};
  std::size_t stuck[2] = {};
  for (const Direction dir :
       {Direction::North, Direction::South, Direction::East, Direction::West}) {
    const bool horizontal = is_horizontal(dir);
    for (const std::int32_t minors : minor_counts) {
      for (int trial = 0; trial < 45; ++trial) {
        const auto majors = static_cast<std::int32_t>(3 + rng.uniform_below(10));
        const auto steps = static_cast<std::int32_t>(1 + rng.uniform_below(3));
        const std::size_t hop = steps > 1 ? 1 : 0;
        const std::int32_t height = horizontal ? minors : majors;
        const std::int32_t width = horizontal ? majors : minors;
        const OccupancyGrid g =
            load_random(height, width, {0.2 + 0.6 * rng.uniform01(), rng.next_u64()});
        std::vector<Coord> atoms = g.atom_positions();
        std::sort(atoms.begin(), atoms.end(),
                  [dir](const Coord& a, const Coord& b) { return front_first(dir, a, b); });
        const double p = 0.05 + 0.95 * rng.uniform01();
        const bool reckless = rng.uniform_below(8) == 0;
        OccupancyGrid joined(height, width);
        std::vector<Coord> sites;
        for (const Coord& a : atoms) {
          bool can_go = true;
          for (std::int32_t k = 1; k <= steps && can_go; ++k) {
            const Coord cell = moved(a, dir, k);
            can_go = g.in_bounds(cell) && (!g.occupied(cell) || joined.occupied(cell));
          }
          if ((can_go || (reckless && rng.uniform_below(20) == 0)) && rng.uniform01() < p) {
            sites.push_back(a);
            joined.set(a);
          }
        }
        if (sites.empty()) continue;
        std::vector<Coord> shuffled = sites;
        for (std::size_t i = shuffled.size(); i > 1; --i)
          std::swap(shuffled[i - 1], shuffled[rng.uniform_below(i)]);

        Schedule expected;
        bool expect_throw = false;
        try {
          expected = reference_legalize(g, sites, dir, steps);
        } catch (const InvariantError&) {
          expect_throw = true;
        }
        if (expect_throw) {
          ++stuck[hop];
          EXPECT_THROW((void)legalize(g, shuffled, dir, steps), InvariantError);
          continue;
        }
        const Schedule got = legalize(g, shuffled, dir, steps);
        ASSERT_EQ(got, expected) << to_cstring(dir) << " " << height << "x" << width
                                 << " steps " << steps << " trial " << trial;
        ++(got.size() == 1 ? single : split)[hop];
      }
    }
  }
  // The draw must exercise single commands, split rounds and stuck intents,
  // for unit steps and for hops alike.
  for (const std::size_t hop : {0, 1}) {
    EXPECT_GT(single[hop], 50u) << "hop " << hop;
    EXPECT_GT(split[hop], 500u) << "hop " << hop;
    EXPECT_GT(stuck[hop], 50u) << "hop " << hop;
  }
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

TEST(Executor, RejectsEmptyAndBadSteps) {
  OccupancyGrid g(4, 4);
  g.set({0, 0});
  EXPECT_TRUE(validate_move(g, Move{Direction::East, 1, {}}, false).has_value());
  EXPECT_TRUE(validate_move(g, Move{Direction::East, 0, {{0, 0}}}, false).has_value());
}

TEST(Executor, RejectsUnoccupiedSourceAndDuplicates) {
  OccupancyGrid g(4, 4);
  g.set({0, 0});
  EXPECT_TRUE(validate_move(g, Move{Direction::East, 1, {{1, 1}}}, false).has_value());
  EXPECT_TRUE(validate_move(g, Move{Direction::East, 1, {{0, 0}, {0, 0}}}, false).has_value());
}

TEST(Executor, RejectsOutOfBoundsDestination) {
  OccupancyGrid g(4, 4);
  g.set({0, 3});
  EXPECT_TRUE(validate_move(g, Move{Direction::East, 1, {{0, 3}}}, false).has_value());
  g.set({0, 0});
  EXPECT_TRUE(validate_move(g, Move{Direction::West, 1, {{0, 0}}}, false).has_value());
}

TEST(Executor, RejectsCollisionWithBystander) {
  OccupancyGrid g(1, 4);
  g.set({0, 0});
  g.set({0, 2});
  // Moving (0,0) east by 2 lands on (0,2), and also sweeps (0,1) (empty ok).
  EXPECT_TRUE(validate_move(g, Move{Direction::East, 2, {{0, 0}}}, false).has_value());
}

TEST(Executor, LockstepChainIsValid) {
  OccupancyGrid g(1, 4);
  g.set({0, 1});
  g.set({0, 2});
  const Move move{Direction::West, 1, {{0, 1}, {0, 2}}};
  EXPECT_FALSE(validate_move(g, move, true).has_value());
  apply_move(g, move);
  EXPECT_TRUE(g.occupied({0, 0}));
  EXPECT_TRUE(g.occupied({0, 1}));
  EXPECT_FALSE(g.occupied({0, 2}));
}

TEST(Executor, MultiStepSweepChecksPath) {
  OccupancyGrid g(1, 6);
  g.set({0, 0});
  g.set({0, 2});  // blocker midway
  EXPECT_TRUE(validate_move(g, Move{Direction::East, 3, {{0, 0}}}, false).has_value());
  g.clear({0, 2});
  EXPECT_FALSE(validate_move(g, Move{Direction::East, 3, {{0, 0}}}, false).has_value());
}

TEST(Executor, MultiStepLockstepGroupSweepsThroughVacatedCells) {
  OccupancyGrid g(1, 6);
  g.set({0, 1});
  g.set({0, 2});
  // Both move east 2: atom at 1 sweeps cells 2 (vacated by partner) and 3.
  const Move move{Direction::East, 2, {{0, 1}, {0, 2}}};
  EXPECT_FALSE(validate_move(g, move, true).has_value());
  apply_move(g, move);
  EXPECT_TRUE(g.occupied({0, 3}));
  EXPECT_TRUE(g.occupied({0, 4}));
}

TEST(Executor, ApplyMoveThrowsOnViolation) {
  OccupancyGrid g(2, 2);
  EXPECT_THROW(apply_move(g, Move{Direction::East, 1, {{0, 0}}}), PreconditionError);
}

TEST(Executor, RunScheduleStopsAtFirstViolation) {
  OccupancyGrid g(1, 4);
  g.set({0, 0});
  Schedule s;
  s.push_back(Move{Direction::East, 1, {{0, 0}}});
  s.push_back(Move{Direction::East, 1, {{0, 0}}});  // source now empty -> invalid
  const ExecutionReport report = run_schedule(g, s);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.moves_applied, 1u);
  EXPECT_NE(report.error.find("move 1"), std::string::npos);
}

TEST(Executor, AodCheckCanBeDisabled) {
  // A move that is physically collision-free but violates the AOD
  // cross-product rule: atoms (0,0) and (1,1) ride east while a bystander
  // sits on the generated cross trap (1,0).
  OccupancyGrid g(3, 4);
  g.set({0, 0});
  g.set({1, 1});
  g.set({1, 0});  // bystander on the cross trap
  const Move move{Direction::East, 1, {{0, 0}, {1, 1}}};
  EXPECT_TRUE(validate_move(g, move, /*check_aod=*/true).has_value());
  EXPECT_FALSE(validate_move(g, move, /*check_aod=*/false).has_value());
}

// ---------------------------------------------------------------------------
// Realizer
// ---------------------------------------------------------------------------

TEST(Realizer, CompactsARow) {
  OccupancyGrid g = OccupancyGrid::from_strings({"01011"});
  Schedule s;
  const LineAssignment a{0, {1, 3, 4}, {0, 1, 2}};
  const RealizeResult rr = realize_assignments(g, Axis::Rows, {&a, 1}, s);
  EXPECT_EQ(BitRow(g.row(0)).to_string(), "11100");
  EXPECT_EQ(rr.atoms_moved, 3u);
  EXPECT_EQ(rr.rounds_toward_origin, 2u);  // max displacement
  EXPECT_EQ(rr.rounds_away, 0u);
}

TEST(Realizer, MovesBothDirections) {
  OccupancyGrid g = OccupancyGrid::from_strings({"01100"});
  Schedule s;
  const LineAssignment a{0, {1, 2}, {0, 4}};  // one west, one east x2
  (void)realize_assignments(g, Axis::Rows, {&a, 1}, s);
  EXPECT_EQ(BitRow(g.row(0)).to_string(), "10001");
}

TEST(Realizer, ColumnAxisUsesNorthSouth) {
  OccupancyGrid g = OccupancyGrid::from_strings({
      "0",
      "1",
      "1",
      "0",
  });
  Schedule s;
  const LineAssignment a{0, {1, 2}, {0, 1}};
  (void)realize_assignments(g, Axis::Cols, {&a, 1}, s);
  EXPECT_TRUE(g.occupied({0, 0}));
  EXPECT_TRUE(g.occupied({1, 0}));
  EXPECT_FALSE(g.occupied({2, 0}));
  for (const auto& m : s.moves()) EXPECT_EQ(m.dir, Direction::North);
}

TEST(Realizer, RejectsMalformedAssignments) {
  OccupancyGrid g = OccupancyGrid::from_strings({"0110"});
  Schedule s;
  // Non-ascending sources.
  LineAssignment bad1{0, {2, 1}, {0, 1}};
  EXPECT_THROW((void)realize_assignments(g, Axis::Rows, {&bad1, 1}, s), PreconditionError);
  // Unoccupied source.
  LineAssignment bad2{0, {0}, {3}};
  EXPECT_THROW((void)realize_assignments(g, Axis::Rows, {&bad2, 1}, s), PreconditionError);
  // Size mismatch.
  LineAssignment bad3{0, {1, 2}, {0}};
  EXPECT_THROW((void)realize_assignments(g, Axis::Rows, {&bad3, 1}, s), PreconditionError);
  // Target collides with a fixed atom's ordering (moving atom would pass it).
  OccupancyGrid g2 = OccupancyGrid::from_strings({"0110"});
  LineAssignment bad4{0, {1}, {3}};  // must pass the fixed atom at 2
  EXPECT_THROW((void)realize_assignments(g2, Axis::Rows, {&bad4, 1}, s), PreconditionError);
  // Duplicate line.
  LineAssignment ok{0, {1}, {0}};
  LineAssignment dup{0, {2}, {3}};
  std::vector<LineAssignment> both{ok, dup};
  EXPECT_THROW((void)realize_assignments(g, Axis::Rows, both, s), PreconditionError);
}

/// The per-position input check realize_assignments ran before it checked
/// line masks, kept as the reference: true when it accepted `a`.
bool reference_accepts(const OccupancyGrid& grid, Axis axis, const LineAssignment& a) {
  const auto to_coord = [axis](std::int32_t line, std::int32_t pos) {
    return axis == Axis::Rows ? Coord{line, pos} : Coord{pos, line};
  };
  const std::int32_t line_count = axis == Axis::Rows ? grid.height() : grid.width();
  const std::int32_t line_length = axis == Axis::Rows ? grid.width() : grid.height();
  if (a.line < 0 || a.line >= line_count || a.sources.size() != a.targets.size()) return false;
  for (std::size_t i = 0; i < a.sources.size(); ++i) {
    if (a.sources[i] < 0 || a.sources[i] >= line_length) return false;
    if (a.targets[i] < 0 || a.targets[i] >= line_length) return false;
    if (!grid.occupied(to_coord(a.line, a.sources[i]))) return false;
    if (i > 0 && (a.sources[i] <= a.sources[i - 1] || a.targets[i] <= a.targets[i - 1]))
      return false;
  }
  std::size_t next_moving = 0;
  std::int32_t prev_final = -1;
  bool have_prev = false;
  for (std::int32_t pos = 0; pos < line_length; ++pos) {
    if (!grid.occupied(to_coord(a.line, pos))) continue;
    std::int32_t final_pos = pos;
    if (next_moving < a.sources.size() && a.sources[next_moving] == pos)
      final_pos = a.targets[next_moving++];
    if (have_prev && final_pos <= prev_final) return false;
    prev_final = final_pos;
    have_prev = true;
  }
  return true;
}

/// A valid re-placement of line `line`: a random subset of its atoms stays
/// fixed, and the movers between two fixed atoms land, in order, on random
/// positions between them.
LineAssignment random_valid_assignment(const OccupancyGrid& grid, Axis axis, std::int32_t line,
                                       Rng& rng, std::vector<std::int32_t>& fixed) {
  const BitRow bits = axis == Axis::Rows ? BitRow(grid.row(line)) : grid.column(line);
  const auto length = static_cast<std::int32_t>(bits.width());
  LineAssignment a{line, {}, {}};
  fixed.clear();
  std::vector<std::int32_t> segment;
  const auto close_segment = [&](std::int32_t lo, std::int32_t hi) {  // open interval (lo, hi)
    // Choose |segment| ascending targets in (lo, hi) by selection sampling.
    std::int32_t needed = static_cast<std::int32_t>(segment.size());
    for (std::int32_t p = lo + 1; p < hi && needed > 0; ++p) {
      if (std::cmp_less(rng.uniform_below(static_cast<std::uint32_t>(hi - p)), needed)) {
        a.targets.push_back(p);
        --needed;
      }
    }
    a.sources.insert(a.sources.end(), segment.begin(), segment.end());
    segment.clear();
  };
  std::int32_t last_fixed = -1;
  for (const std::uint32_t p : bits.set_positions()) {
    const auto pos = static_cast<std::int32_t>(p);
    if (rng.uniform_below(4) == 0) {
      close_segment(last_fixed, pos);
      fixed.push_back(pos);
      last_fixed = pos;
    } else {
      segment.push_back(pos);
    }
  }
  close_segment(last_fixed, length);
  return a;
}

TEST(Realizer, MaskValidationMatchesThePerPositionReference) {
  // Valid re-placements, and the same with one malformation each: an
  // unoccupied source, non-ascending sources or targets, an out-of-range
  // line, position or size, a mover passing a fixed atom, or a target on a
  // fixed atom (a duplicate final position). realize_assignments must throw
  // PreconditionError exactly when the reference rejects the assignment.
  Rng rng(0x7A11DULL);
  int accepted = 0;
  int rejected = 0;
  std::vector<std::int32_t> fixed;
  for (int trial = 0; trial < 6000; ++trial) {
    const auto height = 1 + static_cast<std::int32_t>(rng.uniform_below(trial % 8 == 0 ? 140 : 24));
    const auto width = 1 + static_cast<std::int32_t>(rng.uniform_below(trial % 8 == 1 ? 140 : 24));
    const OccupancyGrid grid = load_random(height, width, {0.1 + 0.8 * rng.uniform01(), rng()});
    const Axis axis = rng.uniform_below(2) == 0 ? Axis::Rows : Axis::Cols;
    const std::int32_t lines = axis == Axis::Rows ? height : width;
    const std::int32_t length = axis == Axis::Rows ? width : height;
    const auto line =
        static_cast<std::int32_t>(rng.uniform_below(static_cast<std::uint32_t>(lines)));
    LineAssignment a = random_valid_assignment(grid, axis, line, rng, fixed);
    const std::size_t n = a.sources.size();
    const auto pick = [&rng](std::size_t size) {
      return rng.uniform_below(static_cast<std::uint32_t>(size));
    };
    const auto random_pos = [&] {
      return static_cast<std::int32_t>(rng.uniform_below(static_cast<std::uint32_t>(length)));
    };
    switch (rng.uniform_below(8)) {
      case 0: break;  // valid
      case 1:
        if (n > 0) a.sources[pick(n)] = random_pos();  // often unoccupied or out of order
        break;
      case 2:
        if (n > 1) std::swap(a.sources[0], a.sources[1 + pick(n - 1)]);
        break;
      case 3:
        if (n > 1) a.targets[1 + pick(n - 1)] = a.targets[0];
        break;
      case 4:
        switch (rng.uniform_below(4)) {
          case 0: a.line = rng.uniform_below(2) == 0 ? -1 : lines; break;
          case 1: if (n > 0) a.sources[pick(n)] = rng.uniform_below(2) == 0 ? -1 : length; break;
          case 2: if (n > 0) a.targets[pick(n)] = rng.uniform_below(2) == 0 ? -1 : length; break;
          default: if (n > 0) a.targets.pop_back(); break;
        }
        break;
      case 5:
        if (n > 0) a.targets[pick(n)] = random_pos();  // often passes a fixed atom
        break;
      case 6:
        if (n > 0 && !fixed.empty()) a.targets[pick(n)] = fixed[pick(fixed.size())];
        break;
      default:
        if (n > 0) a.targets[pick(n)] += rng.uniform_below(2) == 0 ? -1 : 1;
        break;
    }
    const bool want = reference_accepts(grid, axis, a);
    OccupancyGrid realized = grid;
    Schedule schedule;
    bool got = true;
    try {
      (void)realize_assignments(realized, axis, {&a, 1}, schedule);
    } catch (const PreconditionError&) {
      got = false;
    }
    ASSERT_EQ(got, want) << "trial " << trial << ": " << height << "x" << width << ", line "
                         << a.line << (axis == Axis::Rows ? " (row)" : " (column)");
    ++(want ? accepted : rejected);
    if (want) {
      testutil::expect_replays_to(grid, schedule, realized);
      // The same line twice in one call is refused.
      const std::vector<LineAssignment> twice{a, a};
      OccupancyGrid again = grid;
      EXPECT_THROW((void)realize_assignments(again, axis, twice, schedule), PreconditionError);
    }
  }
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(rejected, 1000);
}

TEST(Realizer, MultiLineRoundsShareCommands) {
  // Two rows, both compacting west by one: a single round should carry both
  // atoms (AOD-legal because the cross traps are empty or members).
  OccupancyGrid g = OccupancyGrid::from_strings({
      "010",
      "010",
  });
  Schedule s;
  std::vector<LineAssignment> lines{{0, {1}, {0}}, {1, {1}, {0}}};
  (void)realize_assignments(g, Axis::Rows, lines, s);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].sites.size(), 2u);
}

TEST(Realizer, RandomisedAssignmentsExecuteCleanly) {
  // Property: random per-row subsets mapped to random order-preserving
  // distinct targets realize into schedules that replay cleanly.
  Rng rng(5);
  for (int trial = 0; trial < 25; ++trial) {
    OccupancyGrid g = load_random(10, 14, {0.4, 2000 + static_cast<std::uint64_t>(trial)});
    const OccupancyGrid initial = g;
    std::vector<LineAssignment> lines;
    for (std::int32_t r = 0; r < g.height(); ++r) {
      const auto atoms = BitRow(g.row(r)).set_positions();
      if (atoms.empty()) continue;
      // Move every atom of the row to a fresh ascending random placement.
      std::set<std::int32_t> placement;
      while (placement.size() < atoms.size()) {
        placement.insert(static_cast<std::int32_t>(rng.uniform_below(14)));
      }
      LineAssignment a;
      a.line = r;
      for (const auto p : atoms) a.sources.push_back(static_cast<std::int32_t>(p));
      a.targets.assign(placement.begin(), placement.end());
      lines.push_back(std::move(a));
    }
    Schedule s;
    (void)realize_assignments(g, Axis::Rows, lines, s);
    testutil::expect_replays_to(initial, s, g);
  }
}

// ---------------------------------------------------------------------------
// Schedule bookkeeping & physical model
// ---------------------------------------------------------------------------

TEST(Schedule, StatsAndRecords) {
  Schedule s;
  s.push_back(Move{Direction::West, 1, {{0, 1}, {1, 1}}});
  s.push_back(Move{Direction::South, 3, {{2, 2}}});
  const ScheduleStats st = s.stats();
  EXPECT_EQ(st.parallel_moves, 2u);
  EXPECT_EQ(st.atom_moves, 3u);
  EXPECT_EQ(st.total_steps, 5);
  EXPECT_EQ(st.max_steps, 3);
  EXPECT_EQ(st.max_parallelism, 2u);
  EXPECT_DOUBLE_EQ(st.mean_parallelism, 1.5);
}

TEST(Schedule, AppendAddsTheOtherSchedulesMoves) {
  Schedule a;
  a.push_back(Move{Direction::East, 1, {{0, 0}}});
  const Schedule first = a;
  Schedule b;
  b.push_back(Move{Direction::North, 2, {{3, 3}}});
  a.append(b);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0], first[0]);
  EXPECT_EQ(a[1], b[0]);
}

TEST(Schedule, AppendToItselfRepeatsEveryMove) {
  Schedule s;
  s.push_back(Move{Direction::East, 1, {{0, 0}, {1, 0}}});
  s.push_back(Move{Direction::North, 2, {{3, 3}}});
  const Schedule before = s;
  s.append(s);
  ASSERT_EQ(s.size(), 4u);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(s[i], before[i]);
    EXPECT_EQ(s[i + before.size()], before[i]);
  }
}

TEST(Schedule, LineFormCommandsExpandLikeTheirSiteFormCopies) {
  // legalize() appends line-form commands: lines front-first, each with
  // its member words (two per line on a 70-wide grid). Their sites, their
  // site-form copies (push_back) and append of mixed forms (which keeps
  // each command's form) all list the same sites in the same order.
  const OccupancyGrid g = load_random(20, 70, {0.5, 3});
  OccupancyGrid joined(20, 70);
  std::vector<Coord> intent;
  for (const Coord& a : g.atom_positions()) {  // row-major is front-first for North
    const Coord cell = moved(a, Direction::North, 1);
    if (g.in_bounds(cell) && (!g.occupied(cell) || joined.occupied(cell))) {
      intent.push_back(a);
      joined.set(a);
    }
  }
  const Schedule legal = legalize(g, intent, Direction::North, 1);
  ASSERT_GT(legal.size(), 1u);
  const Schedule copy = testutil::site_form(legal);
  EXPECT_EQ(copy, legal);
  EXPECT_EQ(copy.stats().atom_moves, intent.size());
  EXPECT_LT(legal.bytes(), copy.bytes());
  for (std::size_t i = 0; i < legal.size(); ++i) {
    EXPECT_TRUE(legal[i].sites.by_line());
    EXPECT_FALSE(copy[i].sites.by_line());
    EXPECT_EQ(legal[i].sites.size(), copy[i].sites.size());
    EXPECT_TRUE(std::ranges::equal(legal[i].sites, copy[i].sites.coords()));
    EXPECT_TRUE(std::is_sorted(copy[i].sites.coords().begin(), copy[i].sites.coords().end()));
  }

  Schedule mixed;
  mixed.push_back(Move{Direction::East, 2, {{0, 0}, {1, 0}}});
  mixed.append(legal);
  mixed.push_back(legal[0]);
  EXPECT_TRUE(mixed[1].sites.by_line());
  EXPECT_FALSE(mixed[mixed.size() - 1].sites.by_line());
  mixed.append(mixed);
  Schedule expected;
  expected.push_back(Move{Direction::East, 2, {{0, 0}, {1, 0}}});
  expected.append(copy);
  expected.push_back(copy[0]);
  expected.append(expected);
  EXPECT_EQ(mixed, expected);
  EXPECT_EQ(mixed.stats().atom_moves, expected.stats().atom_moves);
  EXPECT_EQ(mixed.stats().total_steps, expected.stats().total_steps);
}

TEST(Physical, DurationsAccumulate) {
  const PhysicalModel model{20.0, 10.0};
  Schedule s;
  s.push_back(Move{Direction::East, 1, {{0, 0}, {1, 0}}});
  s.push_back(Move{Direction::East, 4, {{0, 2}}});
  EXPECT_DOUBLE_EQ(model.move_duration_us(s[0]), 30.0);
  EXPECT_DOUBLE_EQ(model.move_duration_us(s[1]), 60.0);
  EXPECT_DOUBLE_EQ(model.schedule_duration_us(s), 90.0);
}

}  // namespace
}  // namespace qrm
