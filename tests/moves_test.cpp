// Tests for the moves substrate: AOD legality, legalisation, the executor,
// the realizer, schedules, and the physical-time model.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
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

// ---------------------------------------------------------------------------
// AOD cross-product legality
// ---------------------------------------------------------------------------

TEST(Aod, SingleAtomAlwaysLegal) {
  OccupancyGrid g(4, 4);
  g.set({1, 1});
  EXPECT_TRUE(is_aod_legal(g, {Direction::East, 1, {{1, 1}}}));
}

TEST(Aod, CrossTrapBystanderIsIllegal) {
  // Sites (0,0) and (1,1) selected: rows {0,1} x cols {0,1} generates traps
  // at (0,1) and (1,0) too. Put a bystander at (0,1).
  OccupancyGrid g(4, 4);
  g.set({0, 0});
  g.set({1, 1});
  g.set({0, 1});  // bystander
  const ParallelMove move{Direction::East, 1, {{0, 0}, {1, 1}}};
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
  const ParallelMove move{Direction::South, 1, {{0, 0}, {1, 1}, {0, 1}}};
  // (1,0) is empty, so the remaining cross trap is harmless.
  EXPECT_TRUE(is_aod_legal(g, move));
}

TEST(Aod, EmptyCrossTrapHarmless) {
  OccupancyGrid g(4, 4);
  g.set({0, 0});
  g.set({1, 1});
  EXPECT_TRUE(is_aod_legal(g, {Direction::East, 1, {{0, 0}, {1, 1}}}));
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
  for (const auto& b : batches) {
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
    for (const auto& b : batches) {
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

// Test-local reference for unit-step legalize: one command when the whole
// set is legal, else greedy commands, each a pass over the remaining sites
// in front-first order (major line nearest the destination first, minor
// ascending) that accepts a site when its destination is free or vacated by
// an accepted member and neither the new row nor the new column of AOD
// traps catches a bystander. Written per candidate, per trap.
std::vector<ParallelMove> reference_unit_legalize(const OccupancyGrid& grid,
                                                  std::vector<Coord> sites, Direction dir) {
  std::sort(sites.begin(), sites.end(),
            [dir](const Coord& a, const Coord& b) { return front_first(dir, a, b); });
  OccupancyGrid state = grid;
  if (!validate_move(state, {dir, 1, sites}, /*check_aod=*/true).has_value())
    return {ParallelMove{dir, 1, sites}};
  std::vector<ParallelMove> out;
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
      const Coord dest = moved(s, dir, 1);
      bool ok = state.in_bounds(dest) && (!state.occupied(dest) || members.contains(dest));
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
    ParallelMove move{dir, 1, std::move(batch)};
    apply_move_unchecked(state, move);
    out.push_back(std::move(move));
    sites = std::move(deferred);
  }
  return out;
}

TEST(Aod, UnitLegalizeMatchesThePerCandidateReference) {
  // Lines of 5 to 130 minors (one to three 64-bit words) in all four
  // directions. Intents are drawn front-first: an atom joins with
  // probability `p` when its destination is in bounds and free or taken by
  // a joined atom (so dense intents form chains that need several
  // commands). One intent in eight may also take atoms that cannot go,
  // which must throw InvariantError on both sides.
  Rng rng(2024);
  const std::int32_t minor_counts[] = {5, 17, 40, 63, 64, 65, 90, 127, 128, 129, 130};
  std::size_t single = 0;
  std::size_t split = 0;
  std::size_t stuck = 0;
  for (const Direction dir :
       {Direction::North, Direction::South, Direction::East, Direction::West}) {
    const bool horizontal = is_horizontal(dir);
    for (const std::int32_t minors : minor_counts) {
      for (int trial = 0; trial < 45; ++trial) {
        const auto majors = static_cast<std::int32_t>(3 + rng.uniform_below(10));
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
          const Coord dest = moved(a, dir, 1);
          const bool can_go =
              g.in_bounds(dest) && (!g.occupied(dest) || joined.occupied(dest));
          if ((can_go || (reckless && rng.uniform_below(20) == 0)) && rng.uniform01() < p) {
            sites.push_back(a);
            joined.set(a);
          }
        }
        if (sites.empty()) continue;
        std::vector<Coord> shuffled = sites;
        for (std::size_t i = shuffled.size(); i > 1; --i)
          std::swap(shuffled[i - 1], shuffled[rng.uniform_below(i)]);

        std::vector<ParallelMove> expected;
        bool expect_throw = false;
        try {
          expected = reference_unit_legalize(g, sites, dir);
        } catch (const InvariantError&) {
          expect_throw = true;
        }
        if (expect_throw) {
          ++stuck;
          EXPECT_THROW((void)legalize(g, shuffled, dir, 1), InvariantError);
          continue;
        }
        const std::vector<ParallelMove> got = legalize(g, shuffled, dir, 1);
        ASSERT_EQ(got, expected) << to_cstring(dir) << " " << height << "x" << width
                                 << " trial " << trial;
        ++(got.size() == 1 ? single : split);
      }
    }
  }
  // The draw must exercise single commands, split rounds and stuck intents.
  EXPECT_GT(single, 50u);
  EXPECT_GT(split, 500u);
  EXPECT_GT(stuck, 50u);
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

TEST(Executor, RejectsEmptyAndBadSteps) {
  OccupancyGrid g(4, 4);
  g.set({0, 0});
  EXPECT_TRUE(validate_move(g, {Direction::East, 1, {}}, false).has_value());
  EXPECT_TRUE(validate_move(g, {Direction::East, 0, {{0, 0}}}, false).has_value());
}

TEST(Executor, RejectsUnoccupiedSourceAndDuplicates) {
  OccupancyGrid g(4, 4);
  g.set({0, 0});
  EXPECT_TRUE(validate_move(g, {Direction::East, 1, {{1, 1}}}, false).has_value());
  EXPECT_TRUE(validate_move(g, {Direction::East, 1, {{0, 0}, {0, 0}}}, false).has_value());
}

TEST(Executor, RejectsOutOfBoundsDestination) {
  OccupancyGrid g(4, 4);
  g.set({0, 3});
  EXPECT_TRUE(validate_move(g, {Direction::East, 1, {{0, 3}}}, false).has_value());
  g.set({0, 0});
  EXPECT_TRUE(validate_move(g, {Direction::West, 1, {{0, 0}}}, false).has_value());
}

TEST(Executor, RejectsCollisionWithBystander) {
  OccupancyGrid g(1, 4);
  g.set({0, 0});
  g.set({0, 2});
  // Moving (0,0) east by 2 lands on (0,2), and also sweeps (0,1) (empty ok).
  EXPECT_TRUE(validate_move(g, {Direction::East, 2, {{0, 0}}}, false).has_value());
}

TEST(Executor, LockstepChainIsValid) {
  OccupancyGrid g(1, 4);
  g.set({0, 1});
  g.set({0, 2});
  const ParallelMove move{Direction::West, 1, {{0, 1}, {0, 2}}};
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
  EXPECT_TRUE(validate_move(g, {Direction::East, 3, {{0, 0}}}, false).has_value());
  g.clear({0, 2});
  EXPECT_FALSE(validate_move(g, {Direction::East, 3, {{0, 0}}}, false).has_value());
}

TEST(Executor, MultiStepLockstepGroupSweepsThroughVacatedCells) {
  OccupancyGrid g(1, 6);
  g.set({0, 1});
  g.set({0, 2});
  // Both move east 2: atom at 1 sweeps cells 2 (vacated by partner) and 3.
  const ParallelMove move{Direction::East, 2, {{0, 1}, {0, 2}}};
  EXPECT_FALSE(validate_move(g, move, true).has_value());
  apply_move(g, move);
  EXPECT_TRUE(g.occupied({0, 3}));
  EXPECT_TRUE(g.occupied({0, 4}));
}

TEST(Executor, ApplyMoveThrowsOnViolation) {
  OccupancyGrid g(2, 2);
  EXPECT_THROW(apply_move(g, {Direction::East, 1, {{0, 0}}}), PreconditionError);
}

TEST(Executor, RunScheduleStopsAtFirstViolation) {
  OccupancyGrid g(1, 4);
  g.set({0, 0});
  Schedule s;
  s.push_back({Direction::East, 1, {{0, 0}}});
  s.push_back({Direction::East, 1, {{0, 0}}});  // source now empty -> invalid
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
  const ParallelMove move{Direction::East, 1, {{0, 0}, {1, 1}}};
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
  EXPECT_EQ(g.row(0).to_string(), "11100");
  EXPECT_EQ(rr.atoms_moved, 3u);
  EXPECT_EQ(rr.rounds_toward_origin, 2u);  // max displacement
  EXPECT_EQ(rr.rounds_away, 0u);
}

TEST(Realizer, MovesBothDirections) {
  OccupancyGrid g = OccupancyGrid::from_strings({"01100"});
  Schedule s;
  const LineAssignment a{0, {1, 2}, {0, 4}};  // one west, one east x2
  (void)realize_assignments(g, Axis::Rows, {&a, 1}, s);
  EXPECT_EQ(g.row(0).to_string(), "10001");
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
      const auto atoms = g.row(r).set_positions();
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
  s.push_back({Direction::West, 1, {{0, 1}, {1, 1}}});
  s.push_back({Direction::South, 3, {{2, 2}}});
  const ScheduleStats st = s.stats();
  EXPECT_EQ(st.parallel_moves, 2u);
  EXPECT_EQ(st.atom_moves, 3u);
  EXPECT_EQ(st.total_steps, 5);
  EXPECT_EQ(st.max_steps, 3);
  EXPECT_EQ(st.max_parallelism, 2u);
  EXPECT_DOUBLE_EQ(st.mean_parallelism, 1.5);

  const auto records = s.records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].origin, (Coord{2, 2}));
  EXPECT_EQ(records[2].dir, Direction::South);
  EXPECT_EQ(records[2].steps, 3);
}

TEST(Schedule, AppendAndToString) {
  Schedule a;
  a.push_back({Direction::East, 1, {{0, 0}}});
  Schedule b;
  b.push_back({Direction::North, 2, {{3, 3}}});
  a.append(b);
  EXPECT_EQ(a.size(), 2u);
  const std::string text = a.to_string();
  EXPECT_NE(text.find("E x1"), std::string::npos);
  EXPECT_NE(text.find("N x2"), std::string::npos);
}

TEST(Schedule, AppendToItselfRepeatsEveryMove) {
  Schedule s;
  s.push_back({Direction::East, 1, {{0, 0}, {1, 0}}});
  s.push_back({Direction::North, 2, {{3, 3}}});
  const Schedule before = s;
  s.append(s);
  ASSERT_EQ(s.size(), 4u);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(s[i], before[i]);
    EXPECT_EQ(s[i + before.size()], before[i]);
  }
}

TEST(Physical, DurationsAccumulate) {
  const PhysicalModel model{20.0, 10.0};
  Schedule s;
  s.push_back({Direction::East, 1, {{0, 0}, {1, 0}}});
  s.push_back({Direction::East, 4, {{0, 2}}});
  EXPECT_DOUBLE_EQ(model.move_duration_us(s[0]), 30.0);
  EXPECT_DOUBLE_EQ(model.move_duration_us(s[1]), 60.0);
  EXPECT_DOUBLE_EQ(model.schedule_duration_us(s), 90.0);
}

}  // namespace
}  // namespace qrm
