// Tests for the multi-round rearrangement-under-loss loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "core/planner.hpp"
#include "loading/loader.hpp"
#include "moves/dead_channels.hpp"
#include "runtime/rearrangement_loop.hpp"

namespace qrm {
namespace {

rt::LoopConfig loop_config(std::int32_t size, std::int32_t target) {
  rt::LoopConfig config;
  config.plan.target = centered_square(size, target);
  return config;
}

TEST(RearrangementLoop, LosslessSucceedsInOneRound) {
  const OccupancyGrid initial = load_random(24, 24, {0.6, 3});
  rt::LoopConfig config = loop_config(24, 14);
  config.loss.per_move_loss = 0.0;
  config.loss.background_loss = 0.0;
  const rt::LoopReport report = rt::run_rearrangement_loop(initial, config);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.rounds_used(), 1u);
  EXPECT_EQ(report.total_atoms_lost, 0);
  EXPECT_EQ(report.final_grid.atom_count(), initial.atom_count());
  EXPECT_TRUE(report.final_grid.region_full(config.plan.target));
}

TEST(RearrangementLoop, ModerateLossRecoversWithinAFewRounds) {
  const OccupancyGrid initial = load_random(24, 24, {0.65, 5});
  rt::LoopConfig config = loop_config(24, 14);
  config.loss.per_move_loss = 0.02;
  const rt::LoopReport report = rt::run_rearrangement_loop(initial, config);
  EXPECT_TRUE(report.success) << "rounds used: " << report.rounds_used();
  EXPECT_GT(report.total_atoms_lost, 0);
  EXPECT_LE(report.rounds_used(), 6u);
  // Defects must shrink monotonically round over round.
  for (std::size_t i = 1; i < report.rounds.size(); ++i) {
    EXPECT_LE(report.rounds[i].defects_before, report.rounds[i - 1].defects_before);
  }
}

TEST(RearrangementLoop, CatastrophicLossFailsGracefully) {
  const OccupancyGrid initial = load_random(20, 20, {0.55, 7});
  rt::LoopConfig config = loop_config(20, 14);
  config.loss.per_move_loss = 0.5;       // half of every transport dies
  config.loss.background_loss = 0.05;
  config.max_rounds = 8;
  const rt::LoopReport report = rt::run_rearrangement_loop(initial, config);
  EXPECT_FALSE(report.success);
  EXPECT_GT(report.total_atoms_lost, 0);
  // Atom accounting: initial = final + lost.
  EXPECT_EQ(report.final_grid.atom_count() + report.total_atoms_lost, initial.atom_count());
}

TEST(RearrangementLoop, AtomAccountingExact) {
  const OccupancyGrid initial = load_random(20, 20, {0.6, 9});
  rt::LoopConfig config = loop_config(20, 12);
  config.loss.per_move_loss = 0.05;
  config.loss.background_loss = 0.01;
  const rt::LoopReport report = rt::run_rearrangement_loop(initial, config);
  EXPECT_EQ(report.final_grid.atom_count() + report.total_atoms_lost, initial.atom_count());
}

TEST(RearrangementLoop, DeterministicPerSeed) {
  const OccupancyGrid initial = load_random(20, 20, {0.6, 13});
  rt::LoopConfig config = loop_config(20, 12);
  config.loss.per_move_loss = 0.03;
  const rt::LoopReport a = rt::run_rearrangement_loop(initial, config);
  const rt::LoopReport b = rt::run_rearrangement_loop(initial, config);
  EXPECT_EQ(a.rounds_used(), b.rounds_used());
  EXPECT_EQ(a.total_atoms_lost, b.total_atoms_lost);
  EXPECT_EQ(a.final_grid, b.final_grid);
}

TEST(RearrangementLoop, LossyMoveOrderBreaksTiesByRowThenColumn) {
  // Regression for the sort-tie bug: the execution order used to sort on
  // the front key alone, leaving sites abreast of each other (the common
  // case — a merged move's sites share the coordinate perpendicular to the
  // direction) in std::sort's unspecified tie order. Each site consumes RNG
  // draws, so tie order IS loss outcome; it must be fully specified.
  const std::vector<Coord> west_sites = {{2, 5}, {0, 5}, {1, 5}, {1, 3}};
  const ParallelMove west{Direction::West, 1, west_sites};
  // Front key for West is the column: (1,3) leads, then the col-5 tie
  // group in (row, col) order.
  const std::vector<Coord> west_order = rt::lossy_move_order(west);
  const std::vector<Coord> west_expected = {{1, 3}, {0, 5}, {1, 5}, {2, 5}};
  EXPECT_EQ(west_order, west_expected);

  const std::vector<Coord> north_sites = {{4, 3}, {4, 1}, {2, 2}, {4, 2}};
  const ParallelMove north{Direction::North, 2, north_sites};
  // Front key for North is the row: (2,2) leads, then the row-4 tie group
  // in column order.
  const std::vector<Coord> north_order = rt::lossy_move_order(north);
  const std::vector<Coord> north_expected = {{2, 2}, {4, 1}, {4, 2}, {4, 3}};
  EXPECT_EQ(north_order, north_expected);
}

TEST(RearrangementLoop, QrmPlansListSitesInLossyOrder) {
  // The loop walks a move's sites in place when they are already in
  // lossy_move_order, which every AOD-legalized QRM move is by construction
  // (front-first lines, minors ascending) — unit rounds and dead-channel
  // hops, merged or per quadrant, on grids wider than one 64-bit word.
  std::size_t moves = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const std::int32_t size : {24, 50, 80}) {
      QrmConfig config;
      config.target = centered_square(size, size / 2 - (size / 2) % 2);
      config.mode = seed % 2 == 0 ? PlanMode::Compact : PlanMode::Balanced;
      config.merge_quadrants = seed != 3;
      if (seed == 4) config.dead_channels = {{1, size / 3}, {size - 3}};
      const OccupancyGrid initial =
          mask_dead_lines(load_random(size, size, {0.6, seed}), config.dead_channels);
      const PlanResult plan = QrmPlanner(config).plan(initial);
      for (const ParallelMove& move : plan.schedule.moves()) {
        ASSERT_TRUE(std::ranges::equal(rt::lossy_move_order(move), move.sites))
            << "seed " << seed << " size " << size << " move " << moves;
        ++moves;
      }
    }
  }
  EXPECT_GT(moves, 1000u);
}

TEST(RearrangementLoop, SuccessAlwaysEqualsTargetFullInTheFinalGrid) {
  // Invariant behind the single authoritative success computation: the
  // flag must equal region_full(target) of the reported final grid on
  // every exit path — one-round success, multi-round recovery, early
  // "not enough atoms" exits, and round-budget exhaustion.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const OccupancyGrid initial = load_random(20, 20, {0.45 + 0.05 * (seed % 4), seed});
    rt::LoopConfig config = loop_config(20, 12);
    config.loss.per_move_loss = seed % 2 == 0 ? 0.3 : 0.02;
    config.loss.background_loss = 0.01;
    config.max_rounds = 4;
    const rt::LoopReport report = rt::run_rearrangement_loop(initial, config);
    EXPECT_EQ(report.success, report.final_grid.region_full(config.plan.target));
  }
}

TEST(RearrangementLoop, CertainTransportLossKillsEveryMovedAtom) {
  // per_move_loss = 1.0: transport is a death sentence, so the loop can
  // only shed atoms until the "not enough atoms" exit fires.
  const OccupancyGrid initial = load_random(20, 20, {0.6, 11});
  rt::LoopConfig config = loop_config(20, 12);
  config.loss.per_move_loss = 1.0;
  config.loss.background_loss = 0.0;
  const rt::LoopReport report = rt::run_rearrangement_loop(initial, config);
  EXPECT_FALSE(report.success);
  EXPECT_LT(report.rounds_used(), static_cast<std::size_t>(config.max_rounds))
      << "the atom budget must exhaust before the round budget";
  EXPECT_GT(report.total_atoms_lost, 0);
  EXPECT_EQ(report.final_grid.atom_count() + report.total_atoms_lost, initial.atom_count());
  // Every round's losses are exactly the atoms that round had minus the
  // atoms that survived into the next accounting point.
  for (const rt::RoundReport& round : report.rounds) EXPECT_GE(round.atoms_lost, 0);
}

TEST(RearrangementLoop, CertainBackgroundLossEmptiesTheArrayInOneRound) {
  // background_loss = 1.0: every trapped atom dies between rounds, so
  // round 1 ends with an empty array and the loop exits on the atom
  // budget with everything accounted as lost.
  const OccupancyGrid initial = load_random(20, 20, {0.6, 17});
  rt::LoopConfig config = loop_config(20, 12);
  config.loss.per_move_loss = 0.0;
  config.loss.background_loss = 1.0;
  const rt::LoopReport report = rt::run_rearrangement_loop(initial, config);
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.rounds_used(), 1u);
  EXPECT_EQ(report.final_grid.atom_count(), 0);
  EXPECT_EQ(report.total_atoms_lost, initial.atom_count());
}

TEST(RearrangementLoop, PrefilledTargetSucceedsBeforeBackgroundLossCanFire) {
  // A grid whose target is already defect-free succeeds in zero rounds:
  // the loop checks defects before planning, and background loss only
  // applies after an executed round — so even certain background loss
  // never fires.
  OccupancyGrid initial(20, 20);
  const Region target = centered_square(20, 12);
  for (std::int32_t r = 0; r < target.rows; ++r)
    for (std::int32_t c = 0; c < target.cols; ++c)
      initial.set({target.row0 + r, target.col0 + c});
  rt::LoopConfig config = loop_config(20, 12);
  config.loss.background_loss = 1.0;
  const rt::LoopReport report = rt::run_rearrangement_loop(initial, config);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.rounds_used(), 0u);
  EXPECT_EQ(report.total_atoms_lost, 0);
  EXPECT_EQ(report.final_grid, initial);
}

TEST(RearrangementLoop, NotEnoughAtomsExitsEarlyWithDefectsRemaining) {
  // Start with fewer atoms than the target needs: round 1 plans, loses
  // nothing necessarily, but the budget check atoms < target area stops
  // the loop immediately instead of burning the full round budget.
  const OccupancyGrid initial = load_random(20, 20, {0.25, 19});
  rt::LoopConfig config = loop_config(20, 12);
  ASSERT_LT(initial.atom_count(), static_cast<std::int64_t>(config.plan.target.area()));
  config.max_rounds = 10;
  const rt::LoopReport report = rt::run_rearrangement_loop(initial, config);
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.rounds_used(), 1u);
  EXPECT_FALSE(report.final_grid.region_full(config.plan.target));
}

TEST(RearrangementLoop, RejectsBadConfig) {
  const OccupancyGrid initial(20, 20);
  rt::LoopConfig config = loop_config(20, 12);
  config.max_rounds = 0;
  EXPECT_THROW((void)rt::run_rearrangement_loop(initial, config), PreconditionError);
  config.max_rounds = 1;
  config.loss.per_move_loss = 1.5;
  EXPECT_THROW((void)rt::run_rearrangement_loop(initial, config), PreconditionError);
  config.loss.per_move_loss = 0.0;
  config.loss.burst_loss = 1.5;
  EXPECT_THROW((void)rt::run_rearrangement_loop(initial, config), PreconditionError);
  config.loss.burst_loss = -0.1;
  EXPECT_THROW((void)rt::run_rearrangement_loop(initial, config), PreconditionError);
}

// ---------------------------------------------------------------------------
// Hostile physics: correlated loss bursts + dead AOD channels
// ---------------------------------------------------------------------------

TEST(RearrangementLoop, CertainBurstLossKillsARunEveryRound) {
  const OccupancyGrid initial = load_random(24, 24, {0.65, 5});
  rt::LoopConfig config = loop_config(24, 14);
  config.loss.per_move_loss = 0.0;
  config.loss.background_loss = 0.0;
  config.loss.burst_loss = 1.0;  // a burst fires on every executed round
  config.loss.burst_length = 6;
  config.max_rounds = 4;
  const rt::LoopReport report = rt::run_rearrangement_loop(initial, config);
  // Every executed round loses exactly one burst (no other loss channel):
  // 6 atoms, or everything left if fewer remain.
  for (const rt::RoundReport& round : report.rounds) {
    EXPECT_EQ(round.atoms_lost, std::min<std::int64_t>(6, round.atoms_before));
  }
  EXPECT_EQ(report.final_grid.atom_count() + report.total_atoms_lost, initial.atom_count());
}

TEST(RearrangementLoop, DisabledBurstLossDrawsNothingFromTheLossStream) {
  // burst_loss = 0 must consume ZERO RNG draws — otherwise every
  // pre-existing loss outcome would shift. Differential form: a run with
  // burst disabled is bit-identical whatever burst_length says, and equal
  // to a config that never heard of bursts.
  const OccupancyGrid initial = load_random(24, 24, {0.62, 11});
  rt::LoopConfig config = loop_config(24, 14);
  config.loss.per_move_loss = 0.03;
  config.loss.background_loss = 0.01;
  const rt::LoopReport baseline = rt::run_rearrangement_loop(initial, config);
  config.loss.burst_loss = 0.0;
  config.loss.burst_length = 999;  // irrelevant while the probability is 0
  const rt::LoopReport disabled = rt::run_rearrangement_loop(initial, config);
  EXPECT_EQ(disabled.final_grid, baseline.final_grid);
  EXPECT_EQ(disabled.total_atoms_lost, baseline.total_atoms_lost);
  EXPECT_EQ(disabled.rounds_used(), baseline.rounds_used());
}

TEST(RearrangementLoop, DeadLinesFreezeAtomsButTheLoopStillFills) {
  // A dead row above the target and a dead column to its left: atoms there
  // are frozen (no pickup, no loss exposure via moves), the planner works
  // on the masked grid, and movers hop *across* the dead lines — a 0.65
  // fill still has plenty of usable stock, so the loop must succeed.
  const OccupancyGrid initial = load_random(24, 24, {0.65, 13});
  rt::LoopConfig config = loop_config(24, 12);  // target rows/cols 6..18
  config.plan.dead_channels = DeadChannelMask{{3}, {20}};
  config.loss.per_move_loss = 0.0;
  config.loss.background_loss = 0.0;
  const rt::LoopReport report = rt::run_rearrangement_loop(initial, config);
  EXPECT_TRUE(report.success);
  EXPECT_TRUE(report.final_grid.region_full(config.plan.target));
  // Frozen atoms persist bit-exactly (no loss channels are on).
  for (std::int32_t c = 0; c < 24; ++c)
    EXPECT_EQ(report.final_grid.occupied({3, c}), initial.occupied({3, c})) << "col " << c;
  for (std::int32_t r = 0; r < 24; ++r)
    EXPECT_EQ(report.final_grid.occupied({r, 20}), initial.occupied({r, 20})) << "row " << r;
}

TEST(RearrangementLoop, EmptyDeadMaskIsBitExactNoOp) {
  const OccupancyGrid initial = load_random(20, 20, {0.6, 17});
  rt::LoopConfig config = loop_config(20, 12);
  config.loss.per_move_loss = 0.02;
  const rt::LoopReport baseline = rt::run_rearrangement_loop(initial, config);
  config.plan.dead_channels = DeadChannelMask{};
  const rt::LoopReport masked = rt::run_rearrangement_loop(initial, config);
  EXPECT_EQ(masked.final_grid, baseline.final_grid);
  EXPECT_EQ(masked.total_atoms_lost, baseline.total_atoms_lost);
}

}  // namespace
}  // namespace qrm
