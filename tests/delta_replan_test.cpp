// Differential suite for incremental (delta) replanning.
//
// The contract under test is absolute: DeltaReplanner::plan must be
// bit-identical to QrmPlanner::plan on every call, for every reuse path it
// can take — whole-plan reuse on an empty diff, partial kernel reuse on a
// quadrant-local diff, and every scratch fallback. The suite drives plan
// sequences with randomized site mutations between rounds (the loop's
// loss shape, but adversarially dense) across seeds, grid sizes and plan
// modes, and pins the loop/batch/scenario plumbing: a Delta loop's report
// equals the Scratch loop's field for field, batch fingerprints are
// unchanged, and the spec key round-trips without disturbing default
// serializations.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "batch/batch_planner.hpp"
#include "exec/plan_cache.hpp"
#include "core/delta_planner.hpp"
#include "core/planner.hpp"
#include "lattice/quadrant.hpp"
#include "lattice/region.hpp"
#include "loading/loader.hpp"
#include "runtime/rearrangement_loop.hpp"
#include "scenario/spec.hpp"
#include "testutil.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace qrm {
namespace {

QrmConfig delta_config(std::int32_t size, std::int32_t target,
                       PlanMode mode = PlanMode::Balanced) {
  QrmConfig config;
  config.target = centered_square(size, target);
  config.mode = mode;
  return config;
}

/// Flip `count` random sites anywhere in the grid (the adversarial loss
/// shape: both disappearances and appearances, unlike real loss).
void flip_random_sites(OccupancyGrid& grid, std::size_t count, Rng& rng) {
  for (std::size_t i = 0; i < count; ++i) {
    const Coord site{static_cast<std::int32_t>(rng.uniform_below(
                         static_cast<std::uint32_t>(grid.height()))),
                     static_cast<std::int32_t>(rng.uniform_below(
                         static_cast<std::uint32_t>(grid.width())))};
    grid.set(site, !grid.occupied(site));
  }
}

/// Flip `count` distinct-ish sites inside one quadrant only.
void flip_in_quadrant(OccupancyGrid& grid, Quadrant quadrant, std::size_t count, Rng& rng) {
  const QuadrantGeometry geometry(grid.height(), grid.width());
  std::size_t flipped = 0;
  while (flipped < count) {
    const Coord site{static_cast<std::int32_t>(rng.uniform_below(
                         static_cast<std::uint32_t>(grid.height()))),
                     static_cast<std::int32_t>(rng.uniform_below(
                         static_cast<std::uint32_t>(grid.width())))};
    if (geometry.quadrant_of(site) != quadrant) continue;
    grid.set(site, !grid.occupied(site));
    ++flipped;
  }
}

/// Every stats counter must reconcile: each plan() call is exactly one of
/// scratch / whole-plan reuse / delta drive.
void expect_stats_consistent(const DeltaReplanStats& stats) {
  EXPECT_EQ(stats.scratch_plans + stats.whole_plan_reuses + stats.delta_plans, stats.plans);
}

TEST(DeltaReplan, FirstPlanIsScratchAndMatchesThePlanner) {
  const QrmConfig config = delta_config(16, 8);
  const OccupancyGrid grid = testutil::seeded_grid(16, 16, 0.6, 11);
  DeltaReplanner replanner(config);
  const PlanResult delta = replanner.plan(grid);
  EXPECT_EQ(delta, QrmPlanner(config).plan(grid));
  EXPECT_EQ(replanner.stats().plans, 1u);
  EXPECT_EQ(replanner.stats().scratch_plans, 1u);
  EXPECT_EQ(replanner.stats().kernels_reused, 0u);
  testutil::expect_plan_valid(grid, delta);
}

TEST(DeltaReplan, EmptyDiffReturnsThePreviousResultVerbatim) {
  const QrmConfig config = delta_config(16, 8);
  const OccupancyGrid grid = testutil::seeded_grid(16, 16, 0.6, 13);
  DeltaReplanner replanner(config);
  const PlanResult first = replanner.plan(grid);
  const PlanResult again = replanner.plan(grid);
  EXPECT_EQ(again, first);
  EXPECT_EQ(replanner.stats().plans, 2u);
  EXPECT_EQ(replanner.stats().whole_plan_reuses, 1u);
  EXPECT_EQ(replanner.stats().dirty_sites, 0u);
  expect_stats_consistent(replanner.stats());
}

TEST(DeltaReplan, SingleQuadrantMutationReusesCleanKernels) {
  const QrmConfig config = delta_config(24, 12);
  OccupancyGrid grid = testutil::seeded_grid(24, 24, 0.62, 17);
  DeltaReplanner replanner(config);
  (void)replanner.plan(grid);

  Rng rng(99);
  flip_in_quadrant(grid, Quadrant::NW, 2, rng);
  const PlanResult delta = replanner.plan(grid);
  EXPECT_EQ(delta, QrmPlanner(config).plan(grid)) << "delta plan diverged from scratch";

  const DeltaReplanStats& stats = replanner.stats();
  EXPECT_EQ(stats.delta_plans, 1u);
  EXPECT_GT(stats.kernels_reused, 0u) << "three clean quadrants must serve from cache";
  EXPECT_GT(stats.kernels_computed, 0u) << "the dirty quadrant must recompute";
  EXPECT_EQ(stats.dirty_sites, 2u);
  expect_stats_consistent(stats);
}

TEST(DeltaReplan, SequencesMatchScratchAcrossSeedsGridsAndModes) {
  // The core differential: multi-plan sequences with randomized mutations
  // between plans, swept over grid sizes x plan modes x seeds x paranoia.
  // Every single plan must equal the from-scratch planner's.
  for (const std::int32_t size : {16, 24}) {
    for (const PlanMode mode : {PlanMode::Balanced, PlanMode::Compact}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        for (const bool paranoid : {false, true}) {
          SCOPED_TRACE("size=" + std::to_string(size) + " mode=" + std::string(to_cstring(mode)) +
                       " seed=" + std::to_string(seed) + " paranoid=" + std::to_string(paranoid));
          const QrmConfig config = delta_config(size, size / 2, mode);
          const QrmPlanner scratch(config);
          DeltaReplanner replanner(config, {.max_dirty_sites = 0, .paranoid = paranoid});
          OccupancyGrid grid = testutil::seeded_grid(size, size, 0.6, seed);
          Rng rng(seed * 1009 + static_cast<std::uint64_t>(size));
          for (int round = 0; round < 6; ++round) {
            const PlanResult delta = replanner.plan(grid);
            ASSERT_EQ(delta, scratch.plan(grid)) << "round " << round;
            // 1-4 flips: small enough that later rounds exercise the
            // partial-reuse path, not just the scratch fallback.
            flip_random_sites(grid, 1 + rng.uniform_below(4), rng);
          }
          expect_stats_consistent(replanner.stats());
          EXPECT_GT(replanner.stats().plans, replanner.stats().scratch_plans)
              << "the sweep never left the scratch path; reuse is untested";
        }
      }
    }
  }
}

TEST(DeltaReplan, AllQuadrantsDirtyFallsBackToScratch) {
  const QrmConfig config = delta_config(16, 8);
  OccupancyGrid grid = testutil::seeded_grid(16, 16, 0.6, 23);
  DeltaReplanner replanner(config);
  (void)replanner.plan(grid);

  Rng rng(7);
  for (const Quadrant quadrant :
       {Quadrant::NW, Quadrant::NE, Quadrant::SW, Quadrant::SE})
    flip_in_quadrant(grid, quadrant, 1, rng);
  EXPECT_EQ(replanner.plan(grid), QrmPlanner(config).plan(grid));
  EXPECT_EQ(replanner.stats().scratch_plans, 2u);
  EXPECT_EQ(replanner.stats().delta_plans, 0u);
  expect_stats_consistent(replanner.stats());
}

TEST(DeltaReplan, OversizedDiffFallsBackToScratch) {
  const QrmConfig config = delta_config(16, 8);
  OccupancyGrid grid = testutil::seeded_grid(16, 16, 0.6, 29);
  DeltaReplanner replanner(config, {.max_dirty_sites = 2, .paranoid = false});
  (void)replanner.plan(grid);

  Rng rng(31);
  flip_in_quadrant(grid, Quadrant::SE, 3, rng);  // 3 > max_dirty_sites
  EXPECT_EQ(replanner.plan(grid), QrmPlanner(config).plan(grid));
  EXPECT_EQ(replanner.stats().scratch_plans, 2u);
  EXPECT_EQ(replanner.stats().delta_plans, 0u);

  // The same mutation size under the default limit takes the delta path.
  DeltaReplanner roomy(config);
  OccupancyGrid grid2 = testutil::seeded_grid(16, 16, 0.6, 29);
  (void)roomy.plan(grid2);
  Rng rng2(31);
  flip_in_quadrant(grid2, Quadrant::SE, 3, rng2);
  EXPECT_EQ(roomy.plan(grid2), QrmPlanner(config).plan(grid2));
  EXPECT_EQ(roomy.stats().delta_plans, 1u);
}

TEST(DeltaReplan, ResetForgetsThePreviousPlan) {
  const QrmConfig config = delta_config(16, 8);
  const OccupancyGrid grid = testutil::seeded_grid(16, 16, 0.6, 37);
  DeltaReplanner replanner(config);
  (void)replanner.plan(grid);
  replanner.reset();
  EXPECT_EQ(replanner.plan(grid), QrmPlanner(config).plan(grid));
  EXPECT_EQ(replanner.stats().scratch_plans, 2u);
  EXPECT_EQ(replanner.stats().whole_plan_reuses, 0u);
}

TEST(DeltaReplan, LoopDeltaReportMatchesScratchFieldForField) {
  // The loop-level pin: run_rearrangement_loop under Delta must reproduce
  // the Scratch run exactly — rounds, per-round accounting, schedules,
  // final grid, success — across several seeds and loss settings.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const OccupancyGrid initial = testutil::seeded_grid(24, 24, 0.65, seed);
    rt::LoopConfig config;
    config.plan.target = centered_square(24, 14);
    config.loss.per_move_loss = 0.03;
    config.loss.background_loss = 0.005;
    config.exec.keep_schedules = true;

    config.exec.replan = ReplanMode::Scratch;
    const rt::LoopReport scratch = rt::run_rearrangement_loop(initial, config);
    config.exec.replan = ReplanMode::Delta;
    const rt::LoopReport delta = rt::run_rearrangement_loop(initial, config);

    EXPECT_EQ(delta.success, scratch.success);
    EXPECT_EQ(delta.total_atoms_lost, scratch.total_atoms_lost);
    EXPECT_EQ(delta.final_grid, scratch.final_grid);
    EXPECT_EQ(delta.schedules, scratch.schedules);
    ASSERT_EQ(delta.rounds_used(), scratch.rounds_used());
    for (std::size_t i = 0; i < delta.rounds.size(); ++i) {
      SCOPED_TRACE("round " + std::to_string(i));
      EXPECT_EQ(delta.rounds[i].atoms_before, scratch.rounds[i].atoms_before);
      EXPECT_EQ(delta.rounds[i].defects_before, scratch.rounds[i].defects_before);
      EXPECT_EQ(delta.rounds[i].commands, scratch.rounds[i].commands);
      EXPECT_EQ(delta.rounds[i].atoms_lost, scratch.rounds[i].atoms_lost);
      EXPECT_EQ(delta.rounds[i].filled_after, scratch.rounds[i].filled_after);
    }

    // Accounting: the Scratch run never touches a DeltaReplanner; the
    // Delta run plans once per planning round and every plan reconciles.
    EXPECT_EQ(scratch.replan, DeltaReplanStats{});
    EXPECT_GT(delta.replan.plans, 0u);
    expect_stats_consistent(delta.replan);
  }
}

TEST(DeltaReplan, LoopWithQuadrantLocalDamageReusesKernels) {
  // The delta sweet spot, constructed deterministically: the target is
  // full except for defects in the NW quadrant, the only spare atoms sit
  // in NW too, and transport loss is certain — so every round's activity
  // (and therefore every round-over-round diff) stays inside NW while the
  // loop burns through the spares. Rounds 2+ must take the partial-reuse
  // path with three clean quadrants, and the plans still reconcile with
  // scratch (the field-for-field test above pins that; here we pin that
  // the loop actually reuses rather than silently falling back).
  const Region target = centered_square(24, 12);
  OccupancyGrid initial(24, 24);
  for (std::int32_t r = 0; r < target.rows; ++r)
    for (std::int32_t c = 0; c < target.cols; ++c)
      initial.set({target.row0 + r, target.col0 + c});
  initial.clear({target.row0, target.col0});  // one defect, NW of the target
  for (const Coord spare : {Coord{1, 1}, Coord{2, 3}, Coord{4, 2}, Coord{0, 4}, Coord{3, 5},
                            Coord{5, 1}, Coord{2, 0}, Coord{5, 5}})
    initial.set(spare);  // repair stock, NW outside the target

  rt::LoopConfig config;
  config.plan.target = target;
  config.loss.per_move_loss = 0.5;  // repairs mostly die; the loop retries
  config.loss.background_loss = 0.0;
  // Pinned loss stream (found by scan) whose first round both fails to fill
  // and leaves >= target-area atoms, so the loop keeps replanning a grid
  // that only ever changes inside NW.
  config.loss.seed = 59;
  config.exec.replan = ReplanMode::Delta;
  config.max_rounds = 8;
  const rt::LoopReport report = rt::run_rearrangement_loop(initial, config);

  expect_stats_consistent(report.replan);
  EXPECT_GT(report.replan.plans, 1u) << "the scenario must replan at least once";
  EXPECT_GT(report.replan.delta_plans, 0u)
      << "NW-local damage never took the partial-reuse path; the loop wiring is dead";
  EXPECT_GT(report.replan.kernels_reused, 0u);
  EXPECT_GT(report.replan.whole_plan_reuses, 0u)
      << "stalled rounds (every repair killed or blocked) must reuse the whole plan";

  // And the delta run is still the scratch run, field for field.
  config.exec.replan = ReplanMode::Scratch;
  const rt::LoopReport scratch = rt::run_rearrangement_loop(initial, config);
  EXPECT_EQ(report.success, scratch.success);
  EXPECT_EQ(report.total_atoms_lost, scratch.total_atoms_lost);
  EXPECT_EQ(report.final_grid, scratch.final_grid);
  EXPECT_EQ(report.rounds_used(), scratch.rounds_used());
}

/// Field-for-field report comparison shared by the hostile-interaction pins
/// below: rounds, per-round accounting, schedules, final grid, success.
void expect_loop_reports_equal(const rt::LoopReport& delta, const rt::LoopReport& scratch) {
  EXPECT_EQ(delta.success, scratch.success);
  EXPECT_EQ(delta.total_atoms_lost, scratch.total_atoms_lost);
  EXPECT_EQ(delta.final_grid, scratch.final_grid);
  EXPECT_EQ(delta.schedules, scratch.schedules);
  ASSERT_EQ(delta.rounds_used(), scratch.rounds_used());
  for (std::size_t i = 0; i < delta.rounds.size(); ++i) {
    SCOPED_TRACE("round " + std::to_string(i));
    EXPECT_EQ(delta.rounds[i].atoms_before, scratch.rounds[i].atoms_before);
    EXPECT_EQ(delta.rounds[i].defects_before, scratch.rounds[i].defects_before);
    EXPECT_EQ(delta.rounds[i].commands, scratch.rounds[i].commands);
    EXPECT_EQ(delta.rounds[i].atoms_lost, scratch.rounds[i].atoms_lost);
    EXPECT_EQ(delta.rounds[i].filled_after, scratch.rounds[i].filled_after);
  }
}

rt::LoopReport run_both_modes_and_compare(const OccupancyGrid& initial, rt::LoopConfig config) {
  config.exec.keep_schedules = true;
  config.exec.replan = ReplanMode::Scratch;
  const rt::LoopReport scratch = rt::run_rearrangement_loop(initial, config);
  config.exec.replan = ReplanMode::Delta;
  const rt::LoopReport delta = rt::run_rearrangement_loop(initial, config);
  expect_loop_reports_equal(delta, scratch);
  expect_stats_consistent(delta.replan);
  return delta;
}

TEST(DeltaReplan, NotEnoughAtomsEarlyExitMatchesScratchFieldForField) {
  // The interaction pin: when heavy background loss drains the array below
  // the target area mid-loop, the not-enough-atoms early exit must fire on
  // the identical round under Delta — a replanner holding stale kernels
  // across the break would diverge here, not in the happy path.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const OccupancyGrid initial = testutil::seeded_grid(24, 24, 0.45, seed);
    rt::LoopConfig config;
    config.plan.target = centered_square(24, 14);  // 196 of ~260 atoms: tight
    config.loss.per_move_loss = 0.05;
    config.loss.background_loss = 0.15;  // drains below 196 within a round or two
    config.loss.seed = seed;
    const rt::LoopReport delta = run_both_modes_and_compare(initial, config);
    EXPECT_FALSE(delta.success);
    EXPECT_LT(delta.rounds_used(), std::size_t{10})
        << "the scenario must actually hit the early exit, not the round budget";
  }

  // Degenerate form: usable atoms below the target area from the start.
  const OccupancyGrid sparse = testutil::seeded_grid(24, 24, 0.2, 9);
  rt::LoopConfig config;
  config.plan.target = centered_square(24, 14);
  const rt::LoopReport delta = run_both_modes_and_compare(sparse, config);
  EXPECT_EQ(delta.rounds_used(), std::size_t{1});
}

TEST(DeltaReplan, DeadChannelMasksMatchScratchFieldForField) {
  // Dead AOD lines under Delta: both planners mask the grid at plan()
  // entry, so the diff the replanner sees is a diff of *masked* grids and
  // delta stays bit-equal to scratch. Atoms frozen on dead lines must also
  // survive untouched in both modes.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const OccupancyGrid initial = testutil::seeded_grid(24, 24, 0.65, seed);
    rt::LoopConfig config;
    config.plan.target = centered_square(24, 12);  // rows/cols 6..18
    config.plan.dead_channels = DeadChannelMask{{2, 21}, {1}};
    config.loss.per_move_loss = 0.03;
    config.loss.background_loss = 0.0;  // frozen atoms must persist exactly
    config.loss.seed = seed;
    const rt::LoopReport delta = run_both_modes_and_compare(initial, config);
    for (std::int32_t c = 0; c < 24; ++c) {
      EXPECT_EQ(delta.final_grid.occupied({2, c}), initial.occupied({2, c}))
          << "dead row 2 changed at col " << c;
      EXPECT_EQ(delta.final_grid.occupied({21, c}), initial.occupied({21, c}))
          << "dead row 21 changed at col " << c;
    }
    for (std::int32_t r = 0; r < 24; ++r)
      EXPECT_EQ(delta.final_grid.occupied({r, 1}), initial.occupied({r, 1}))
          << "dead col 1 changed at row " << r;
  }
}

TEST(DeltaReplan, DeadMaskNotEnoughUsableAtomsExitsIdenticallyEarly) {
  // Enough atoms in total, but too few *usable* ones once the dead-line
  // freeze is subtracted: the early exit must count masked atoms, and fire
  // on round 1 in both modes.
  OccupancyGrid initial(16, 16);
  const Region target = centered_square(16, 8);  // 64 sites, rows/cols 4..12
  // 40 usable atoms in the target's top rows + 30 frozen on dead row 0.
  std::int32_t placed = 0;
  for (std::int32_t r = target.row0; r < target.row_end() && placed < 40; ++r)
    for (std::int32_t c = target.col0; c < target.col_end() && placed < 40; ++c, ++placed)
      initial.set({r, c});
  for (std::int32_t c = 0; c < 15; ++c) initial.set({0, c});
  for (std::int32_t c = 0; c < 15; ++c) initial.set({1, c});
  ASSERT_GE(initial.atom_count(), target.area());  // unmasked count would proceed

  rt::LoopConfig config;
  config.plan.target = target;
  config.plan.dead_channels = DeadChannelMask{{0, 1}, {}};
  const rt::LoopReport delta = run_both_modes_and_compare(initial, config);
  EXPECT_FALSE(delta.success);
  EXPECT_EQ(delta.rounds_used(), std::size_t{1})
      << "the usable-atom count must subtract dead-line atoms before round 2";
}

TEST(DeltaReplan, BurstLossMatchesScratchFieldForField) {
  // Correlated bursts draw from the loop's derived loss stream after the
  // move/background draws; the stream position is identical under Delta, so
  // every burst lands on the same atoms.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const OccupancyGrid initial = testutil::seeded_grid(24, 24, 0.65, seed);
    rt::LoopConfig config;
    config.plan.target = centered_square(24, 12);
    config.loss.per_move_loss = 0.02;
    config.loss.burst_loss = 0.5;
    config.loss.burst_length = 5;
    config.loss.seed = seed * 7;
    (void)run_both_modes_and_compare(initial, config);
  }
}

TEST(DeltaReplan, BatchFingerprintUnchangedUnderDelta) {
  // Batch plumbing: the per-shot loops run with DeltaReplanner plan
  // functions, and every outcome field — hence the report fingerprint —
  // must equal the Scratch batch, with and without the plan cache.
  batch::BatchConfig config;
  config.plan.target = centered_region(16, 16, 8, 8);
  config.grid_height = 16;
  config.grid_width = 16;
  config.fill = 0.62;
  config.shots = 6;
  config.exec.workers = 2;
  config.max_rounds = 6;
  config.loss.per_move_loss = 0.03;

  config.exec.replan = ReplanMode::Scratch;
  const std::uint64_t scratch = batch::BatchPlanner(config).run().fingerprint();
  config.exec.replan = ReplanMode::Delta;
  EXPECT_EQ(batch::BatchPlanner(config).run().fingerprint(), scratch);

  config.exec.plan_cache = std::make_shared<exec::PlanCache>();
  EXPECT_EQ(batch::BatchPlanner(config).run().fingerprint(), scratch)
      << "delta + plan cache drifted the batch fingerprint";
}

TEST(DeltaReplan, SpecSerializationOmitsScratchAndRoundTripsDelta) {
  // Scratch is the default and must NOT serialize — emitting it would
  // drift every pinned spec fingerprint. Delta must round-trip.
  scenario::ScenarioSpec spec;
  spec.name = "delta-roundtrip";
  EXPECT_EQ(serialize(spec).find("replan="), std::string::npos);

  spec.replan = ReplanMode::Delta;
  const std::string text = serialize(spec);
  EXPECT_NE(text.find("replan=delta"), std::string::npos);
  const scenario::ScenarioSpec parsed = scenario::parse_scenario(text);
  EXPECT_EQ(parsed.replan, ReplanMode::Delta);
  EXPECT_EQ(serialize(parsed), text);

  EXPECT_EQ(scenario::parse_scenario("name=x\nreplan=scratch\n").replan, ReplanMode::Scratch);
  EXPECT_THROW((void)scenario::parse_scenario("name=x\nreplan=sometimes\n"), PreconditionError);
}

}  // namespace
}  // namespace qrm
