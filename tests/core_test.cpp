// Tests for the QRM planner: fill guarantees, physical legality of emitted
// schedules, quadrant-merge semantics, and agreement with the typical
// (non-quadrant) reference procedure.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <tuple>
#include <vector>

#include "util/assert.hpp"
#include "core/cpu_reference.hpp"
#include "core/pass_driver.hpp"
#include "core/planner.hpp"
#include "core/quadrant_plan.hpp"
#include "core/typical.hpp"
#include "lattice/quadrant.hpp"
#include "loading/loader.hpp"
#include "testutil.hpp"
#include "util/rng.hpp"

namespace qrm {
namespace {

/// Executes `result.schedule` on `initial` with full validation (including
/// the AOD cross-product rule) and checks it reproduces result.final_grid.
using testutil::expect_plan_valid;

TEST(QrmPlanner, FillsPaperHeadlineConfiguration) {
  // The paper's headline experiment: 30x30 defect-free array from a 50x50
  // stochastically loaded lattice.
  const OccupancyGrid initial = load_random(50, 50, {0.55, 42});
  const PlanResult result = plan_qrm(initial, 30);
  EXPECT_TRUE(result.stats.target_filled)
      << "defects: " << result.stats.defects_remaining;
  expect_plan_valid(initial, result);
}

TEST(QrmPlanner, BalancedFillsAtExactly50PercentTypicalSeeds) {
  int filled = 0;
  constexpr int kSeeds = 10;
  for (int seed = 0; seed < kSeeds; ++seed) {
    const OccupancyGrid initial =
        load_random(50, 50, {0.5, static_cast<std::uint64_t>(seed) + 1});
    const PlanResult result = plan_qrm(initial, 30);
    expect_plan_valid(initial, result);
    if (result.stats.target_filled) ++filled;
  }
  // At exactly 50% fill each quadrant holds ~312 atoms for a 225-site
  // quarter; the balance demand is almost always satisfiable.
  EXPECT_GE(filled, 8) << "balanced mode should fill in the vast majority of loads";
}

TEST(QrmPlanner, ReportsInfeasibleWhenAtomsShort) {
  // 20% fill cannot populate a 30x30 target from 50x50 (needs 36% minimum).
  const OccupancyGrid initial = load_random(50, 50, {0.2, 7});
  const PlanResult result = plan_qrm(initial, 30);
  EXPECT_FALSE(result.stats.target_filled);
  EXPECT_FALSE(result.stats.feasible);
  EXPECT_GT(result.stats.defects_remaining, 0);
  expect_plan_valid(initial, result);  // partial schedule still legal
}

TEST(QrmPlanner, CompactModeMatchesTypicalReference) {
  // QRM's compact mode is the quadrant-parallel formulation of the typical
  // centre-out procedure; both must converge to the same occupancy.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const OccupancyGrid initial = load_random(20, 20, {0.5, seed});
    const PlanResult qrm_result = plan_qrm(initial, 8, PlanMode::Compact);
    TypicalConfig typical_config;
    typical_config.target = centered_square(20, 8);
    const PlanResult typical_result = plan_typical(initial, typical_config);
    EXPECT_EQ(qrm_result.final_grid, typical_result.final_grid) << "seed " << seed;
    expect_plan_valid(initial, qrm_result);
    expect_plan_valid(initial, typical_result);
  }
}

TEST(QrmPlanner, CompactModeFillsSmallTargetsAtHighFill) {
  const OccupancyGrid initial = load_random(40, 40, {0.7, 11});
  const PlanResult result = plan_qrm(initial, 12, PlanMode::Compact);
  EXPECT_TRUE(result.stats.target_filled);
  expect_plan_valid(initial, result);
}

TEST(QrmPlanner, MergeHalvesCommandCountButNotSemantics) {
  const OccupancyGrid initial = load_random(30, 30, {0.55, 99});

  QrmConfig merged_config;
  merged_config.target = centered_square(30, 16);
  merged_config.merge_quadrants = true;
  const PlanResult merged = QrmPlanner(merged_config).plan(initial);

  QrmConfig unmerged_config = merged_config;
  unmerged_config.merge_quadrants = false;
  const PlanResult unmerged = QrmPlanner(unmerged_config).plan(initial);

  EXPECT_EQ(merged.final_grid, unmerged.final_grid);
  EXPECT_LT(merged.schedule.size(), unmerged.schedule.size())
      << "cross-quadrant merge must reduce the number of commands";
  expect_plan_valid(initial, merged);
  expect_plan_valid(initial, unmerged);
}

TEST(QrmPlanner, SenGateBlocksFarAtoms) {
  // With a tight sen gate the planner may not fill the target, but no atom
  // beyond the gate (in the local frame) may move.
  const OccupancyGrid initial = load_random(20, 20, {0.5, 5});
  QrmConfig config;
  config.target = centered_square(20, 8);
  config.sen_limit = 6;  // only the 6 centre-most local positions may shift
  const PlanResult result = QrmPlanner(config).plan(initial);
  expect_plan_valid(initial, result);
  // The gate is per scan axis: an atom may shift horizontally only when its
  // local column is below the gate and vertically only when its local row
  // is. Cells with BOTH local coordinates at or beyond the gate can
  // therefore neither be vacated nor filled.
  const QuadrantGeometry geom(20, 20);
  for (std::int32_t r = 0; r < 20; ++r) {
    for (std::int32_t c = 0; c < 20; ++c) {
      const Quadrant q = geom.quadrant_of({r, c});
      const Coord local = geom.to_local(q, {r, c});
      if (local.row >= config.sen_limit && local.col >= config.sen_limit) {
        EXPECT_EQ(result.final_grid.occupied({r, c}), initial.occupied({r, c}))
            << "gated cell changed at (" << r << "," << c << ")";
      }
    }
  }
}

TEST(QrmPlanner, RejectsASenGateInsideTheTargetQuarter) {
  // A balanced plan could send a donor onto a column where a gated atom
  // sits, which the realizer rejects mid-plan, so the planner refuses the
  // gate up front. Compact mode takes any gate.
  for (const std::int32_t size : {12, 20, 50}) {
    for (const std::int32_t target : {4, size / 2 / 2 * 2, size * 3 / 5 / 2 * 2}) {
      QrmConfig config;
      config.target = centered_square(size, target);
      for (std::int32_t gate = 0; gate < target / 2; ++gate) {
        config.sen_limit = gate;
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
          const OccupancyGrid initial = load_random(size, size, {0.5, seed});
          config.mode = PlanMode::Balanced;
          EXPECT_THROW((void)QrmPlanner(config).plan(initial), PreconditionError)
              << size << "^2, target " << target << ", gate " << gate << ", seed " << seed;
          config.mode = PlanMode::Compact;
          expect_plan_valid(initial, QrmPlanner(config).plan(initial));
        }
      }
    }
  }
}

TEST(QrmPlanner, BalancesWithTheSenGateAtTheTargetQuarter) {
  const OccupancyGrid initial = load_random(20, 20, {0.6, 3});
  QrmConfig config;
  config.target = centered_square(20, 8);
  config.sen_limit = 4;  // exactly the quarter: every target column is below it
  const PlanResult result = QrmPlanner(config).plan(initial);
  expect_plan_valid(initial, result);
  EXPECT_EQ(result.final_grid.atom_count(), initial.atom_count());
}

TEST(QrmPlanner, RejectsOddGridsAndUncentredTargets) {
  QrmConfig config;
  config.target = centered_square(20, 8);
  const QrmPlanner planner(config);
  EXPECT_THROW((void)planner.plan(OccupancyGrid(19, 20)), PreconditionError);
  EXPECT_THROW((void)planner.plan(OccupancyGrid(20, 19)), PreconditionError);

  QrmConfig off_centre = config;
  off_centre.target.row0 += 1;
  EXPECT_THROW((void)QrmPlanner(off_centre).plan(OccupancyGrid(20, 20)), PreconditionError);

  QrmConfig odd_target = config;
  odd_target.target = Region{6, 6, 7, 7};
  EXPECT_THROW((void)QrmPlanner(odd_target).plan(OccupancyGrid(20, 20)), PreconditionError);
}

TEST(QrmPlanner, RejectsDeadChannelsWithoutAodLegalization) {
  // Dead-channel hops run only on the AOD partition, so dead channels with
  // aod_legalize off are refused, by the planner and by the realizer alike;
  // either setting alone plans.
  QrmConfig config;
  config.target = centered_square(20, 8);
  config.dead_channels = DeadChannelMask{{1}, {18}};
  config.aod_legalize = false;
  const OccupancyGrid initial = load_random(20, 20, {0.6, 5});
  EXPECT_THROW((void)QrmPlanner(config).plan(initial), PreconditionError);
  config.aod_legalize = true;
  EXPECT_NO_THROW((void)QrmPlanner(config).plan(initial));
  config.aod_legalize = false;
  config.dead_channels = {};
  EXPECT_NO_THROW((void)QrmPlanner(config).plan(initial));

  OccupancyGrid line(1, 6);
  line.set({0, 4});
  const LineAssignment hop{0, {4}, {0}};
  const DeadChannelMask dead_col{{}, {2}};
  Schedule schedule;
  EXPECT_THROW((void)realize_assignments(line, Axis::Rows, {&hop, 1}, schedule,
                                         {.aod_legalize = false, .dead = &dead_col}),
               PreconditionError);
}

TEST(QrmPlanner, RectangularGridsAndTargets) {
  // Quadrant geometry and both planner modes support rectangular (even)
  // grids with rectangular centred targets.
  const OccupancyGrid initial = load_random(20, 32, {0.6, 31});
  QrmConfig config;
  config.target = centered_region(20, 32, 12, 18);
  const PlanResult result = QrmPlanner(config).plan(initial);
  EXPECT_TRUE(result.stats.target_filled) << "defects " << result.stats.defects_remaining;
  expect_plan_valid(initial, result);

  QrmConfig compact = config;
  compact.mode = PlanMode::Compact;
  const PlanResult compact_result = QrmPlanner(compact).plan(initial);
  expect_plan_valid(initial, compact_result);
}

TEST(QrmPlanner, EmptyGridProducesEmptySchedule) {
  const OccupancyGrid initial(20, 20);
  const PlanResult result = plan_qrm(initial, 8);
  EXPECT_TRUE(result.schedule.empty());
  EXPECT_FALSE(result.stats.target_filled);
  EXPECT_FALSE(result.stats.feasible);
}

TEST(QrmPlanner, FullGridNeedsNoMoves) {
  const OccupancyGrid initial = load_pattern(20, 20, Pattern::Full);
  const PlanResult result = plan_qrm(initial, 10);
  EXPECT_TRUE(result.stats.target_filled);
  EXPECT_TRUE(result.schedule.empty()) << result.schedule.size() << " moves";
}

TEST(QrmPlanner, ChequerboardIsBalanceable) {
  // Exactly 50% fill arranged adversarially: every row of every quadrant has
  // the same atom count, so compact mode's Young diagram is rectangular and
  // the balance pass has no slack. Still must fill a half-size target.
  const OccupancyGrid initial = load_pattern(40, 40, Pattern::Checkerboard);
  const PlanResult result = plan_qrm(initial, 20);
  EXPECT_TRUE(result.stats.target_filled);
  expect_plan_valid(initial, result);
}

TEST(QrmPlanner, RowStripesNeedVerticalRedistribution) {
  // Odd rows are empty; only vertical moves can populate them.
  const OccupancyGrid initial = load_pattern(24, 24, Pattern::RowStripes);
  const PlanResult result = plan_qrm(initial, 12);
  EXPECT_TRUE(result.stats.target_filled);
  expect_plan_valid(initial, result);
}

TEST(QrmPlanner, PassInfoAccountsForEveryMovedAtom) {
  const OccupancyGrid initial = load_random(30, 30, {0.5, 3});
  const PlanResult result = plan_qrm(initial, 14);
  std::size_t pass_atoms = 0;
  for (const auto& p : result.stats.passes) pass_atoms += p.atoms_moved;
  EXPECT_GT(pass_atoms, 0u);
  // Every unit round corresponds to at least one schedule entry (possibly
  // split by AOD legalisation into several).
  std::size_t rounds = 0;
  for (const auto& p : result.stats.passes) rounds += p.unit_rounds;
  EXPECT_GE(result.schedule.size(), rounds);
}

TEST(QrmPlanner, PhaseTimersAreMeasurementNotIdentity) {
  // PlanStats::timers must populate (the bench's phase breakdown depends on
  // it) while staying outside plan identity: two runs with different timer
  // values still compare equal.
  const OccupancyGrid grid = testutil::seeded_grid(64, 64, 0.55, 3);
  QrmConfig config;
  config.target = centered_square(64, 38);
  const PlanResult a = QrmPlanner(config).plan(grid);
  EXPECT_GT(a.stats.timers.pass_compute_us + a.stats.timers.merge_us + a.stats.timers.realize_us,
            0.0);
  PlanResult b = a;
  b.stats.timers.pass_compute_us += 1e6;
  b.stats.timers.merge_us += 1e6;
  b.stats.timers.realize_us += 1e6;
  EXPECT_EQ(b, a);
}

TEST(PassDriver, TakeResultHandsThePlanOutOnce) {
  const OccupancyGrid initial = load_random(30, 30, {0.6, 9});
  QrmConfig config;
  config.target = centered_square(30, 16);
  PassDriver driver(initial, config);
  while (auto pass = driver.next()) driver.apply(*pass);
  const PlanResult result = driver.take_result();
  EXPECT_EQ(result, QrmPlanner(config).plan(initial));
  expect_plan_valid(initial, result);
  // The plan was moved out: the driver is finished and cannot hand it out
  // again.
  EXPECT_FALSE(driver.next().has_value());
  EXPECT_THROW((void)driver.take_result(), PreconditionError);
}

// ---------------------------------------------------------------------------
// Property sweep: balanced QRM must produce a legal schedule for every
// (size, fill, seed) combination, and must fill whenever its own demand
// computation reported feasibility.
// ---------------------------------------------------------------------------

using SweepParam = std::tuple<std::int32_t /*size*/, double /*fill*/, std::uint64_t /*seed*/>;

class QrmSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(QrmSweep, LegalAndFillsWhenFeasible) {
  const auto [size, fill, seed] = GetParam();
  const OccupancyGrid initial = load_random(size, size, {fill, seed});
  const std::int32_t target_size = size * 3 / 5 / 2 * 2;  // ~0.6*size, even
  if (target_size < 2) GTEST_SKIP();
  const PlanResult result = plan_qrm(initial, target_size);
  expect_plan_valid(initial, result);
  if (result.stats.feasible) {
    EXPECT_TRUE(result.stats.target_filled)
        << "size=" << size << " fill=" << fill << " seed=" << seed
        << " defects=" << result.stats.defects_remaining;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesFillsSeeds, QrmSweep,
    ::testing::Combine(::testing::Values<std::int32_t>(8, 10, 16, 20, 30, 50),
                       ::testing::Values(0.5, 0.6, 0.75),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

// Compact-mode sweep: always legal; agrees with typical reference.
class CompactSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CompactSweep, LegalAndMatchesTypical) {
  const auto [size, fill, seed] = GetParam();
  const OccupancyGrid initial = load_random(size, size, {fill, seed});
  const std::int32_t target_size = size / 2 / 2 * 2;
  if (target_size < 2) GTEST_SKIP();
  const PlanResult qrm_result = plan_qrm(initial, target_size, PlanMode::Compact);
  expect_plan_valid(initial, qrm_result);
  TypicalConfig typical_config;
  typical_config.target = centered_square(size, target_size);
  const PlanResult typical_result = plan_typical(initial, typical_config);
  EXPECT_EQ(qrm_result.final_grid, typical_result.final_grid);
}

INSTANTIATE_TEST_SUITE_P(
    SizesFillsSeeds, CompactSweep,
    ::testing::Combine(::testing::Values<std::int32_t>(8, 12, 20, 34),
                       ::testing::Values(0.4, 0.55, 0.7),
                       ::testing::Values<std::uint64_t>(9, 10)));

// ---------------------------------------------------------------------------
// CPU reference (the paper's software baseline): must agree with the full
// planner on the final occupancy while skipping schedule materialisation.
// ---------------------------------------------------------------------------

TEST(CpuReference, MatchesPlannerFinalGridBothModes) {
  for (const PlanMode mode : {PlanMode::Balanced, PlanMode::Compact}) {
    for (const std::uint64_t seed : {1ULL, 5ULL, 9ULL}) {
      const OccupancyGrid initial = load_random(30, 30, {0.55, seed});
      QrmConfig config;
      config.target = centered_square(30, 18);
      config.mode = mode;
      const CpuReferenceResult reference = run_cpu_reference(initial, config);
      const PlanResult plan = QrmPlanner(config).plan(initial);
      EXPECT_EQ(reference.final_grid, plan.final_grid)
          << to_cstring(mode) << " seed " << seed;
      EXPECT_EQ(reference.target_filled, plan.stats.target_filled);
      EXPECT_EQ(reference.feasible, plan.stats.feasible);
    }
  }
}

TEST(CpuReference, RecordsMatchMovedAtoms) {
  const OccupancyGrid initial = load_random(20, 20, {0.5, 4});
  QrmConfig config;
  config.target = centered_square(20, 12);
  const CpuReferenceResult reference = run_cpu_reference(initial, config);
  const PlanResult plan = QrmPlanner(config).plan(initial);
  std::size_t moved = 0;
  for (const auto& p : plan.stats.passes) moved += p.atoms_moved;
  EXPECT_EQ(reference.movement_records, moved);
}

TEST(CpuReference, ConservesAtoms) {
  for (const std::uint64_t seed : {2ULL, 3ULL}) {
    const OccupancyGrid initial = load_random(24, 24, {0.6, seed});
    QrmConfig config;
    config.target = centered_square(24, 14);
    const CpuReferenceResult reference = run_cpu_reference(initial, config);
    EXPECT_EQ(reference.final_grid.atom_count(), initial.atom_count());
  }
}

TEST(CpuReference, HonoursSenGate) {
  const OccupancyGrid initial = load_random(20, 20, {0.5, 5});
  QrmConfig config;
  config.target = centered_square(20, 8);
  config.sen_limit = 6;
  const CpuReferenceResult reference = run_cpu_reference(initial, config);
  const PlanResult plan = QrmPlanner(config).plan(initial);
  EXPECT_EQ(reference.final_grid, plan.final_grid);
}

TEST(CpuReference, RejectsASenGateInsideTheTargetQuarter) {
  // The twin of the planner's check: without it the reference wrote donors
  // over gated atoms and lost them silently.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const OccupancyGrid initial = load_random(20, 20, {0.5, seed});
    QrmConfig config;
    config.target = centered_square(20, 12);
    for (std::int32_t gate = 0; gate <= 6; ++gate) {
      config.sen_limit = gate;
      config.mode = PlanMode::Balanced;
      if (gate < 6) {
        EXPECT_THROW((void)run_cpu_reference(initial, config), PreconditionError)
            << "gate " << gate << ", seed " << seed;
      } else {
        EXPECT_EQ(run_cpu_reference(initial, config).final_grid.atom_count(),
                  initial.atom_count());
      }
      config.mode = PlanMode::Compact;
      EXPECT_EQ(run_cpu_reference(initial, config).final_grid.atom_count(), initial.atom_count());
    }
  }
}

TEST(CpuReference, RejectsBadGeometry) {
  QrmConfig config;
  config.target = centered_square(20, 8);
  EXPECT_THROW((void)run_cpu_reference(OccupancyGrid(19, 20), config), PreconditionError);
  config.target.row0 += 1;
  EXPECT_THROW((void)run_cpu_reference(OccupancyGrid(20, 20), config), PreconditionError);
}

// ---------------------------------------------------------------------------
// Quadrant pass generators in isolation.
// ---------------------------------------------------------------------------

TEST(QuadrantPlan, CompactPassProducesPrefixTargets) {
  const OccupancyGrid local = OccupancyGrid::from_strings({
      "0101",
      "1100",
      "0000",
      "1111",
  });
  const auto passes = compact_pass(local, Axis::Rows, -1);
  // Row 0 moves (0101 -> 1100); rows 1 and 3 are already compact; row 2 empty.
  ASSERT_EQ(passes.size(), 1u);
  EXPECT_EQ(passes[0].line, 0);
  EXPECT_EQ(passes[0].sources, (std::vector<std::int32_t>{1, 3}));
  EXPECT_EQ(passes[0].targets, (std::vector<std::int32_t>{0, 1}));
}

TEST(QuadrantPlan, BalancePassMeetsColumnDemand) {
  // 6x6 quadrant, target quarter 3x3, rows each hold 2 atoms in the last two
  // columns: compaction alone would leave column 2 starved.
  std::vector<std::string> art(6, "000011");
  const OccupancyGrid local = OccupancyGrid::from_strings(art);
  BalanceReport report;
  const auto assignments = balance_pass(local, 3, 3, -1, &report);
  EXPECT_TRUE(report.feasible);
  // Simulate: count atoms per column after applying assignments.
  std::vector<int> column_count(6, 0);
  for (const auto& a : assignments)
    for (const auto t : a.targets) column_count[static_cast<std::size_t>(t)]++;
  // Rows with no assignment keep their atoms in place — none here (all move).
  for (int c = 0; c < 3; ++c) EXPECT_GE(column_count[static_cast<std::size_t>(c)], 3)
      << "column " << c << " under-supplied";
}

TEST(QuadrantPlan, BalancePassReportsShortfall) {
  const OccupancyGrid local(6, 6);  // no atoms at all
  BalanceReport report;
  const auto assignments = balance_pass(local, 3, 3, -1, &report);
  EXPECT_TRUE(assignments.empty());
  EXPECT_FALSE(report.feasible);
  EXPECT_EQ(report.shortfall, 9);
}

// ---------------------------------------------------------------------------
// Lowering and merge of quadrant-local assignments.
// ---------------------------------------------------------------------------

/// The per-coordinate lowering lower_assignments replaced, kept as the
/// reference: every position through the bounds-checked to_global, arrays
/// reversed when the map runs backwards.
LineAssignment reference_to_global(const QuadrantGeometry& geom, Quadrant q, Axis axis,
                                   const LineAssignment& local) {
  LineAssignment global;
  const auto map_pos = [&](std::int32_t pos) {
    const Coord lc = axis == Axis::Rows ? Coord{local.line, pos} : Coord{pos, local.line};
    const Coord gc = geom.to_global(q, lc);
    return axis == Axis::Rows ? gc.col : gc.row;
  };
  {
    const Coord lc0 = axis == Axis::Rows ? Coord{local.line, 0} : Coord{0, local.line};
    const Coord gc0 = geom.to_global(q, lc0);
    global.line = axis == Axis::Rows ? gc0.row : gc0.col;
  }
  for (const auto s : local.sources) global.sources.push_back(map_pos(s));
  for (const auto t : local.targets) global.targets.push_back(map_pos(t));
  if (global.sources.size() > 1 && global.sources.front() > global.sources.back()) {
    std::reverse(global.sources.begin(), global.sources.end());
    std::reverse(global.targets.begin(), global.targets.end());
  }
  return global;
}

/// The std::map merge merge_assignments replaced, kept as the reference.
std::vector<LineAssignment> reference_merge(
    const QuadrantGeometry& geom, Axis axis,
    const std::array<std::vector<LineAssignment>, 4>& local) {
  std::map<std::int32_t, LineAssignment> merged;
  for (std::size_t qi = 0; qi < kAllQuadrants.size(); ++qi) {
    for (const LineAssignment& la : local[qi]) {
      LineAssignment ga = reference_to_global(geom, kAllQuadrants[qi], axis, la);
      auto [it, inserted] = merged.try_emplace(ga.line, ga);
      if (!inserted) {
        LineAssignment& acc = it->second;
        acc.sources.insert(acc.sources.end(), ga.sources.begin(), ga.sources.end());
        acc.targets.insert(acc.targets.end(), ga.targets.begin(), ga.targets.end());
      }
    }
  }
  std::vector<LineAssignment> lines;
  for (auto& [line, la] : merged) lines.push_back(std::move(la));
  return lines;
}

/// `n` distinct positions of [0, length), ascending (selection sampling).
std::vector<std::int32_t> random_positions(std::int32_t length, std::int32_t n, Rng& rng) {
  std::vector<std::int32_t> out;
  for (std::int32_t p = 0; p < length && std::cmp_less(out.size(), n); ++p) {
    const auto needed = static_cast<std::uint32_t>(n - static_cast<std::int32_t>(out.size()));
    if (rng.uniform_below(static_cast<std::uint32_t>(length - p)) < needed) out.push_back(p);
  }
  return out;
}

/// Kernel-shaped local assignments: ascending lines, each moving a
/// non-empty ascending set of sources to as many ascending targets.
std::vector<LineAssignment> random_local_assignments(std::int32_t lines, std::int32_t length,
                                                     Rng& rng) {
  std::vector<LineAssignment> out;
  for (std::int32_t line = 0; line < lines; ++line) {
    if (rng.uniform_below(3) == 0) continue;
    const auto n =
        1 + static_cast<std::int32_t>(rng.uniform_below(static_cast<std::uint32_t>(length)));
    out.push_back({line, random_positions(length, n, rng), random_positions(length, n, rng)});
  }
  return out;
}

void expect_same_lines(const std::vector<LineAssignment>& got,
                       const std::vector<LineAssignment>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].line, want[i].line) << "assignment " << i;
    EXPECT_EQ(got[i].sources, want[i].sources) << "line " << want[i].line;
    EXPECT_EQ(got[i].targets, want[i].targets) << "line " << want[i].line;
  }
}

TEST(PassLowering, MatchesThePerCoordinateReferenceMergedAndNot) {
  Rng rng(0x10E4ULL);
  for (int trial = 0; trial < 400; ++trial) {
    const auto qh = 1 + static_cast<std::int32_t>(rng.uniform_below(trial % 4 == 0 ? 90 : 20));
    const auto qw = 1 + static_cast<std::int32_t>(rng.uniform_below(trial % 4 == 1 ? 90 : 20));
    const QuadrantGeometry geom(2 * qh, 2 * qw);
    for (const Axis axis : {Axis::Rows, Axis::Cols}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + ", quadrant " + std::to_string(qh) + "x" +
                   std::to_string(qw) + (axis == Axis::Rows ? ", rows" : ", cols"));
      const std::int32_t lines = axis == Axis::Rows ? qh : qw;
      const std::int32_t length = axis == Axis::Rows ? qw : qh;
      std::array<std::vector<LineAssignment>, 4> local;
      for (auto& quadrant : local) quadrant = random_local_assignments(lines, length, rng);
      expect_same_lines(merge_assignments(geom, axis, local), reference_merge(geom, axis, local));
      for (std::size_t qi = 0; qi < kAllQuadrants.size(); ++qi) {
        std::vector<LineAssignment> want;
        for (const LineAssignment& la : local[qi])
          want.push_back(reference_to_global(geom, kAllQuadrants[qi], axis, la));
        expect_same_lines(lower_assignments(geom, kAllQuadrants[qi], axis, local[qi]), want);
      }
      if (HasFailure()) return;
    }
  }
}

TEST(PassLowering, RejectsALineOutsideTheQuadrant) {
  const QuadrantGeometry geom(8, 6);
  const std::vector<LineAssignment> beyond{{4, {0}, {1}}};
  EXPECT_THROW((void)lower_assignments(geom, Quadrant::NW, Axis::Rows, beyond), PreconditionError);
  EXPECT_THROW((void)merge_assignments(geom, Axis::Cols, {{{}, {}, {}, {{3, {0}, {1}}}}}),
               PreconditionError);
  EXPECT_EQ(lower_assignments(geom, Quadrant::NW, Axis::Cols, {{{2, {0}, {1}}}}).front().line, 0);
}

}  // namespace
}  // namespace qrm
