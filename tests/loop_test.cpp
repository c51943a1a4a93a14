// Tests for the multi-round rearrangement-under-loss loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "core/planner.hpp"
#include "loading/loader.hpp"
#include "moves/aod.hpp"
#include "moves/dead_channels.hpp"
#include "runtime/rearrangement_loop.hpp"
#include "testutil.hpp"

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

// ---------------------------------------------------------------------------
// The line-at-a-time executor against its per-site reference
// ---------------------------------------------------------------------------

/// Up to `count` dead rows and as many dead columns of a `size` grid,
/// sorted and duplicate-free.
DeadChannelMask random_dead(std::int32_t size, std::size_t count, Rng& rng) {
  DeadChannelMask dead;
  const auto line = [&] {
    return static_cast<std::int32_t>(rng.uniform_below(static_cast<std::uint64_t>(size)));
  };
  for (std::size_t i = 0; i < count; ++i) {
    dead.rows.push_back(line());
    dead.cols.push_back(line());
  }
  for (std::vector<std::int32_t>* lines : {&dead.rows, &dead.cols}) {
    std::sort(lines->begin(), lines->end());
    lines->erase(std::unique(lines->begin(), lines->end()), lines->end());
  }
  return dead;
}

/// `grid` with each site flipped with probability `p`: atoms added and
/// removed.
OccupancyGrid perturbed(OccupancyGrid grid, double p, Rng& rng) {
  if (p <= 0.0) return grid;
  for (std::int32_t r = 0; r < grid.height(); ++r)
    for (std::int32_t c = 0; c < grid.width(); ++c)
      if (rng.bernoulli(p)) grid.set({r, c}, !grid.occupied({r, c}));
  return grid;
}

/// A legalize() intent on `grid`: atoms drawn front-first, each joining
/// (with a probability drawn per intent) when every cell it sweeps is in
/// bounds and free or held by an atom that joined before it.
std::vector<Coord> random_intent(const OccupancyGrid& grid, Direction dir, std::int32_t steps,
                                 Rng& rng) {
  const std::vector<Coord> atoms = grid.atom_positions();
  const std::vector<Coord> ordered = rt::lossy_move_order({dir, steps, atoms});
  const double p = 0.2 + 0.8 * rng.uniform01();
  OccupancyGrid joined(grid.height(), grid.width());
  std::vector<Coord> intent;
  for (const Coord& a : ordered) {
    bool can_go = true;
    for (std::int32_t k = 1; k <= steps && can_go; ++k) {
      const Coord cell = moved(a, dir, k);
      can_go = grid.in_bounds(cell) && (!grid.occupied(cell) || joined.occupied(cell));
    }
    if (can_go && rng.uniform01() < p) {
      intent.push_back(a);
      joined.set(a);
    }
  }
  return intent;
}

/// The side of a square target for a `size` grid: about half, even.
std::int32_t half_target(std::int32_t size) { return std::max(2, size / 2 - (size / 2) % 2); }

TEST(LossyExecutor, LineFormMatchesTheSiteFormReferenceOnGeneratedCases) {
  // Grids with one-, two- and three-word lines; QRM plans in both modes
  // with merge on and off, and legalize() intents of 1-3 steps; dead rows
  // and columns; worlds that differ from the planned grid (sites flipped
  // after planning, so sources are empty and paths blocked); four per-move
  // loss rates. A line-form schedule and its site-form copy must leave the
  // same grid, lose the same atoms, conserve atoms and leave the loss
  // stream at the same next draw.
  Rng gen(2610);
  constexpr std::array<Direction, 4> kDirections = {Direction::North, Direction::South,
                                                    Direction::West, Direction::East};
  std::size_t runs = 0;
  std::size_t line_commands = 0;
  std::int64_t stayed = 0;  // sites that did not move at certain loss
  for (const std::int32_t size : {8, 20, 50, 64, 66, 130}) {
    for (int variant = 0; variant < 8; ++variant) {
      SCOPED_TRACE("size " + std::to_string(size) + " variant " + std::to_string(variant));
      QrmConfig config;
      config.target = centered_square(size, half_target(size));
      config.mode = variant % 2 == 0 ? PlanMode::Compact : PlanMode::Balanced;
      config.merge_quadrants = variant / 2 % 2 == 0;
      if (variant >= 4) config.dead_channels = random_dead(size, 1 + variant % 3, gen);
      const OccupancyGrid grid =
          load_random(size, size, {0.45 + 0.25 * gen.uniform01(), gen.next_u64()});
      std::vector<Schedule> schedules;
      schedules.push_back(QrmPlanner(config).plan(grid).schedule);
      const Direction dir = kDirections[gen.uniform_below(4)];
      const auto steps = static_cast<std::int32_t>(1 + gen.uniform_below(3));
      const std::vector<Coord> intent = random_intent(grid, dir, steps, gen);
      if (!intent.empty()) schedules.push_back(legalize(grid, intent, dir, steps));
      for (const Schedule& schedule : schedules) {
        const Schedule reference = testutil::site_form(schedule);
        ASSERT_EQ(reference, schedule);
        line_commands += schedule.size();
        for (const double flip : {0.0, 0.05}) {
          const OccupancyGrid world = perturbed(grid, flip, gen);
          for (const double loss : {0.0, 0.01, 0.5, 1.0}) {
            const std::uint64_t seed = gen.next_u64();
            OccupancyGrid line_world = world;
            OccupancyGrid site_world = world;
            Rng line_rng(seed);
            Rng site_rng(seed);
            const DeadChannelMask& dead = config.dead_channels;
            const std::int64_t line_lost =
                rt::apply_lossy_schedule(line_world, schedule, line_rng, loss, dead);
            const std::int64_t site_lost =
                rt::apply_lossy_schedule(site_world, reference, site_rng, loss, dead);
            SCOPED_TRACE("flip " + std::to_string(flip) + " loss " + std::to_string(loss));
            ASSERT_EQ(line_world, site_world);
            ASSERT_EQ(line_lost, site_lost);
            ASSERT_EQ(line_rng.next_u64(), site_rng.next_u64());
            ASSERT_EQ(line_world.atom_count() + line_lost, world.atom_count());
            if (loss == 1.0 && flip > 0.0)
              stayed += static_cast<std::int64_t>(schedule.stats().atom_moves) - line_lost;
            ++runs;
          }
        }
      }
    }
  }
  EXPECT_GT(runs, 700u);
  EXPECT_GT(line_commands, 10000u);
  EXPECT_GT(stayed, 0) << "no site met an empty source or a blocked path";
}

/// Appends to `out` a line-form command moving `steps` in `dir` whose
/// lines, in this order, each take every atom of `world` on them, plus the
/// minors in `extra` (which may lie past the grid).
void add_whole_lines(Schedule& out, const OccupancyGrid& world, Direction dir, std::int32_t steps,
                     const std::vector<std::int32_t>& lines,
                     const std::vector<std::int32_t>& extra = {}) {
  using Word = Schedule::Word;
  const bool horizontal = is_horizontal(dir);
  const std::int32_t minors = horizontal ? world.height() : world.width();
  const std::size_t words = (static_cast<std::size_t>(minors) + 63) / 64;
  std::vector<Word> records;
  std::size_t count = 0;
  for (const std::int32_t m : lines) {
    records.push_back(static_cast<Word>(m));
    std::vector<Word> members(words, 0);
    const auto add = [&](std::int32_t x) {
      members[static_cast<std::size_t>(x) / 64] |= Word{1} << (x % 64);
    };
    for (std::int32_t x = 0; x < minors; ++x) {
      const Coord site = horizontal ? Coord{x, m} : Coord{m, x};
      if (world.in_bounds(site) && world.occupied(site)) add(x);
    }
    for (const std::int32_t x : extra) add(x);
    for (const Word w : members) count += static_cast<std::size_t>(std::popcount(w));
    records.insert(records.end(), members.begin(), members.end());
  }
  std::ranges::copy(records, out.add_lines(dir, steps, lines.size(), words, count).begin());
}

TEST(LossyExecutor, LinesOutOfFrontFirstOrderRunAsTheReference) {
  // Line-form commands written by hand: lines back-first or listed twice
  // expand in an order the executor cannot walk a line at a time, so they
  // must run as their site-form copies do (sorted into lossy_move_order);
  // a line or a member past the grid throws PreconditionError either way.
  const OccupancyGrid world = load_random(10, 70, {0.6, 11});
  const DeadChannelMask none;
  for (const Direction dir :
       {Direction::North, Direction::South, Direction::West, Direction::East}) {
    SCOPED_TRACE(to_string(dir));
    const bool horizontal = is_horizontal(dir);
    const std::int32_t lines = horizontal ? world.width() : world.height();
    const std::int32_t minors = horizontal ? world.height() : world.width();
    std::vector<std::int32_t> back_first = {1, 2, 3, 4, 5, 6, 7, 8};  // front-first for N/W
    if (dir == Direction::North || dir == Direction::West)
      std::reverse(back_first.begin(), back_first.end());
    for (const std::vector<std::int32_t>& order : {back_first, std::vector<std::int32_t>{5, 5}}) {
      for (const std::int32_t steps : {1, 2}) {
        Schedule schedule;
        add_whole_lines(schedule, world, dir, steps, order);
        const Schedule reference = testutil::site_form(schedule);
        for (const double loss : {0.0, 0.5}) {
          OccupancyGrid line_world = world;
          OccupancyGrid site_world = world;
          Rng line_rng(5);
          Rng site_rng(5);
          EXPECT_EQ(rt::apply_lossy_schedule(line_world, schedule, line_rng, loss, none),
                    rt::apply_lossy_schedule(site_world, reference, site_rng, loss, none));
          EXPECT_EQ(line_world, site_world);
          EXPECT_EQ(line_rng.next_u64(), site_rng.next_u64());
        }
      }
    }
    // The order matters on this world: the back-first lines, one command
    // each, end elsewhere, because each front line blocks the one behind
    // it until it has moved.
    Schedule one_command;
    add_whole_lines(one_command, world, dir, 1, back_first);
    Schedule line_by_line;
    for (const std::int32_t m : back_first) add_whole_lines(line_by_line, world, dir, 1, {m});
    OccupancyGrid sorted_world = world;
    OccupancyGrid walked_world = world;
    Rng sorted_rng(5);
    Rng walked_rng(5);
    (void)rt::apply_lossy_schedule(sorted_world, one_command, sorted_rng, 0.0, none);
    (void)rt::apply_lossy_schedule(walked_world, line_by_line, walked_rng, 0.0, none);
    EXPECT_NE(sorted_world, walked_world);

    for (const bool past_minor : {false, true}) {
      Schedule bad;
      if (past_minor) {
        add_whole_lines(bad, world, dir, 1, {2}, {minors});
      } else {
        add_whole_lines(bad, world, dir, 1, {lines}, {0});
      }
      for (const Schedule& form : {bad, testutil::site_form(bad)}) {
        OccupancyGrid grid = world;
        Rng rng(5);
        EXPECT_THROW((void)rt::apply_lossy_schedule(grid, form, rng, 0.0, none), PreconditionError)
            << (past_minor ? "a member past the minor axis" : "a line past the grid");
      }
    }
  }
}

TEST(RearrangementLoop, LineFormPlansRunLikeTheirSiteFormCopiesAndConserveAtoms) {
  // The loop behind a planner, once with its line-form schedules and once
  // with their site-form copies: the same rounds, losses and final grid,
  // and atoms conserved round by round (each round's atoms_before minus its
  // losses is the next round's atoms_before, and the final count after the
  // last). The planner sees the world with a few sites flipped, so its
  // plans meet empty sources and blocked paths; burst loss draws from the
  // loss stream after execution, so a drifted draw would move a burst.
  Rng gen(77);
  constexpr std::array<double, 4> kLoss = {0.0, 0.01, 0.5, 1.0};
  std::size_t rounds = 0;
  for (const std::int32_t size : {8, 30, 64, 66, 130}) {
    for (int variant = 0; variant < 8; ++variant) {
      SCOPED_TRACE("size " + std::to_string(size) + " variant " + std::to_string(variant));
      rt::LoopConfig config = loop_config(size, half_target(size));
      config.plan.mode = variant % 2 == 0 ? PlanMode::Compact : PlanMode::Balanced;
      config.plan.merge_quadrants = variant / 2 % 2 == 0;
      if (variant >= 4) config.plan.dead_channels = random_dead(size, 2, gen);
      config.loss.per_move_loss = kLoss[static_cast<std::size_t>(variant + size) % 4];
      config.loss.background_loss = 0.01;
      config.loss.burst_loss = variant % 3 == 0 ? 0.5 : 0.0;
      config.loss.burst_length = 3;
      config.loss.seed = gen.next_u64();
      config.max_rounds = 6;
      const double flip = variant % 4 == 3 ? 0.0 : 0.01;
      const OccupancyGrid initial =
          load_random(size, size, {0.55 + 0.15 * gen.uniform01(), gen.next_u64()});
      const QrmPlanner planner(config.plan);
      const auto plan_line = [&](const OccupancyGrid& state) {
        // A pure function of `state`: the flips are seeded by it.
        Rng noise(static_cast<std::uint64_t>(state.atom_count()) * 7919 +
                  static_cast<std::uint64_t>(size));
        return planner.plan(perturbed(state, flip, noise));
      };
      const auto plan_site = [&](const OccupancyGrid& state) {
        PlanResult plan = plan_line(state);
        plan.schedule = testutil::site_form(plan.schedule);
        return plan;
      };
      const rt::LoopReport line = rt::run_rearrangement_loop(initial, config, plan_line);
      const rt::LoopReport site = rt::run_rearrangement_loop(initial, config, plan_site);
      ASSERT_EQ(line.rounds_used(), site.rounds_used());
      for (std::size_t i = 0; i < line.rounds.size(); ++i) {
        const rt::RoundReport& a = line.rounds[i];
        const rt::RoundReport& b = site.rounds[i];
        EXPECT_EQ(a.atoms_before, b.atoms_before) << "round " << i;
        EXPECT_EQ(a.defects_before, b.defects_before) << "round " << i;
        EXPECT_EQ(a.commands, b.commands) << "round " << i;
        EXPECT_EQ(a.atoms_lost, b.atoms_lost) << "round " << i;
        EXPECT_EQ(a.filled_after, b.filled_after) << "round " << i;
        const std::int64_t after = i + 1 < line.rounds.size() ? line.rounds[i + 1].atoms_before
                                                              : line.final_grid.atom_count();
        EXPECT_EQ(a.atoms_before - a.atoms_lost, after) << "round " << i;
      }
      EXPECT_EQ(line.final_grid, site.final_grid);
      EXPECT_EQ(line.total_atoms_lost, site.total_atoms_lost);
      EXPECT_EQ(line.success, site.success);
      rounds += line.rounds_used();
    }
  }
  EXPECT_GT(rounds, 100u);
}

}  // namespace
}  // namespace qrm
