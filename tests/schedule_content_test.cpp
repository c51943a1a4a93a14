// Schedule-content pins: a hash of every command of fixed-seed plans (its
// direction, its step count and every site in order, in the byte order of
// the batch fingerprint's schedule mixing) plus the final grid, compared
// with constants recorded once. Determinism and plan-cache tests compare
// two runs of one build, and the golden corpus sees a schedule only through
// command counts and loss draws; these constants catch a changed site order
// or command partition between commits.
//
// A failure prints the recomputed row. Replace a constant only when the
// schedule change is intended.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/algorithm.hpp"
#include "core/config.hpp"
#include "core/planner.hpp"
#include "lattice/region.hpp"
#include "loading/loader.hpp"
#include "moves/aod.hpp"
#include "moves/schedule.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace qrm {
namespace {

void mix(std::uint64_t& hash, std::uint64_t value) noexcept { fnv::mix_u64(hash, value); }

void mix_moves(std::uint64_t& hash, const Schedule& schedule) {
  mix(hash, schedule.size());
  for (const ParallelMove& move : schedule.moves()) {
    mix(hash, static_cast<std::uint64_t>(move.dir));
    mix(hash, static_cast<std::uint64_t>(move.steps));
    for (const Coord& site : move.sites) {
      mix(hash, static_cast<std::uint64_t>(site.row));
      mix(hash, static_cast<std::uint64_t>(site.col));
    }
  }
}

std::uint64_t plan_hash(const PlanResult& plan) {
  std::uint64_t hash = fnv::kOffset;
  mix_moves(hash, plan.schedule);
  const OccupancyGrid& grid = plan.final_grid;
  mix(hash, static_cast<std::uint64_t>(grid.height()));
  mix(hash, static_cast<std::uint64_t>(grid.width()));
  for (std::int32_t r = 0; r < grid.height(); ++r)
    for (const BitRow::Word word : grid.row(r).words()) mix(hash, word);
  return hash;
}

void expect_pinned(const std::string& name, std::uint64_t expected, std::uint64_t recomputed) {
  char row[128];
  std::snprintf(row, sizeof row, "{\"%s\", 0x%016llxULL}", name.c_str(),
                static_cast<unsigned long long>(recomputed));
  EXPECT_EQ(recomputed, expected) << "schedule content drifted; recomputed " << row;
}

struct QrmCase {
  const char* name;
  std::int32_t grid;
  std::int32_t target;
  PlanMode mode;
  std::uint64_t seed;
  std::uint64_t expected;
};

QrmConfig square_config(std::int32_t grid, std::int32_t target, PlanMode mode) {
  QrmConfig config;
  config.target = centered_square(grid, target);
  config.mode = mode;
  return config;
}

std::uint64_t qrm_hash(const QrmConfig& config, std::int32_t grid, std::uint64_t seed) {
  return plan_hash(QrmPlanner(config).plan(load_random(grid, grid, {0.55, seed})));
}

TEST(ScheduleContent, QrmPlansAtOneTwoAndFourWordLines) {
  const QrmCase cases[] = {
      {"balanced 50", 50, 30, PlanMode::Balanced, 1000, 0x223ffc8d423afe63ULL},
      {"balanced 128", 128, 76, PlanMode::Balanced, 1001, 0x6ec24a329fa4d740ULL},
      {"balanced 256", 256, 152, PlanMode::Balanced, 1002, 0x835162c9b85863d0ULL},
      {"compact 50", 50, 30, PlanMode::Compact, 1003, 0xc28dd645dfda14a1ULL},
      {"compact 128", 128, 76, PlanMode::Compact, 1004, 0x38bdea4d8ba14ff7ULL},
      {"compact 256", 256, 152, PlanMode::Compact, 1005, 0x1264e1276e404cbbULL},
  };
  for (const QrmCase& c : cases)
    expect_pinned(c.name, c.expected, qrm_hash(square_config(c.grid, c.target, c.mode), c.grid,
                                               c.seed));
}

TEST(ScheduleContent, QrmPlansWithMergeOrLegalizeOff) {
  QrmConfig merge_off = square_config(50, 30, PlanMode::Balanced);
  merge_off.merge_quadrants = false;
  expect_pinned("merge off", 0x3182cc727985c4fcULL, qrm_hash(merge_off, 50, 1010));

  QrmConfig unlegalized = square_config(50, 30, PlanMode::Balanced);
  unlegalized.aod_legalize = false;
  expect_pinned("aod_legalize off", 0xed804bd7ed121e25ULL, qrm_hash(unlegalized, 50, 1011));

  QrmConfig unlegalized_compact = square_config(128, 76, PlanMode::Compact);
  unlegalized_compact.aod_legalize = false;
  expect_pinned("aod_legalize off, compact 128", 0xdd3fb2536153a59eULL,
                qrm_hash(unlegalized_compact, 128, 1012));
}

TEST(ScheduleContent, DeadChannelHops) {
  // Runs of two and three dead lines outside the 30x30 target: moves across
  // them are hops of three and four steps.
  QrmConfig config = square_config(50, 30, PlanMode::Balanced);
  config.dead_channels = DeadChannelMask{{2, 3, 46}, {4, 5, 6, 45}};
  const PlanResult plan = QrmPlanner(config).plan(load_random(50, 50, {0.55, 1020}));
  EXPECT_GE(plan.schedule.stats().max_steps, 3);
  expect_pinned("dead rows and columns", 0x425830cb140f8331ULL, plan_hash(plan));
}

TEST(ScheduleContent, LegalizeIntentsWithOneToThreeSteps) {
  // Front-first intents on 70x70 grids (two-word lines on either axis): an
  // atom joins with probability 0.7 when every cell it sweeps is in bounds
  // and free or taken by a joined atom.
  const std::uint64_t expected[] = {0x734018dad2cc1081ULL, 0x900354a7a734f498ULL,
                                    0xfe7d8c59f05436b4ULL};
  Rng rng(0x1E6A1);
  for (std::int32_t steps = 1; steps <= 3; ++steps) {
    std::uint64_t hash = fnv::kOffset;
    for (const Direction dir :
         {Direction::North, Direction::South, Direction::East, Direction::West}) {
      for (int trial = 0; trial < 4; ++trial) {
        const OccupancyGrid g = load_random(70, 70, {0.5, rng.next_u64()});
        std::vector<Coord> atoms = g.atom_positions();
        const Coord d = direction_delta(dir);
        std::sort(atoms.begin(), atoms.end(), [d](const Coord& a, const Coord& b) {
          const std::int32_t ka = -(a.row * d.row + a.col * d.col);
          const std::int32_t kb = -(b.row * d.row + b.col * d.col);
          return ka != kb ? ka < kb : a < b;
        });
        OccupancyGrid joined(70, 70);
        std::vector<Coord> sites;
        for (const Coord& a : atoms) {
          bool can_go = true;
          for (std::int32_t k = 1; k <= steps && can_go; ++k) {
            const Coord cell = moved(a, dir, k);
            can_go = g.in_bounds(cell) && (!g.occupied(cell) || joined.occupied(cell));
          }
          if (can_go && rng.uniform01() < 0.7) {
            sites.push_back(a);
            joined.set(a);
          }
        }
        mix_moves(hash, legalize(g, sites, dir, steps));
      }
    }
    expect_pinned("legalize steps " + std::to_string(steps),
                  expected[static_cast<std::size_t>(steps - 1)], hash);
  }
}

TEST(ScheduleContent, EveryBaselineAlgorithm) {
  struct Pin {
    const char* name;
    std::uint64_t legalized;
    std::uint64_t unlegalized;
  };
  const Pin pins[] = {
      {"qrm", 0xe32e70e1b46784e8ULL, 0xdf0c4c81c0686130ULL},
      {"qrm-compact", 0xebe429be72c28e9fULL, 0xe2d93292663781d9ULL},
      {"typical", 0xebe429be72c28e9fULL, 0xe2d93292663781d9ULL},
      {"tetris", 0x5e41a27a0961b65fULL, 0xbfcf56e6925b94c6ULL},
      {"psca", 0x5e41a27a0961b65fULL, 0x14fc3199200315c6ULL},
      {"mta1", 0xac6f895256146468ULL, 0xac6f895256146468ULL},
  };
  const std::vector<std::string> names = baselines::algorithm_names();
  ASSERT_EQ(names.size(), std::size(pins));
  const OccupancyGrid grid = load_random(30, 30, {0.6, 1030});
  const Region target = centered_square(30, 18);
  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_EQ(names[i], pins[i].name);
    for (const bool aod_legalize : {true, false}) {
      const PlanResult plan =
          baselines::make_algorithm(names[i], {.aod_legalize = aod_legalize})->plan(grid, target);
      expect_pinned(names[i] + (aod_legalize ? "" : ", aod_legalize off"),
                    aod_legalize ? pins[i].legalized : pins[i].unlegalized, plan_hash(plan));
    }
  }
}

}  // namespace
}  // namespace qrm
