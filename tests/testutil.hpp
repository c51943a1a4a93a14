#pragma once
/// \file testutil.hpp
/// Shared fixtures and assertion helpers for the test suites. Everything
/// here used to be copy-pasted per test file; keep additions generic.

#include <gtest/gtest.h>

#include <cstdint>

#include "core/config.hpp"
#include "lattice/grid.hpp"
#include "loading/loader.hpp"
#include "moves/executor.hpp"
#include "moves/schedule.hpp"

namespace qrm::testutil {

/// Bernoulli-loaded grid with an explicit seed; the standard workload of
/// the suites (same distribution the paper evaluates on).
[[nodiscard]] inline OccupancyGrid seeded_grid(std::int32_t height, std::int32_t width,
                                               double fill, std::uint64_t seed) {
  return load_random(height, width, {fill, seed});
}

/// Replay `schedule` from `initial` under full physical checks (including
/// the AOD cross-product rule) and assert it is legal and lands exactly on
/// `expected`, conserving atoms.
inline void expect_replays_to(const OccupancyGrid& initial, const Schedule& schedule,
                              const OccupancyGrid& expected) {
  OccupancyGrid replay = initial;
  const ExecutionReport report = run_schedule(replay, schedule, {.check_aod = true});
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(replay, expected);
  EXPECT_EQ(replay.atom_count(), initial.atom_count()) << "atoms must be conserved";
}

/// `schedule` with every command in site form: the same moves, each
/// listing its sites as coordinates in the order it expands them.
[[nodiscard]] inline Schedule site_form(const Schedule& schedule) {
  Schedule out;
  for (const ParallelMove& move : schedule.moves()) out.push_back(move);
  return out;
}

/// Schedule-replay assertion for a full planner result: the schedule must
/// replay legally from `initial` onto the planner's own predicted grid.
inline void expect_plan_valid(const OccupancyGrid& initial, const PlanResult& result) {
  expect_replays_to(initial, result.schedule, result.final_grid);
}

}  // namespace qrm::testutil
