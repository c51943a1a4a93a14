/// \file algorithm_comparison.cpp
/// Runs every registered rearrangement algorithm on the same workload and
/// compares schedule structure, analysis cost, and physical execution time.
///
/// The workload is a ScenarioSpec (the paper's Uniform fill into the auto
/// centred target), drawn through scenario::generate_workload with the CLI
/// seed as the shot stream — byte-identical to the load_random call this
/// example used to hard-code.
///
///   $ ./examples/algorithm_comparison [size] [seed]

#include <cstdio>
#include <cstdlib>

#include "awg/waveform.hpp"
#include "baselines/algorithm.hpp"
#include "moves/executor.hpp"
#include "scenario/spec.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace qrm;
  const std::int32_t size = argc > 1 ? std::atoi(argv[1]) : 20;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 3;

  scenario::ScenarioSpec spec;  // Uniform fill=0.55, target=auto — the defaults
  spec.name = "algorithm-comparison";
  spec.grid_height = spec.grid_width = size;
  const OccupancyGrid initial = generate_workload(spec, seed);
  const Region target = spec.target_region();
  std::printf("Workload: %dx%d, %lld atoms, target %dx%d\n\n", size, size,
              static_cast<long long>(initial.atom_count()), target.rows, target.cols);

  const PhysicalModel aod = awg::physical_model_of(awg::AodCalibration{});
  TextTable table({"algorithm", "analysis", "commands", "parallelism", "physical time",
                   "filled", "description"});
  for (const auto& name : baselines::algorithm_names()) {
    // Time the pure analysis (what the paper's Fig. 7 measures)...
    const auto analysis_only = baselines::make_algorithm(name, {.aod_legalize = false});
    const double analysis_us =
        best_of_microseconds(3, [&] { (void)analysis_only->plan(initial, target); });
    // ...but report structure from the fully legalised, executable schedule.
    const auto algo = baselines::make_algorithm(name);
    const PlanResult result = algo->plan(initial, target);

    // Verify the schedule actually executes (all algorithms must emit
    // physically valid command streams).
    OccupancyGrid replay = initial;
    const ExecutionReport report = run_schedule(replay, result.schedule, {.check_aod = true});
    if (!report.ok) {
      std::printf("%s: INVALID SCHEDULE: %s\n", name.c_str(), report.error.c_str());
      return 1;
    }

    const ScheduleStats stats = result.schedule.stats();
    const double physical_us = aod.schedule_duration_us(result.schedule);
    table.add_row({name, fmt_time_us(analysis_us), std::to_string(stats.parallel_moves),
                   fmt_double(stats.mean_parallelism, 1), fmt_time_us(physical_us),
                   result.stats.target_filled ? "yes" : "no", algo->description()});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\n(compact-only planners fill only when iterated compaction suffices;\n"
              " see README.md, \"Reproduction notes\", for the analysis)\n");
  return 0;
}
