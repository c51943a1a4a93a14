// Ablation of the cross-quadrant command merge (paper Sec. IV-C): merging
// the west-side (NW+SW) and east-side (NE+SE) shift commands and dropping
// empty shifts reduces the number of AWG commands and hence the physical
// execution time of the schedule.

#include "bench_common.hpp"
#include "core/planner.hpp"
#include "moves/physical.hpp"

namespace {

using namespace qrm;
using namespace qrm::bench;

PlanResult plan_with_merge(std::int32_t size, bool merge, std::uint64_t seed) {
  QrmConfig config;
  config.target = centered_square(size, paper_target(size));
  config.merge_quadrants = merge;
  return QrmPlanner(config).plan(workload(size, seed));
}

void print_table() {
  print_header("Ablation — cross-quadrant command merge + empty-shift elimination",
               "paper Sec. IV-C: NW+SW / NE+SE shifts execute as shared commands");
  TextTable table({"W", "commands (merged)", "commands (unmerged)", "reduction",
                   "physical time saved"});
  const PhysicalModel aod;
  for (const std::int32_t size : {20, 30, 50}) {
    const PlanResult merged = plan_with_merge(size, true, 1);
    const PlanResult unmerged = plan_with_merge(size, false, 1);
    const double merged_dur = aod.schedule_duration_us(merged.schedule);
    const double unmerged_dur = aod.schedule_duration_us(unmerged.schedule);
    table.add_row({std::to_string(size), std::to_string(merged.schedule.size()),
                   std::to_string(unmerged.schedule.size()),
                   fmt_speedup(static_cast<double>(unmerged.schedule.size()) /
                               static_cast<double>(merged.schedule.size())),
                   fmt_time_us(unmerged_dur - merged_dur)});
  }
  std::printf("%s\n", table.render().c_str());
}

void BM_PlanMerged(benchmark::State& state) {
  const OccupancyGrid grid = workload(30, 1);
  QrmConfig config;
  config.target = centered_square(30, 18);
  config.merge_quadrants = state.range(0) != 0;
  const QrmPlanner planner(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(grid));
  }
}
BENCHMARK(BM_PlanMerged)->Arg(1)->Arg(0)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  run_benchmarks(argc, argv);
  return 0;
}
