// Extension bench: analysis latency vs physical execution time per
// algorithm. Accelerating the analysis to ~1 us makes the *atom motion*
// the remaining bottleneck, and algorithms with fewer / more parallel
// commands win on the physical side too — the context for the paper's
// claim that QRM "guarantees a lower clock cycle of neutral atom quantum
// computers".
//
// Second study: accelerator cycle-model kernel occupancy across load
// profiles. The paper's resource/latency numbers assume Bernoulli loading;
// gradient, clustered, and the adversarial pattern loads concentrate atoms
// so the shift kernels and OCM dominate the cycle budget differently. The
// per-profile worst case over seeds is written to a JSON artifact
// (BENCH_occupancy.json, or --out PATH) so CI can track it.

#include <cmath>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "awg/waveform.hpp"
#include "baselines/algorithm.hpp"
#include "hwmodel/accelerator.hpp"

namespace {

using namespace qrm;
using namespace qrm::bench;

constexpr std::int32_t kSize = 20;
constexpr std::int32_t kTarget = 12;

void print_table() {
  print_header("Extension — analysis time vs physical move time (20x20)",
               "context for Sec. VI: after acceleration, atom motion dominates");
  const PhysicalModel aod = awg::physical_model_of(awg::AodCalibration{});
  TextTable table({"algorithm", "analysis (CPU)", "commands", "mean parallelism",
                   "physical time"});
  for (const auto& name : {"qrm", "tetris", "psca", "mta1"}) {
    const auto algo = baselines::make_algorithm(name);
    const Region target = centered_square(kSize, kTarget);
    const OccupancyGrid grid = workload(kSize, 1);
    const double cpu_us = best_of_microseconds(name == std::string("mta1") ? 3 : 10, [&] {
      benchmark::DoNotOptimize(algo->plan(grid, target));
    });
    const PlanResult result = algo->plan(grid, target);
    const auto stats = result.schedule.stats();
    const double physical_us = aod.schedule_duration_us(result.schedule);
    table.add_row({name, fmt_time_us(cpu_us), std::to_string(stats.parallel_moves),
                   fmt_double(stats.mean_parallelism, 1), fmt_time_us(physical_us)});
  }
  std::printf("%s\n", table.render().c_str());
}

// ---------------------------------------------------------------------------
// Accelerator cycle-model occupancy across load profiles
// ---------------------------------------------------------------------------

/// One (profile, size) cell: the worst case (highest kernel occupancy) over
/// the profile's seeds. Occupancy = simulated kernel+OCM pass cycles as a
/// fraction of the whole flow (control + load + balance + passes + DMA-out).
struct OccupancyPoint {
  std::string profile;
  std::int32_t size = 0;
  std::int32_t target = 0;
  std::uint64_t pass_cycles = 0;
  std::uint64_t total_cycles = 0;
  double occupancy = 0.0;
  double latency_us = 0.0;
  std::uint64_t movement_records = 0;
  /// False when the balance pass found a quadrant without enough atoms: the
  /// planner refuses (QRM's quadrant-local feasibility limit), the kernels
  /// emit no movement records, and the flow degrades to control + load +
  /// balance + DMA. Those rows measure graceful degradation, not rearranging.
  bool feasible = true;
};

OccupancyPoint worst_occupancy(const std::string& profile, std::int32_t size,
                               std::int32_t target_size,
                               const std::vector<OccupancyGrid>& grids) {
  hw::AcceleratorConfig config;
  config.plan.target = centered_square(size, target_size);
  const hw::QrmAccelerator accel(config);
  OccupancyPoint point;
  point.profile = profile;
  point.size = size;
  point.target = target_size;
  bool first = true;
  for (const OccupancyGrid& grid : grids) {
    const hw::AccelResult result = accel.run(grid);
    const double occ = static_cast<double>(result.cycles.pass_total()) /
                       static_cast<double>(result.cycles.total());
    if (first || occ >= point.occupancy) {
      first = false;
      point.occupancy = occ;
      point.pass_cycles = result.cycles.pass_total();
      point.total_cycles = result.cycles.total();
      point.latency_us = result.latency_us;
      point.movement_records = result.movement_records;
      point.feasible = result.plan.stats.feasible;
    }
  }
  return point;
}

std::vector<OccupancyPoint> occupancy_study() {
  constexpr int kSeeds = 5;
  std::vector<OccupancyPoint> points;
  for (const std::int32_t size : {20, 40}) {
    const std::int32_t target = paper_target(size);

    std::vector<OccupancyGrid> uniform;
    std::vector<OccupancyGrid> gradient;
    std::vector<OccupancyGrid> clustered;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      uniform.push_back(load_random(size, size, {kFill, seed}));
      gradient.push_back(load_gradient(size, size, {0.2, 0.8, GradientAxis::Rows, seed}));
      // A higher base fill keeps the clustered load feasible after blasts.
      clustered.push_back(load_clustered(size, size, {{0.65, seed}, 3, 2}));
    }
    points.push_back(worst_occupancy("uniform", size, target, uniform));
    points.push_back(worst_occupancy("gradient", size, target, gradient));
    points.push_back(worst_occupancy("clustered", size, target, clustered));
    // Deterministic adversarial patterns, one grid each. Checkerboard is a
    // feasible worst-travel load; border maximises travel on a thin atom
    // budget; corner-block and half-grid starve two quadrants entirely, so
    // they measure the infeasible-refusal path (no movement records).
    points.push_back(worst_occupancy("checkerboard", size, target,
                                     {load_pattern(size, size, Pattern::Checkerboard)}));
    // The border ring holds ~(size-1) atoms per quadrant, so its target is
    // the largest even square whose quarter fits that atom budget — maximal
    // travel distance (row-locality may still leave the demand infeasible;
    // the column records what actually happened).
    const std::int32_t border_target =
        2 * static_cast<std::int32_t>(std::sqrt(static_cast<double>(size - 1)));
    points.push_back(worst_occupancy("border", size, border_target,
                                     {load_pattern(size, size, Pattern::Border)}));
    points.push_back(worst_occupancy("corner-block", size, target,
                                     {load_pattern(size, size, Pattern::CornerBlock)}));
    points.push_back(
        worst_occupancy("half-grid", size, target, {load_pattern(size, size, Pattern::HalfGrid)}));
  }
  return points;
}

void print_occupancy(const std::vector<OccupancyPoint>& points) {
  print_header("Extension — accelerator kernel occupancy by load profile",
               "worst case over seeds; cycle model of Sec. IV at 250 MHz");
  TextTable table({"profile", "grid", "target", "pass cycles", "total cycles", "occupancy",
                   "latency", "records", "feasible"});
  for (const auto& p : points) {
    table.add_row({p.profile, std::to_string(p.size), std::to_string(p.target),
                   std::to_string(p.pass_cycles), std::to_string(p.total_cycles),
                   fmt_percent(p.occupancy), fmt_time_us(p.latency_us),
                   std::to_string(p.movement_records), p.feasible ? "yes" : "no"});
  }
  std::printf("%s\n", table.render().c_str());
}

void write_occupancy_json(const std::string& path, const std::vector<OccupancyPoint>& points) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  os << "{\n";
  os << "  \"bench\": \"physical_time\",\n";
  os << "  \"occupancy\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    os << "    {\"profile\": \"" << p.profile << "\", \"size\": " << p.size
       << ", \"target\": " << p.target << ", \"pass_cycles\": " << p.pass_cycles
       << ", \"total_cycles\": " << p.total_cycles << ", \"occupancy\": " << p.occupancy
       << ", \"latency_us\": " << p.latency_us
       << ", \"movement_records\": " << p.movement_records
       << ", \"feasible\": " << (p.feasible ? "true" : "false")
       << (i + 1 < points.size() ? "},\n" : "}\n");
  }
  os << "  ]\n";
  os << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  // --out PATH names the occupancy artifact. This bench has no timing
  // benchmarks, so any other argument (e.g. --benchmark_filter) is ignored.
  std::string out_path = "BENCH_occupancy.json";
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[++i];

  print_table();
  const std::vector<OccupancyPoint> points = occupancy_study();
  print_occupancy(points);
  write_occupancy_json(out_path, points);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
