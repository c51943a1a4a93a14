#pragma once
/// \file bench_common.hpp
/// Shared workload construction and reporting helpers for the bench
/// binaries. Every bench prints its paper-style table first (deterministic,
/// seed-averaged) and then runs its google-benchmark timings, if it has any.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "lattice/grid.hpp"
#include "lattice/region.hpp"
#include "loading/loader.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace qrm::bench {

/// The paper's workload: Bernoulli 50%-ish loading. We use 0.55 so the
/// 0.6*W centred target is feasible for every seed (the experimental
/// practice is to re-load until enough atoms are present; see
/// load_random_at_least).
inline constexpr double kFill = 0.55;

[[nodiscard]] inline OccupancyGrid workload(std::int32_t size, std::uint64_t seed) {
  return load_random(size, size, {kFill, seed});
}

/// Even target size ~0.6*W (the paper's 50x50 -> 30x30 ratio).
[[nodiscard]] inline std::int32_t paper_target(std::int32_t size) {
  return size * 3 / 5 / 2 * 2;
}

/// Median CPU latency over `seeds` workloads, best-of-`repeats` each.
template <typename Fn>
[[nodiscard]] double measure_cpu_us(std::int32_t size, int seeds, std::size_t repeats, Fn&& fn) {
  std::vector<double> times;
  for (int s = 1; s <= seeds; ++s) {
    const OccupancyGrid grid = workload(size, static_cast<std::uint64_t>(s));
    times.push_back(best_of_microseconds(repeats, [&] { fn(grid); }));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

inline void print_header(const std::string& title, const std::string& paper_reference) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_reference.c_str());
  std::printf("================================================================\n");
}

inline void run_benchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
}

}  // namespace qrm::bench
