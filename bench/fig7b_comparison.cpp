// Fig. 7(b): execution-time comparison of rearrangement algorithms on a
// 20x20 initial array (the experimental setup of the PSCA and MTA1 papers).
// Paper ratios: QRM-CPU ~20x faster than Tetris, ~246x than PSCA, ~1000x
// than MTA1; QRM-FPGA ~120x faster than Tetris (~300x at 50x50).
//
// Tetris/PSCA/MTA1 are our structural reconstructions (see README.md,
// "Reproduction notes"); the reproduction target is the ordering and the
// orders of magnitude.

#include "bench_common.hpp"
#include "baselines/algorithm.hpp"
#include "core/cpu_reference.hpp"
#include "hwmodel/accelerator.hpp"

namespace {

using namespace qrm;
using namespace qrm::bench;

constexpr std::int32_t kSize = 20;
constexpr std::int32_t kTarget = 12;

double algorithm_cpu_us(const std::string& name) {
  const Region target = centered_square(kSize, kTarget);
  if (name == "qrm") {
    // The paper's QRM-CPU is the accelerator's own analysis run in
    // software: no schedule materialisation, exactly like the hardware.
    QrmConfig config;
    config.target = target;
    return measure_cpu_us(kSize, 5, 20, [&](const OccupancyGrid& grid) {
      benchmark::DoNotOptimize(run_cpu_reference(grid, config));
    });
  }
  // Baselines: analysis latency only (no AOD legalisation), matching what
  // the paper's comparison times.
  const auto algo = baselines::make_algorithm(name, {.aod_legalize = false});
  const std::size_t repeats = name == "mta1" ? 3 : 10;
  return measure_cpu_us(kSize, 5, repeats, [&](const OccupancyGrid& grid) {
    benchmark::DoNotOptimize(algo->plan(grid, target));
  });
}

void print_table() {
  print_header("Fig. 7(b) — algorithm comparison, 20x20 initial array",
               "paper: QRM-CPU ~20x vs Tetris, ~246x vs PSCA, ~1000x vs MTA1; "
               "QRM-FPGA ~120x vs Tetris");

  double fpga_us = 0.0;
  {
    std::vector<double> times;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      hw::AcceleratorConfig config;
      config.plan.target = centered_square(kSize, kTarget);
      times.push_back(hw::QrmAccelerator(config).run(workload(kSize, seed)).latency_us);
    }
    std::sort(times.begin(), times.end());
    fpga_us = times[times.size() / 2];
  }

  const std::vector<std::string> names{"qrm", "tetris", "psca", "mta1"};
  std::vector<double> cpu_times;
  for (const auto& name : names) cpu_times.push_back(algorithm_cpu_us(name));
  const double qrm_us = cpu_times[0];
  const double tetris_us = cpu_times[1];

  TextTable table({"algorithm", "analysis time", "slowdown vs QRM-FPGA",
                   "slowdown vs QRM-CPU", "paper (vs QRM-CPU)"});
  const std::vector<const char*> labels{"QRM-CPU", "Tetris (recon.)", "PSCA (recon.)",
                                        "MTA1 (recon.)"};
  const std::vector<const char*> paper_notes{"1x (reference)", "~20x", "~246x", "~1000x"};
  table.add_row({"QRM-FPGA (model)", fmt_time_us(fpga_us), "1.0x",
                 fmt_double(fpga_us / qrm_us, 2) + "x", "-"});
  for (std::size_t i = 0; i < names.size(); ++i) {
    table.add_row({labels[i], fmt_time_us(cpu_times[i]), fmt_speedup(cpu_times[i] / fpga_us),
                   fmt_speedup(cpu_times[i] / qrm_us), paper_notes[i]});
  }
  std::printf("%s", table.render().c_str());
  std::printf("QRM-FPGA speedup vs Tetris: %.0fx (paper: ~120x at 20x20)\n\n",
              tetris_us / fpga_us);
}

void BM_Algorithm(benchmark::State& state, const std::string& name) {
  const auto algo = baselines::make_algorithm(name);
  const OccupancyGrid grid = workload(kSize, 1);
  const Region target = centered_square(kSize, kTarget);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo->plan(grid, target));
  }
}
void BM_Qrm(benchmark::State& state) { BM_Algorithm(state, "qrm"); }
void BM_Tetris(benchmark::State& state) { BM_Algorithm(state, "tetris"); }
void BM_Psca(benchmark::State& state) { BM_Algorithm(state, "psca"); }
void BM_Mta1(benchmark::State& state) { BM_Algorithm(state, "mta1"); }
BENCHMARK(BM_Qrm)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Tetris)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Psca)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Mta1)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  run_benchmarks(argc, argv);
  return 0;
}
