/// \file planner_throughput.cpp
/// The perf trajectory baseline for the word-parallel planning core.
///
/// Two layers of measurement, both written to a machine-readable JSON file
/// (BENCH_planner.json by default) so later PRs have a trajectory to beat:
///
///  1. Primitive level: ns/op of each word-parallel BitRow/OccupancyGrid
///     kernel a plan calls vs its naive per-bit reference (util/bitref.hpp,
///     lattice/gridref.hpp) at word-boundary widths, with the speedup factor:
///     count_range (region counts, realize's pass-through test), subgrid and
///     subgrid_mirrored (quadrant extraction; the NW quadrant's Rotate180
///     runs the word reversal) and set_subgrid (the CPU reference's
///     write-back).
///  2. End-to-end: QrmPlanner plans/sec across grid sizes (50^2 .. 1024^2)
///     on the paper's Bernoulli-loading workload, with the PlanStats phase
///     breakdown (pass compute / merge / realize) per size.
///  3. Replan axis: rounds/sec of a multi-round replan sequence whose
///     round-over-round damage stays inside one quadrant (the loop's
///     settled-tail shape), planned from scratch vs with DeltaReplanner —
///     the measured payoff of the delta==scratch reuse contract.
///
///   $ ./bench/planner_throughput [--smoke|--exhaustive] [--out PATH]
///
/// --smoke trims sizes and repeats for CI (a few seconds). The default
/// (full) mode plans up to 256^2 and finishes in well under a minute;
/// --exhaustive adds the 512^2 and 1024^2 end-to-end points, which take
/// minutes each because the planner's higher layers are still super-linear
/// (that is the trajectory later PRs are meant to bend). --out overrides the
/// JSON destination.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/delta_planner.hpp"
#include "core/planner.hpp"
#include "lattice/gridref.hpp"
#include "util/bitref.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace qrm;

struct PrimitiveResult {
  std::string name;
  std::uint32_t width = 0;  ///< row width in bits (= grid side for 2D ops)
  double fast_ns = 0.0;
  double naive_ns = 0.0;
  [[nodiscard]] double speedup() const { return naive_ns > 0.0 ? naive_ns / fast_ns : 0.0; }
};

/// One size of the plans/sec axis.
struct PlanPoint {
  std::int32_t size = 0;
  std::int32_t target = 0;
  double plan_us = 0.0;  ///< median over seeds of best-of-repeats
  /// Phase breakdown (PlanStats::timers) of one representative plan: the
  /// quadrant kernels' pass compute, the merge, and the realize tail.
  double pass_compute_us = 0.0;
  double merge_us = 0.0;
  double realize_us = 0.0;
  [[nodiscard]] double plans_per_sec() const { return plan_us > 0.0 ? 1e6 / plan_us : 0.0; }
};

/// Time `fn` as ns/op: repeat best-of-`repeats`, each sample averaging
/// `iters` back-to-back calls to amortise clock granularity.
template <typename Fn>
double time_ns(std::size_t repeats, std::size_t iters, Fn&& fn) {
  const double us = best_of_microseconds(repeats, [&] {
    for (std::size_t i = 0; i < iters; ++i) benchmark::DoNotOptimize(fn());
  });
  return us * 1e3 / static_cast<double>(iters);
}

[[nodiscard]] BitRow random_row(std::uint32_t width, std::uint64_t seed) {
  Rng rng(seed);
  BitRow row(width);
  for (std::uint32_t i = 0; i < width; ++i)
    if (rng.bernoulli(0.5)) row.set(i);
  return row;
}

std::vector<PrimitiveResult> bench_primitives(bool smoke) {
  const std::size_t repeats = smoke ? 5 : 25;
  std::vector<PrimitiveResult> out;
  for (const std::uint32_t width : std::vector<std::uint32_t>{64, 256, 1024}) {
    const BitRow row = random_row(width, width);
    const OccupancyGrid grid =
        qrm::bench::workload(static_cast<std::int32_t>(width), /*seed=*/width);
    const Region centre = centered_square(static_cast<std::int32_t>(width),
                                          static_cast<std::int32_t>(width) / 2);
    const OccupancyGrid content = grid.subgrid(centre);
    // Scale per-call iterations so each primitive's sample stays ~O(100us).
    const std::size_t iters = (smoke ? 64u : 256u) * 1024u / width;

    out.push_back({"count_range", width,
                   time_ns(repeats, iters, [&] { return row.count_range(1, width - 1); }),
                   time_ns(repeats, iters, [&] { return ref::count_range(row, 1, width - 1); })});

    // 2D kernels touch width^2 bits; divide the per-sample iterations again.
    const std::size_t iters2d = std::max<std::size_t>(1, iters * 8 / width);
    out.push_back({"subgrid", width, time_ns(repeats, iters2d, [&] { return grid.subgrid(centre); }),
                   time_ns(repeats, iters2d, [&] { return ref::subgrid(grid, centre); })});
    out.push_back({"subgrid_mirrored", width,
                   time_ns(repeats, iters2d,
                           [&] { return grid.subgrid(centre, Flip::Rotate180); }),
                   time_ns(repeats, iters2d, [&] {
                     return ref::flipped(ref::subgrid(grid, centre), Flip::Rotate180);
                   })});
    // Mutate persistent scratch grids so neither side's timing is dominated
    // by a per-iteration grid copy (set_subgrid is idempotent for fixed
    // inputs, so reuse is valid).
    OccupancyGrid scratch_fast = grid;
    OccupancyGrid scratch_naive = grid;
    out.push_back({"set_subgrid", width,
                   time_ns(repeats, iters2d,
                           [&] {
                             scratch_fast.set_subgrid(centre, content);
                             return scratch_fast.width();
                           }),
                   time_ns(repeats, iters2d, [&] {
                     for (std::int32_t r = 0; r < centre.rows; ++r)
                       for (std::int32_t c = 0; c < centre.cols; ++c)
                         scratch_naive.set({centre.row0 + r, centre.col0 + c},
                                           content.occupied({r, c}));
                     return scratch_naive.width();
                   })});
  }
  return out;
}

std::vector<PlanPoint> bench_plan(bool smoke, bool exhaustive) {
  // 50^2 (target 30) is the paper's configuration and perfbench's paper-50
  // shot, so every mode, smoke included, records it.
  const std::vector<std::int32_t> sizes =
      smoke        ? std::vector<std::int32_t>{50, 64, 128}
      : exhaustive ? std::vector<std::int32_t>{50, 64, 128, 256, 512, 1024}
                   : std::vector<std::int32_t>{50, 64, 128, 256};
  std::vector<PlanPoint> out;
  for (const std::int32_t size : sizes) {
    // Keep per-size runtime bounded: the big exhaustive points get one seed
    // and one repeat.
    const int seeds = size >= 512 ? 1 : (smoke ? 2 : 3);
    const std::size_t repeats = size >= 256 ? 1 : (smoke ? 2 : 3);
    PlanPoint point;
    point.size = size;
    point.target = qrm::bench::paper_target(size);
    QrmConfig config;
    config.target = centered_square(size, point.target);
    const QrmPlanner planner(config);
    std::vector<double> times;
    for (int s = 1; s <= seeds; ++s) {
      const OccupancyGrid grid = qrm::bench::workload(size, static_cast<std::uint64_t>(s));
      times.push_back(
          best_of_microseconds(repeats, [&] { benchmark::DoNotOptimize(planner.plan(grid)); }));
    }
    point.plan_us = stats::SortedSample(times).median();
    // One extra plan supplies the phase breakdown: PlanStats::timers is
    // measurement-only (excluded from PlanStats equality and from every
    // fingerprint), so probing it costs nothing downstream.
    const PlanResult probe = planner.plan(qrm::bench::workload(size, 1));
    point.pass_compute_us = probe.stats.timers.pass_compute_us;
    point.merge_us = probe.stats.timers.merge_us;
    point.realize_us = probe.stats.timers.realize_us;
    out.push_back(point);
    std::printf(
        "  plan %4dx%-4d -> %10.1f us/plan (%8.1f plans/sec)"
        "  [pass %.0f us, merge %.0f us, realize %.0f us]\n",
        size, size, point.plan_us, point.plans_per_sec(), point.pass_compute_us, point.merge_us,
        point.realize_us);
  }
  return out;
}

/// One size of the delta-vs-scratch replan axis: the same K-round sequence
/// of grids (each round flips a couple of NW-quadrant sites — the
/// quadrant-local damage shape the rearrangement loop settles into) planned
/// from scratch every round vs through a DeltaReplanner. Both produce
/// bit-identical plans (pinned by delta_replan_test); this measures only
/// the planning-time payoff of serving three clean quadrants from cache.
struct ReplanPoint {
  std::int32_t size = 0;
  std::int32_t rounds = 0;
  double scratch_us = 0.0;  ///< per-round, best-of-repeats over the sequence
  double delta_us = 0.0;
  std::uint64_t kernels_reused = 0;  ///< from one instrumented delta replay
  std::uint64_t kernels_computed = 0;
  [[nodiscard]] double speedup() const { return delta_us > 0.0 ? scratch_us / delta_us : 0.0; }
  [[nodiscard]] double rounds_per_sec(double us) const { return us > 0.0 ? 1e6 / us : 0.0; }
};

std::vector<ReplanPoint> bench_replan(bool smoke) {
  const std::vector<std::int32_t> sizes =
      smoke ? std::vector<std::int32_t>{64, 128} : std::vector<std::int32_t>{64, 128, 256};
  const std::int32_t rounds = 8;
  std::vector<ReplanPoint> out;
  for (const std::int32_t size : sizes) {
    const std::size_t repeats = size >= 256 ? 2 : (smoke ? 2 : 4);
    QrmConfig config;
    config.target = centered_square(size, qrm::bench::paper_target(size));

    // The round sequence models the loop's settled tail — the state delta
    // replanning exists for: the target is full except for a few defects in
    // its NW quarter, spare atoms sit in the NW quadrant outside the target,
    // and each round flips two more NW sites, so every delta replan sees
    // exactly one dirty quadrant. (A half-filled Bernoulli grid would bury
    // the payoff: there realization dominates plan time and always re-runs,
    // so kernel reuse cannot show.)
    const Region target = config.target;
    OccupancyGrid base(size, size);
    for (std::int32_t r = target.row0; r < target.row_end(); ++r)
      for (std::int32_t c = target.col0; c < target.col_end(); ++c) base.set({r, c}, true);
    Rng rng(static_cast<std::uint64_t>(size) * 131 + 5);
    for (int defect = 0; defect < 6; ++defect) {
      const Coord site{target.row0 + static_cast<std::int32_t>(rng.uniform_below(
                                         static_cast<std::uint32_t>(target.rows / 2))),
                       target.col0 + static_cast<std::int32_t>(rng.uniform_below(
                                         static_cast<std::uint32_t>(target.cols / 2)))};
      base.set(site, false);
    }
    for (int spare = 0; spare < 6; ++spare) {
      const Coord site{
          static_cast<std::int32_t>(rng.uniform_below(static_cast<std::uint32_t>(target.row0))),
          static_cast<std::int32_t>(rng.uniform_below(static_cast<std::uint32_t>(size / 2)))};
      base.set(site, true);
    }
    std::vector<OccupancyGrid> sequence;
    sequence.push_back(base);
    for (std::int32_t k = 1; k < rounds; ++k) {
      OccupancyGrid next = sequence.back();
      for (int flip = 0; flip < 2; ++flip) {
        const Coord site{
            static_cast<std::int32_t>(rng.uniform_below(static_cast<std::uint32_t>(size / 2))),
            static_cast<std::int32_t>(rng.uniform_below(static_cast<std::uint32_t>(size / 2)))};
        next.set(site, !next.occupied(site));
      }
      sequence.push_back(next);
    }

    ReplanPoint point;
    point.size = size;
    point.rounds = rounds;

    const QrmPlanner planner(config);
    point.scratch_us = best_of_microseconds(repeats, [&] {
                         for (const OccupancyGrid& grid : sequence)
                           benchmark::DoNotOptimize(planner.plan(grid));
                       }) /
                       rounds;

    DeltaReplanner replanner(config);
    point.delta_us = best_of_microseconds(repeats, [&] {
                       replanner.reset();  // every repeat replays the full sequence cold
                       for (const OccupancyGrid& grid : sequence)
                         benchmark::DoNotOptimize(replanner.plan(grid));
                     }) /
                     rounds;
    // Reuse counters of one replay (stats accumulate over the replanner's
    // lifetime; divide by the repeats actually run).
    const std::uint64_t replays = replanner.stats().plans / static_cast<std::uint64_t>(rounds);
    point.kernels_reused = replanner.stats().kernels_reused / replays;
    point.kernels_computed = replanner.stats().kernels_computed / replays;
    out.push_back(point);
    std::printf(
        "  replan %4dx%-4d scratch %9.1f us/round (%7.1f rounds/sec)"
        "  delta %9.1f us/round (%7.1f rounds/sec)  speedup %.2fx"
        "  [%llu kernels reused / %llu computed]\n",
        size, size, point.scratch_us, point.rounds_per_sec(point.scratch_us), point.delta_us,
        point.rounds_per_sec(point.delta_us), point.speedup(),
        static_cast<unsigned long long>(point.kernels_reused),
        static_cast<unsigned long long>(point.kernels_computed));
  }
  return out;
}

void write_json(const std::string& path, const std::string& mode,
                const std::vector<PrimitiveResult>& prims, const std::vector<PlanPoint>& plans,
                const std::vector<ReplanPoint>& replans) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  os << "{\n";
  os << "  \"bench\": \"planner_throughput\",\n";
  os << "  \"mode\": \"" << mode << "\",\n";
  os << "  \"primitives\": [\n";
  for (std::size_t i = 0; i < prims.size(); ++i) {
    const auto& p = prims[i];
    os << "    {\"name\": \"" << p.name << "\", \"width\": " << p.width
       << ", \"fast_ns\": " << p.fast_ns << ", \"naive_ns\": " << p.naive_ns
       << ", \"speedup\": " << p.speedup() << (i + 1 < prims.size() ? "},\n" : "}\n");
  }
  os << "  ],\n";
  os << "  \"plan\": [\n";
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const auto& p = plans[i];
    os << "    {\"size\": " << p.size << ", \"target\": " << p.target
       << ", \"plan_us\": " << p.plan_us
       << ", \"plans_per_sec\": " << p.plans_per_sec()
       << ", \"pass_compute_us\": " << p.pass_compute_us << ", \"merge_us\": " << p.merge_us
       << ", \"realize_us\": " << p.realize_us << (i + 1 < plans.size() ? "},\n" : "}\n");
  }
  os << "  ],\n";
  os << "  \"replan\": [\n";
  for (std::size_t i = 0; i < replans.size(); ++i) {
    const auto& p = replans[i];
    os << "    {\"size\": " << p.size << ", \"rounds\": " << p.rounds
       << ", \"scratch_us_per_round\": " << p.scratch_us
       << ", \"delta_us_per_round\": " << p.delta_us
       << ", \"scratch_rounds_per_sec\": " << p.rounds_per_sec(p.scratch_us)
       << ", \"delta_rounds_per_sec\": " << p.rounds_per_sec(p.delta_us)
       << ", \"speedup\": " << p.speedup() << ", \"kernels_reused\": " << p.kernels_reused
       << ", \"kernels_computed\": " << p.kernels_computed
       << (i + 1 < replans.size() ? "},\n" : "}\n");
  }
  os << "  ]\n";
  os << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool exhaustive = false;
  std::string out_path = "BENCH_planner.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--exhaustive") == 0) {
      exhaustive = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke|--exhaustive] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  qrm::bench::print_header("Planner throughput: word-parallel core vs naive reference",
                           "perf trajectory baseline (ROADMAP north star)");

  std::printf("\nPrimitive kernels (ns/op, best-of-%s):\n", smoke ? "smoke" : "full");
  const auto prims = bench_primitives(smoke);
  TextTable table({"primitive", "width", "word-parallel", "naive", "speedup"});
  for (const auto& p : prims) {
    table.add_row({p.name, std::to_string(p.width), fmt_time_us(p.fast_ns / 1e3),
                   fmt_time_us(p.naive_ns / 1e3), fmt_speedup(p.speedup())});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("End-to-end plan_qrm (Bernoulli %.2f load, %s sizes):\n", qrm::bench::kFill,
              smoke ? "smoke" : (exhaustive ? "exhaustive" : "full"));
  const auto plans = bench_plan(smoke, exhaustive);

  std::printf("\nDelta replanning (quadrant-local damage, %d-round sequences):\n", 8);
  const auto replans = bench_replan(smoke);

  write_json(out_path, smoke ? "smoke" : (exhaustive ? "exhaustive" : "full"), prims, plans,
             replans);
  std::printf("\nwrote %s\n", out_path.c_str());

  // Guard the acceptance bar: the word-parallel primitives must hold >= 4x
  // over the naive reference at 1024-bit width. Failing loudly here keeps the
  // perf trajectory honest (a silent regression would still upload JSON).
  bool ok = true;
  for (const auto& p : prims) {
    if (p.width == 1024 &&
        (p.name == "subgrid" || p.name == "subgrid_mirrored" || p.name == "count_range") &&
        p.speedup() < 4.0) {
      std::fprintf(stderr, "FAIL: %s @%u speedup %.1fx < 4x\n", p.name.c_str(), p.width,
                   p.speedup());
      ok = false;
    }
  }
  // Whole-plan acceptance bar: >= 10 plans/sec at 256^2. Smoke mode skips
  // the 256^2 size entirely, so the gate is full-mode only.
  for (const auto& p : plans) {
    if (p.size == 256 && p.plans_per_sec() < 10.0) {
      std::fprintf(stderr, "FAIL: plan 256^2 at %.2f plans/sec < 10\n", p.plans_per_sec());
      ok = false;
    }
  }
  // Delta acceptance bar: on the quadrant-local workload, reusing three of
  // four quadrant kernels must actually buy rounds/sec at 256^2 (merge +
  // realize still re-run, so the bound is the pass-compute share, not 4x).
  // Smoke mode stops at 128^2, where the sequence is too cheap to gate on.
  for (const auto& p : replans) {
    if (p.size == 256 && p.speedup() < 1.05) {
      std::fprintf(stderr, "FAIL: delta replan 256^2 speedup %.2fx < 1.05x\n", p.speedup());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
