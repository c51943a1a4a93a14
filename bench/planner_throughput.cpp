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
///     runs the word reversal), set_subgrid (the CPU reference's
///     write-back) and load_random (a width x width draw, built a word at a
///     time, vs one set() per site).
///  2. End-to-end: QrmPlanner plans/sec across grid sizes (50^2 .. 1024^2)
///     on the paper's Bernoulli-loading workload, with the PlanStats phase
///     breakdown (pass compute / merge / realize) of the timed plans, the
///     heap allocations of seed 1's plan, counted by this binary's operator
///     new, and the bytes its schedule holds (Schedule::bytes,
///     deterministic). Each size also gets a lossy_execute row: ns per site
///     of one lossy round (rt::apply_lossy_schedule) on that plan, its
///     line-form commands against their site-form copy, on the same loss
///     seed.
///  3. Camera render: us per frame of render_image against its per-draw
///     reference (one poisson() call per background pixel), at 50^2 with
///     200 photons per atom and 24^2 with 24, on the same atoms and seeds;
///     every frame pair must be identical bit for bit.
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
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <span>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/planner.hpp"
#include "detection/image.hpp"
#include "lattice/gridref.hpp"
#include "runtime/rearrangement_loop.hpp"
#include "util/bitref.hpp"
#include "util/rng.hpp"

namespace {

/// Heap allocations so far, counted by the operator new below.
std::atomic<std::uint64_t> g_heap_allocs{0};

}  // namespace

// This operator new allocates with malloc, so free is the matching release;
// GCC cannot see that once it inlines these into the standard allocator.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

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
  /// Phase breakdown (PlanStats::timers) of the plans plan_us took its time
  /// from: the quadrant kernels' pass compute, the merge, and the realize
  /// tail. Their sum is at most plan_us.
  double pass_compute_us = 0.0;
  double merge_us = 0.0;
  double realize_us = 0.0;
  /// Heap allocations of seed 1's plan: deterministic for a given build.
  std::uint64_t heap_allocs = 0;
  /// Bytes its schedule holds: deterministic.
  std::size_t schedule_bytes = 0;
  [[nodiscard]] double plans_per_sec() const { return plan_us > 0.0 ? 1e6 / plan_us : 0.0; }
};

/// One lossy round on one size's plan: its line-form commands against
/// their site-form copy (the per-site reference path), same loss seed.
struct ExecutePoint {
  std::int32_t size = 0;
  std::size_t sites = 0;  ///< sites of the plan's schedule
  double line_ns = 0.0;   ///< per site, best-of-repeats
  double site_ns = 0.0;
  [[nodiscard]] double speedup() const { return line_ns > 0.0 ? site_ns / line_ns : 0.0; }
};

/// One frame size of the camera render: render_image against the per-draw
/// reference on the same atoms and seeds.
struct RenderPoint {
  std::int32_t size = 0;
  double photons = 0.0;
  double render_us = 0.0;  ///< per frame, best over the interleaved reps
  double per_draw_us = 0.0;
  bool identical = true;  ///< every rep's two frames equal bit for bit
  [[nodiscard]] double speedup() const { return render_us > 0.0 ? per_draw_us / render_us : 0.0; }
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

/// load_random as one set() per site: the per-bit reference of the word
/// loader, drawing the same values in the same order.
[[nodiscard]] OccupancyGrid load_random_per_bit(std::int32_t height, std::int32_t width,
                                                const LoaderConfig& config) {
  OccupancyGrid grid(height, width);
  Rng rng(config.seed);
  for (std::int32_t r = 0; r < height; ++r)
    for (std::int32_t c = 0; c < width; ++c)
      if (rng.bernoulli(config.fill_probability)) grid.set({r, c});
  return grid;
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
    // A fresh seed per draw, the same seeds on both sides: a repeated seed
    // would let the branch predictor learn the per-bit loop's outcomes.
    const auto side = static_cast<std::int32_t>(width);
    std::uint64_t seed = 0;
    const double load_fast_ns = time_ns(repeats, iters2d, [&] {
      return load_random(side, side, {qrm::bench::kFill, ++seed});
    });
    seed = 0;
    out.push_back({"load_random", width, load_fast_ns, time_ns(repeats, iters2d, [&] {
                     return load_random_per_bit(side, side, {qrm::bench::kFill, ++seed});
                   })});
  }
  return out;
}

/// `schedule` with every command in site form.
[[nodiscard]] Schedule site_form(const Schedule& schedule) {
  Schedule out;
  for (const ParallelMove& move : schedule.moves()) out.push_back(move);
  return out;
}

/// ns per site of one lossy round of `schedule` on a copy of `grid`, the
/// grid it was planned on (so every site moves), at the default loss rate.
[[nodiscard]] double lossy_round_ns(const OccupancyGrid& grid, const Schedule& schedule,
                                    std::size_t repeats) {
  const std::size_t sites = std::max<std::size_t>(1, schedule.stats().atom_moves);
  const std::size_t iters = std::max<std::size_t>(1, 200000 / sites);
  const DeadChannelMask none;
  const double us = best_of_microseconds(repeats, [&] {
    for (std::size_t i = 0; i < iters; ++i) {
      OccupancyGrid world = grid;
      Rng rng(0xA70B1055);
      benchmark::DoNotOptimize(
          rt::apply_lossy_schedule(world, schedule, rng, rt::LossModel{}.per_move_loss, none));
      benchmark::DoNotOptimize(world);
    }
  });
  return us * 1e3 / static_cast<double>(iters * sites);
}

/// The fastest of `repeats` plans of one grid, with that plan's own phase
/// split (PlanStats::timers, which no fingerprint or equality reads).
struct TimedPlan {
  double us = 1e300;
  PhaseTimers timers;
};

[[nodiscard]] TimedPlan best_plan(const QrmPlanner& planner, const OccupancyGrid& grid,
                                  std::size_t repeats) {
  TimedPlan best;
  for (std::size_t i = 0; i < repeats; ++i) {
    const Stopwatch watch;
    const PhaseTimers timers = planner.plan(grid).stats.timers;
    const double us = watch.elapsed_microseconds();
    if (us < best.us) best = {us, timers};
  }
  return best;
}

std::vector<PlanPoint> bench_plan(bool smoke, bool exhaustive,
                                  std::vector<ExecutePoint>& executes) {
  // 50^2 (target 30) is the paper's configuration and perfbench's paper-50
  // shot, so every mode, smoke included, records it.
  const std::vector<std::int32_t> sizes =
      smoke        ? std::vector<std::int32_t>{50, 64, 128}
      : exhaustive ? std::vector<std::int32_t>{50, 64, 128, 256, 512, 1024}
                   : std::vector<std::int32_t>{50, 64, 128, 256};
  std::vector<PlanPoint> out;
  for (const std::int32_t size : sizes) {
    // Keep per-size runtime bounded: the big exhaustive points get one seed
    // and one repeat. 256^2 plans differ by 30 % run to run on a shared
    // host, so they take the best of 5 per seed.
    const int seeds = size >= 512 ? 1 : (smoke ? 2 : 3);
    const std::size_t repeats = size >= 512 ? 1 : size >= 256 ? 5 : (smoke ? 2 : 3);
    PlanPoint point;
    point.size = size;
    point.target = qrm::bench::paper_target(size);
    QrmConfig config;
    config.target = centered_square(size, point.target);
    const QrmPlanner planner(config);
    std::vector<TimedPlan> timed;
    for (int s = 1; s <= seeds; ++s) {
      const OccupancyGrid grid = qrm::bench::workload(size, static_cast<std::uint64_t>(s));
      timed.push_back(best_plan(planner, grid, repeats));
    }
    // The median seed's plan, or the mean of the middle two: plan_us and the
    // phases come from the same plans, so the phases never exceed plan_us.
    std::sort(timed.begin(), timed.end(),
              [](const TimedPlan& a, const TimedPlan& b) { return a.us < b.us; });
    const TimedPlan& lo = timed[(timed.size() - 1) / 2];
    const TimedPlan& hi = timed[timed.size() / 2];
    point.plan_us = (lo.us + hi.us) / 2.0;
    point.pass_compute_us = (lo.timers.pass_compute_us + hi.timers.pass_compute_us) / 2.0;
    point.merge_us = (lo.timers.merge_us + hi.timers.merge_us) / 2.0;
    point.realize_us = (lo.timers.realize_us + hi.timers.realize_us) / 2.0;
    // Seed 1's plan once more supplies the deterministic columns and the
    // lossy_execute row's schedule.
    const OccupancyGrid probe_grid = qrm::bench::workload(size, 1);
    const std::uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
    const PlanResult probe = planner.plan(probe_grid);
    point.heap_allocs = g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
    point.schedule_bytes = probe.schedule.bytes();
    out.push_back(point);
    std::printf(
        "  plan %4dx%-4d -> %10.1f us/plan (%8.1f plans/sec)"
        "  [pass %.0f us, merge %.0f us, realize %.0f us]  %llu heap allocs, %zu schedule bytes\n",
        size, size, point.plan_us, point.plans_per_sec(), point.pass_compute_us, point.merge_us,
        point.realize_us, static_cast<unsigned long long>(point.heap_allocs),
        point.schedule_bytes);

    ExecutePoint execute;
    execute.size = size;
    execute.sites = probe.schedule.stats().atom_moves;
    const std::size_t execute_repeats = smoke ? 5 : 15;
    const Schedule by_site = site_form(probe.schedule);
    execute.line_ns = lossy_round_ns(probe_grid, probe.schedule, execute_repeats);
    execute.site_ns = lossy_round_ns(probe_grid, by_site, execute_repeats);
    executes.push_back(execute);
  }
  return out;
}

/// render_image with one poisson() call per background pixel: the per-draw
/// reference of its one poisson_fill run, drawing the same counts in the
/// same order.
[[nodiscard]] FluorescenceImage render_per_draw(const OccupancyGrid& atoms,
                                                const ImagingConfig& config) {
  const std::int32_t pps = config.pixels_per_site;
  FluorescenceImage image(atoms.height() * pps, atoms.width() * pps);
  Rng rng(config.seed);
  const PoissonRate background(config.background_photons);
  for (std::int32_t r = 0; r < image.height(); ++r)
    for (double& pixel : image.row(r)) pixel = rng.poisson(background);

  const double sigma = config.psf_sigma_px;
  const double reach = std::max(image.height(), image.width());
  const auto radius = static_cast<std::int32_t>(std::min(std::ceil(3.0 * sigma), reach));
  const std::int32_t side = 2 * radius + 1;
  const double norm = 1.0 / (2.0 * 3.14159265358979323846 * sigma * sigma);
  const double centre = 0.5 * pps;
  const std::int32_t centre_px = pps / 2;
  std::vector<PoissonRate> taps;
  for (std::int32_t dr = -radius; dr <= radius; ++dr) {
    for (std::int32_t dc = -radius; dc <= radius; ++dc) {
      const double dy = (static_cast<double>(centre_px + dr) + 0.5) - centre;
      const double dx = (static_cast<double>(centre_px + dc) + 0.5) - centre;
      const double weight = norm * std::exp(-(dx * dx + dy * dy) / (2.0 * sigma * sigma));
      taps.emplace_back(config.photons_per_atom * weight);
    }
  }
  for (const Coord& site : atoms.atom_positions()) {
    const std::int32_t cr = site.row * pps + centre_px;
    const std::int32_t cc = site.col * pps + centre_px;
    const std::int32_t dr_hi = std::min(radius, image.height() - 1 - cr);
    const std::int32_t dc_lo = std::max(-radius, -cc);
    const std::int32_t dc_hi = std::min(radius, image.width() - 1 - cc);
    for (std::int32_t dr = std::max(-radius, -cr); dr <= dr_hi; ++dr) {
      const std::span<double> pixels = image.row(cr + dr);
      const std::span<const PoissonRate> row_taps(taps.data() + (dr + radius) * side, side);
      for (std::int32_t dc = dc_lo; dc <= dc_hi; ++dc)
        pixels[cc + dc] += rng.poisson(row_taps[radius + dc]);
    }
  }
  return image;
}

std::vector<RenderPoint> bench_render(bool smoke) {
  // 50^2 at 200 photons per atom is perfbench's paper-50 frame; 24^2 at 24
  // (fill 0.6) is the registry's imaged-detection scenario.
  struct Frame {
    std::int32_t size;
    double fill;
    double photons;
  };
  const Frame frames[] = {{50, qrm::bench::kFill, 200.0}, {24, 0.6, 24.0}};
  const int reps = smoke ? 10 : 30;
  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  std::vector<RenderPoint> out;
  for (const Frame& frame : frames) {
    RenderPoint point;
    point.size = frame.size;
    point.photons = frame.photons;
    point.render_us = point.per_draw_us = 1e300;
    const OccupancyGrid atoms = load_random(frame.size, frame.size, {frame.fill, 1});
    ImagingConfig config;
    config.photons_per_atom = frame.photons;
    for (int rep = 0; rep < reps; ++rep) {
      // A fresh seed per rep, the same on both sides, and the sides take
      // turns going first.
      config.seed = static_cast<std::uint64_t>(rep) + 1;
      FluorescenceImage fast;
      FluorescenceImage per_draw;
      for (int turn = 0; turn < 2; ++turn) {
        const Stopwatch watch;
        if ((rep + turn) % 2 == 0) {
          fast = render_image(atoms, config);
          point.render_us = std::min(point.render_us, watch.elapsed_microseconds());
        } else {
          per_draw = render_per_draw(atoms, config);
          point.per_draw_us = std::min(point.per_draw_us, watch.elapsed_microseconds());
        }
      }
      point.identical =
          point.identical && std::ranges::equal(fast.pixels(), per_draw.pixels(), same_bits);
    }
    out.push_back(point);
  }
  return out;
}

void write_json(const std::string& path, const std::string& mode,
                const std::vector<PrimitiveResult>& prims, const std::vector<PlanPoint>& plans,
                const std::vector<ExecutePoint>& executes,
                const std::vector<RenderPoint>& renders) {
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
       << ", \"realize_us\": " << p.realize_us << ", \"heap_allocs\": " << p.heap_allocs
       << ", \"schedule_bytes\": " << p.schedule_bytes
       << (i + 1 < plans.size() ? "},\n" : "}\n");
  }
  os << "  ],\n";
  os << "  \"lossy_execute\": [\n";
  for (std::size_t i = 0; i < executes.size(); ++i) {
    const auto& p = executes[i];
    os << "    {\"size\": " << p.size << ", \"sites\": " << p.sites
       << ", \"line_ns_per_site\": " << p.line_ns << ", \"site_ns_per_site\": " << p.site_ns
       << ", \"speedup\": " << p.speedup() << (i + 1 < executes.size() ? "},\n" : "}\n");
  }
  os << "  ],\n";
  os << "  \"render\": [\n";
  for (std::size_t i = 0; i < renders.size(); ++i) {
    const auto& p = renders[i];
    os << "    {\"size\": " << p.size << ", \"photons_per_atom\": " << p.photons
       << ", \"render_us\": " << p.render_us << ", \"per_draw_us\": " << p.per_draw_us
       << ", \"speedup\": " << p.speedup()
       << ", \"identical\": " << (p.identical ? "true" : "false")
       << (i + 1 < renders.size() ? "},\n" : "}\n");
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
  std::vector<ExecutePoint> executes;
  const auto plans = bench_plan(smoke, exhaustive, executes);

  std::printf("\nLossy round on each plan (ns/site, line form vs its site-form copy):\n");
  TextTable execute_table({"grid", "sites", "line form", "site form", "speedup"});
  for (const auto& p : executes) {
    execute_table.add_row({std::to_string(p.size) + "x" + std::to_string(p.size),
                           std::to_string(p.sites), fmt_time_us(p.line_ns / 1e3),
                           fmt_time_us(p.site_ns / 1e3), fmt_speedup(p.speedup())});
  }
  std::printf("%s\n", execute_table.render().c_str());

  std::printf("\nCamera render (us/frame, best of interleaved reps, vs the per-draw loop):\n");
  const auto renders = bench_render(smoke);
  TextTable render_table({"frame", "photons/atom", "render_image", "per-draw", "speedup",
                          "identical"});
  for (const auto& p : renders) {
    render_table.add_row({std::to_string(p.size) + "x" + std::to_string(p.size),
                          fmt_double(p.photons, 0), fmt_time_us(p.render_us),
                          fmt_time_us(p.per_draw_us), fmt_speedup(p.speedup()),
                          p.identical ? "yes" : "NO"});
  }
  std::printf("%s\n", render_table.render().c_str());

  write_json(out_path, smoke ? "smoke" : (exhaustive ? "exhaustive" : "full"), prims, plans,
             executes, renders);
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
  // The render's background run must draw exactly what poisson() draws.
  for (const auto& p : renders) {
    if (!p.identical) {
      std::fprintf(stderr, "FAIL: render %dx%d frames differ from the per-draw reference\n",
                   p.size, p.size);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
