// Campaign throughput: the smoke registry subset across a workers axis, two
// plan-cache A/Bs (Pattern workloads, the cache's best case, and the smoke
// registry, mostly misses), and google-benchmark timings of the scenario
// plumbing itself (parse + sweep expansion), which must stay negligible
// next to planning. The tables double as determinism checks: the campaign
// fingerprint must not vary with the worker count or the cache mode.
//
// Writes machine-readable BENCH_scenario.json (override with --out PATH)
// and exits non-zero if a fingerprint differs, or if the plan cache fails
// its acceptance bar on Pattern scenarios: >0 hit rate and a median
// cache-on wall time strictly below cache-off.

#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "bench_common.hpp"
#include "scenario/campaign.hpp"
#include "scenario/registry.hpp"

namespace {

using namespace qrm;
using namespace qrm::bench;

std::vector<std::uint32_t> worker_sweep() {
  std::vector<std::uint32_t> sweep = {1, 2};
  const std::uint32_t hw = ThreadPool::resolve_workers(0);
  if (hw > 2) sweep.push_back(hw);
  return sweep;
}

struct AxisPoint {
  std::uint32_t workers = 1;
  double wall_us = 0.0;
  double shots_per_sec = 0.0;
  double cache_hit_rate = 0.0;
  std::uint64_t fingerprint = 0;
};

std::vector<AxisPoint> bench_worker_axis() {
  print_header("Scenario campaign throughput — smoke registry, workers",
               "ROADMAP north star: scenario diversity at production scale");

  std::vector<AxisPoint> points;
  TextTable table({"workers", "scenarios", "shots", "wall", "shots/s", "speedup", "cache hit",
                   "fingerprint"});
  double base_wall = 0.0;
  for (const std::uint32_t workers : worker_sweep()) {
    scenario::CampaignConfig config;
    config.exec.workers = workers;
    config.filter = "smoke";
    const scenario::CampaignReport report =
        scenario::CampaignRunner(config).run(scenario::registry());

    std::size_t shots = 0;
    for (const scenario::ScenarioOutcome& outcome : report.scenarios)
      shots += outcome.batch.shots.size();
    if (points.empty()) base_wall = report.wall_us;

    AxisPoint point;
    point.workers = report.workers;
    point.wall_us = report.wall_us;
    point.shots_per_sec = static_cast<double>(shots) / (report.wall_us * 1e-6);
    point.cache_hit_rate = report.plan_cache.hit_rate();
    point.fingerprint = report.fingerprint();
    points.push_back(point);

    table.add_row({std::to_string(point.workers), std::to_string(report.scenarios.size()),
                   std::to_string(shots), fmt_time_us(point.wall_us),
                   fmt_double(point.shots_per_sec), fmt_speedup(base_wall / point.wall_us),
                   fmt_percent(point.cache_hit_rate), scenario::hex_text(point.fingerprint)});
  }
  std::printf("%s", table.render().c_str());
  return points;
}

struct CacheAb {
  double off_wall_us = 0.0;  ///< median over kCacheAbRuns
  double on_wall_us = 0.0;   ///< median over kCacheAbRuns
  std::uint64_t hits = 0;    ///< of the last cache-on run
  std::uint64_t misses = 0;
  double hit_rate = 0.0;
  bool fingerprints_match = true;  ///< every run, either side, gave one fingerprint

  [[nodiscard]] double speedup() const { return on_wall_us > 0.0 ? off_wall_us / on_wall_us : 0.0; }
};

/// Runs per side of a cache A/B: with a single run per side, one slow
/// period of a shared host could decide the comparison.
constexpr int kCacheAbRuns = 5;

/// Cache off against cache on over `specs`: kCacheAbRuns runs per side,
/// alternating which side goes first, each side timed by its median run.
CacheAb cache_ab(const std::vector<scenario::ScenarioSpec>& specs,
                 scenario::CampaignConfig config, const std::string& title) {
  CacheAb ab;
  std::vector<double> off_wall;
  std::vector<double> on_wall;
  std::optional<std::uint64_t> fingerprint;
  for (int run = 0; run < kCacheAbRuns; ++run) {
    // Even runs go off then on, odd runs on then off.
    for (const bool cached : {run % 2 == 1, run % 2 == 0}) {
      config.plan_cache = cached;
      const scenario::CampaignReport report = scenario::CampaignRunner(config).run(specs);
      (cached ? on_wall : off_wall).push_back(report.wall_us);
      if (!fingerprint) fingerprint = report.fingerprint();
      ab.fingerprints_match = ab.fingerprints_match && report.fingerprint() == *fingerprint;
      if (cached) {
        ab.hits = report.plan_cache.hits;
        ab.misses = report.plan_cache.misses;
        ab.hit_rate = report.plan_cache.hit_rate();
      }
    }
  }
  ab.off_wall_us = stats::SortedSample(off_wall).median();
  ab.on_wall_us = stats::SortedSample(on_wall).median();

  print_header(title, "ROADMAP: plan caching keyed on scenario fingerprint");
  TextTable table({"cache", "wall (median of " + std::to_string(kCacheAbRuns) + ")", "speedup",
                   "hits", "misses", "hit rate", "fingerprint ok"});
  table.add_row({"off", fmt_time_us(ab.off_wall_us), "1.00x", "-", "-", "-", "-"});
  table.add_row({"on", fmt_time_us(ab.on_wall_us), fmt_speedup(ab.speedup()),
                 std::to_string(ab.hits), std::to_string(ab.misses), fmt_percent(ab.hit_rate),
                 ab.fingerprints_match ? "yes" : "NO"});
  std::printf("%s", table.render().c_str());
  return ab;
}

/// Pattern workloads replan the identical grid on every shot's first round
/// — the cache's best case. 32 shots of three 64x64 patterns makes
/// planning dominate.
CacheAb bench_pattern_cache() {
  std::vector<scenario::ScenarioSpec> specs;
  for (const Pattern pattern : {Pattern::Checkerboard, Pattern::RowStripes, Pattern::Border}) {
    scenario::ScenarioSpec spec;
    spec.name = std::string("bench-pattern-") + scenario::to_cstring(pattern);
    spec.load = scenario::LoadProfile::Pattern;
    spec.pattern = pattern;
    spec.grid_height = spec.grid_width = 64;
    spec.shots = 32;
    spec.max_rounds = 4;
    specs.push_back(spec);
  }
  scenario::CampaignConfig config;
  config.exec.workers = ThreadPool::resolve_workers(0);
  return cache_ab(specs, config, "Plan cache A/B — Pattern scenarios (identical per-shot grids)");
}

/// The smoke registry on one worker: mostly random loads, so about a fifth
/// of the lookups hit and most plans pay the miss path. One worker keeps
/// the hit and miss counts those of scenario_runner's smoke run.
CacheAb bench_smoke_cache() {
  scenario::CampaignConfig config;
  config.exec.workers = 1;
  config.filter = "smoke";
  return cache_ab(scenario::registry(), config,
                  "Plan cache A/B — smoke registry, 1 worker (random loads)");
}

void write_cache_ab(std::ostream& os, const char* key, const char* workload, const CacheAb& ab) {
  os << "  \"" << key << "\": {\"workload\": \"" << workload
     << "\", \"runs_per_side\": " << kCacheAbRuns << ", \"cache_off_wall_us\": "
     << ab.off_wall_us << ", \"cache_on_wall_us\": " << ab.on_wall_us
     << ", \"speedup\": " << ab.speedup() << ", \"hits\": " << ab.hits
     << ", \"misses\": " << ab.misses << ", \"hit_rate\": " << ab.hit_rate
     << ", \"fingerprints_match\": " << (ab.fingerprints_match ? "true" : "false") << "}";
}

void write_json(const std::string& path, const std::vector<AxisPoint>& axis,
                const CacheAb& pattern, const CacheAb& smoke) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  os << "{\n";
  os << "  \"bench\": \"scenario_campaign\",\n";
  os << "  \"worker_axis\": [\n";
  for (std::size_t i = 0; i < axis.size(); ++i) {
    const AxisPoint& p = axis[i];
    os << "    {\"workers\": " << p.workers
       << ", \"wall_us\": " << p.wall_us << ", \"shots_per_sec\": " << p.shots_per_sec
       << ", \"cache_hit_rate\": " << p.cache_hit_rate << ", \"fingerprint\": \""
       << scenario::hex_text(p.fingerprint) << "\"}" << (i + 1 < axis.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  write_cache_ab(os, "plan_cache", "3x pattern 64x64, 32 shots", pattern);
  os << ",\n";
  write_cache_ab(os, "plan_cache_smoke", "smoke registry, 1 worker", smoke);
  os << "\n}\n";
}

void BM_ParseRegistryEntry(benchmark::State& state) {
  const std::string text = scenario::serialize(scenario::registry().front());
  for (auto _ : state) {
    const scenario::ScenarioSpec spec = scenario::parse_scenario(text);
    benchmark::DoNotOptimize(spec);
  }
}
BENCHMARK(BM_ParseRegistryEntry);

void BM_ExpandGridSweep(benchmark::State& state) {
  const std::string sweep =
      "name=bench\ngrid=16..256 step 16\nfill=0.5,0.6\nshots=4\n";
  for (auto _ : state) {
    const std::vector<scenario::ScenarioSpec> specs = scenario::expand_sweeps(sweep);
    benchmark::DoNotOptimize(specs);
  }
}
BENCHMARK(BM_ExpandGridSweep);

void BM_SmokeScenarioEndToEnd(benchmark::State& state) {
  scenario::CampaignConfig config;
  config.exec.workers = static_cast<std::uint32_t>(state.range(0));
  const scenario::CampaignRunner runner(config);
  const scenario::ScenarioSpec& spec = scenario::find_scenario("smoke-uniform");
  for (auto _ : state) {
    const scenario::ScenarioOutcome outcome = runner.run_one(spec);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_SmokeScenarioEndToEnd)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_scenario.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[i + 1];
      // Hide the flag from google-benchmark's own argv scan.
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      break;
    }
  }

  const std::vector<AxisPoint> axis = bench_worker_axis();
  const CacheAb ab = bench_pattern_cache();
  const CacheAb smoke = bench_smoke_cache();
  write_json(out_path, axis, ab, smoke);
  std::printf("\nwrote %s\n", out_path.c_str());

  run_benchmarks(argc, argv);

  // Acceptance bar: the worker axis must agree on one fingerprint, and the
  // cache must both hit and win median wall time on Pattern scenarios.
  // Checked after the JSON write so a failure still uploads the numbers.
  bool ok = true;
  for (const AxisPoint& p : axis) {
    if (p.fingerprint != axis.front().fingerprint) {
      std::fprintf(stderr, "FAIL: fingerprint varies across the workers axis\n");
      ok = false;
      break;
    }
  }
  if (!ab.fingerprints_match) {
    std::fprintf(stderr, "FAIL: plan cache changed the campaign fingerprint\n");
    ok = false;
  }
  // The smoke A/B is a measurement of the miss path; it gates only on
  // outcomes.
  if (!smoke.fingerprints_match) {
    std::fprintf(stderr, "FAIL: plan cache changed the smoke campaign fingerprint\n");
    ok = false;
  }
  if (ab.hits == 0) {
    std::fprintf(stderr, "FAIL: plan cache never hit on Pattern scenarios\n");
    ok = false;
  }
  if (ab.on_wall_us >= ab.off_wall_us) {
    std::fprintf(stderr, "FAIL: cache-on wall %.1f us not below cache-off %.1f us\n",
                 ab.on_wall_us, ab.off_wall_us);
    ok = false;
  }
  return ok ? 0 : 1;
}
