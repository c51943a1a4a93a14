/// \file main.cpp
/// qrm_perfbench: the repository benchmark.
///
///   qrm_perfbench --workload paper-50|large-256|campaign-mix --seed N
///                 --seconds S --trace 0|1 [--commit ID]
///   qrm_perfbench --self-test
///
/// One run sets the workload up, runs one warm-up operation, then times
/// operations with tracing off for S seconds, setting the workload up again
/// at even intervals between them (set-up time is the median). With
/// --trace 0 it then runs an instrumented pass over a fixed prefix of the
/// same operations for the deterministic end-to-end metrics
/// (success rate, modelled AOD time, modelled accelerator latency) and
/// prints the end-to-end metrics. With --trace 1 it instead runs a traced
/// pass over the same operations for S/3 seconds, writes its spans, and
/// prints the per-layer metrics. Both modes check the outputs (see
/// NOTES.md) and print, as the last line, one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// The exit code is non-zero when a check fails.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "trace.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double mean(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : sum(xs) / static_cast<double>(xs.size());
}

double sum(const std::vector<double>& xs) {
  double total = 0.0;
  for (const double x : xs) total += x;
  return total;
}

const std::vector<double>& sample(const Samples& samples, const char* key) {
  static const std::vector<double> empty;
  const auto it = samples.find(key);
  return it == samples.end() ? empty : it->second;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (rank - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double grouped_median(std::vector<double> xs, double interval) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double x = xs[xs.size() / 2];
  const auto below = std::lower_bound(xs.begin(), xs.end(), x) - xs.begin();
  const auto at = std::upper_bound(xs.begin(), xs.end(), x) - xs.begin() - below;
  return x - interval / 2.0 +
         interval * (static_cast<double>(xs.size()) / 2.0 - static_cast<double>(below)) /
             static_cast<double>(at);
}

namespace {

using Clock = std::chrono::steady_clock;

// Thresholds the run applies; printed in the header.
constexpr std::size_t kSetupRepeats = 9;
constexpr std::size_t kMinTailOps = 10;      ///< operations beyond p90
constexpr std::size_t kMinOps = kMinTailOps * 10;
constexpr double kMinCoverage = 0.95;
constexpr std::uint32_t kCampaignWorkers = 4;
constexpr double kPaperAccelUs = 1.0;  ///< the paper's analysis time for 50x50 -> 30x30
constexpr const char* kTraceDir = ".bench_build/traces";  ///< relative to the checkout root

/// Every per-layer metric, in output order, with its unit. A metric a
/// workload does not measure is printed as 0 and listed on the run's
/// `not-measured:` line.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"loading.draw_ms", "ms"},
    {"detection.render_ms", "ms"},
    {"detection.detect_ms", "ms"},
    {"detection.compare_ms", "ms"},
    {"detection.errors_per_shot", "count"},
    {"core.plan_ms_p50", "ms"},
    {"core.plan_ms_p90", "ms"},
    {"core.first_plan_ms", "ms"},
    {"core.init_ms", "ms"},
    {"core.next_ms", "ms"},
    {"core.apply_ms", "ms"},
    {"core.take_result_ms", "ms"},
    {"core.untraced_ms", "ms"},
    {"core.coverage", "ratio"},
    {"core.passes", "count"},
    {"core.replan_ms", "ms"},
    {"moves.legalize_ms", "ms"},
    {"moves.commands_per_plan", "count"},
    {"moves.sites_per_plan", "count"},
    {"moves.commands_per_unit_round", "ratio"},
    {"moves.schedule_mb", "MB"},
    {"runtime.execute_ms", "ms"},
    {"runtime.rounds_per_shot", "count"},
    {"runtime.atoms_lost_per_shot", "count"},
    {"hwmodel.total_cycles", "count"},
    {"hwmodel.pass_occupancy", "ratio"},
    {"hwmodel.run_ms", "ms"},
    {"exec.cache_hits", "count"},
    {"exec.cache_misses", "count"},
    {"exec.cache_hit_rate", "ratio"},
    {"exec.delta_reuse_ratio", "ratio"},
    {"batch.untraced_ms", "ms"},
    {"batch.coverage", "ratio"},
    {"batch.fanout_speedup", "ratio"},
    {"batch.op_ms_p90", "ms"},
    {"scenario.parse_ms", "ms"},
    {"scenario.run_one_ms", "ms"},
    {"scenario.untraced_ms", "ms"},
    {"scenario.coverage", "ratio"},
    {"trace.untraced_shots_per_s", "1/s"},
    {"trace.traced_shots_per_s", "1/s"},
    {"trace.overhead_pct", "%"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string commit = "unknown";
  bool self_test = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "qrm_perfbench: %s\nusage: qrm_perfbench --workload paper-50|large-256|campaign-mix"
               " --seed N --seconds S --trace 0|1 [--commit ID]\n"
               "       qrm_perfbench --self-test\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      options.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = std::stoi(value);
      } else if (arg == "--commit") {
        options.commit = value;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (options.self_test) return options;
  if (options.workload.empty() || !have_seed) usage("--workload and --seed are required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  if (options.trace != 0 && options.trace != 1) usage("--trace must be 0 or 1");
  return options;
}

/// The campaign pool size: fixed, at most nproc.
std::uint32_t campaign_workers() {
  return std::min(kCampaignWorkers, std::max(1u, std::thread::hardware_concurrency()));
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        double seconds) {
  if (name == "campaign-mix") return make_campaign_workload(seed, seconds, campaign_workers());
  if (name == "paper-50" || name == "large-256") return make_shot_workload(name, seed, seconds);
  usage(("unknown workload " + name).c_str());
}

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Warnings that make a run invalid for comparison.
std::vector<std::string> build_warnings() {
  std::vector<std::string> warnings;
#ifndef NDEBUG
  warnings.emplace_back("assertions enabled (NDEBUG unset): INVALID for comparison");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  warnings.emplace_back("sanitizer build: INVALID for comparison");
#endif
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo")
    warnings.push_back("build type " + type + ": INVALID for comparison");
  return warnings;
}

void print_header(const Options& options, const Workload& workload) {
  std::printf("perfbench build: commit=%s compiler=%s build_type=%s nproc=%u pool_workers=%u "
              "seed=%llu workload=%s seconds=%g trace=%d\n",
              options.commit.c_str(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency(),
              options.workload == "campaign-mix" ? campaign_workers() : workload.shots_per_op(),
              static_cast<unsigned long long>(options.seed), options.workload.c_str(),
              options.seconds, options.trace);
  std::printf("perfbench workload: %s\n", workload.describe().c_str());
  std::printf("perfbench thresholds: setup_repeats=%zu min_ops=%zu (>= %zu beyond p90) "
              "model_ops=%zu success_ops=%zu span_coverage>=%.2f (residue reported as "
              "<layer>.untraced_ms)\n",
              kSetupRepeats, kMinOps, kMinTailOps, workload.model_ops(), workload.success_ops(),
              kMinCoverage);
  const std::vector<std::string> warnings = build_warnings();
  std::string line;
  for (const std::string& w : warnings) line += (line.empty() ? "" : "; ") + w;
  std::printf("warnings: %s\n", line.empty() ? "none" : line.c_str());
  std::fflush(stdout);
}

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const MetricList& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i > 0 ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// Everything one run measured and checked.
struct RunOutcome {
  std::vector<OpResult> ops;  ///< untraced, in operation order
  std::size_t timed_ops = 0;  ///< the first timed_ops ops are the timed phase
  std::size_t failed = 0;
  double timed_s = 0.0;
  double setup_s = 0.0;
  double rss_mb = 0.0;
  std::vector<std::string> failures;
};

/// Set-up (repeated), warm-up, and the untraced timed phase, plus untimed
/// operations up to the success prefix when the timed phase ran fewer.
/// The first set-up precedes the warm-up. The other repeats are spread
/// evenly over the timed phase, between operations, so that their median
/// samples the host's slow and fast periods as the operations do; their
/// time is not part of the phase's wall time.
RunOutcome run_untraced(Workload& workload, double seconds, Tracer* setup_tracer) {
  RunOutcome run;
  std::vector<double> setups;
  const auto set_up = [&](Tracer* tracer) {
    const Clock::time_point start = Clock::now();
    workload.setup(tracer);
    setups.push_back(elapsed_s(start));
    return setups.back();
  };
  set_up(setup_tracer);

  const auto attempt = [&](std::size_t op) {
    try {
      return workload.run_op(op);
    } catch (const std::exception& e) {
      ++run.failed;
      run.failures.push_back("operation " + std::to_string(op) + " threw: " + e.what());
      return OpResult{};
    }
  };
  const OpResult warm = attempt(0);  // fills lazy state; not counted

  const Clock::time_point start = Clock::now();
  const double setup_every = seconds / kSetupRepeats;
  double setup_in_phase = 0.0;
  while ((elapsed_s(start) - setup_in_phase < seconds || run.ops.size() < kMinOps) &&
         run.ops.size() < workload.capacity()) {
    if (setups.size() < kSetupRepeats &&
        elapsed_s(start) - setup_in_phase >= setup_every * static_cast<double>(setups.size()))
      setup_in_phase += set_up(nullptr);
    run.ops.push_back(attempt(run.ops.size()));
  }
  run.timed_s = elapsed_s(start) - setup_in_phase;
  run.timed_ops = run.ops.size();
  run.rss_mb = peak_rss_mb();
  while (setups.size() < kSetupRepeats) set_up(nullptr);
  run.setup_s = percentile(setups, 50.0);

  while (run.ops.size() < std::max(workload.success_ops(), workload.model_ops()))
    run.ops.push_back(attempt(run.ops.size()));
  if (!run.ops.empty() && warm.fingerprint != run.ops[0].fingerprint)
    run.failures.push_back("operation 0 fingerprint differs between two runs of one seed");
  return run;
}

/// The instrumented pass over operations [0, ops): samples, spans, checks.
std::size_t instrumented_pass(Workload& workload, const RunOutcome& run, std::size_t min_ops,
                              double seconds, Tracer& tracer, Samples& samples,
                              std::vector<std::string>& failures) {
  const Clock::time_point start = Clock::now();
  std::size_t op = 0;
  for (; op < run.ops.size() && (op < min_ops || elapsed_s(start) < seconds); ++op) {
    std::string failure;
    try {
      failure = workload.traced_op(op, run.ops[op], tracer, samples);
    } catch (const std::exception& e) {
      failure = std::string("threw: ") + e.what();
    }
    if (!failure.empty()) failures.push_back("traced operation " + std::to_string(op) + ": " + failure);
  }
  return op;
}

int run_benchmark(const Options& options) {
  std::unique_ptr<Workload> workload = make_workload(options.workload, options.seed, options.seconds);
  print_header(options, *workload);

  Tracer tracer;
  RunOutcome run = run_untraced(*workload, options.seconds, options.trace ? &tracer : nullptr);

  std::vector<double> op_ms;
  double shots = 0.0;
  for (std::size_t i = 0; i < run.timed_ops; ++i) {
    if (run.ops[i].shots == 0) continue;  // threw: no time to report, counted as failed
    op_ms.push_back(run.ops[i].ms);
    shots += run.ops[i].shots;
  }
  const double op_p50 = percentile(op_ms, 50.0);
  std::size_t successes = 0;
  std::size_t attempted_shots = 0;
  for (std::size_t i = 0; i < workload->success_ops(); ++i) {
    successes += run.ops[i].successes;
    attempted_shots += run.ops[i].shots > 0 ? run.ops[i].shots : workload->shots_per_op();
  }

  Samples samples;
  MetricList metrics;
  if (options.trace == 0) {
    Tracer model;
    instrumented_pass(*workload, run, workload->model_ops(), 0.0, model, samples, run.failures);
    metrics = {
        {"op_ms_p50", op_p50, "ms"},
        {"shots_per_s", run.timed_s > 0 ? shots / run.timed_s : 0.0, "1/s"},
        {"success_rate",
         attempted_shots > 0 ? static_cast<double>(successes) / static_cast<double>(attempted_shots)
                             : 0.0,
         "ratio"},
        {"aod_ms_per_shot", workload->aod_ms_per_shot(samples), "ms"},
        {"accel_us_p50", workload->accel_us_p50(samples), "us"},
        {"setup_s", run.setup_s, "s"},
        {"peak_rss_mb", run.rss_mb, "MB"},
    };
    std::printf("perfbench: %zu timed operations in %.3f s, instrumented prefix %zu, success "
                "prefix %zu, setup repeats %zu\n",
                run.timed_ops, run.timed_s, workload->model_ops(), workload->success_ops(),
                kSetupRepeats);
  } else {
    // A third of the timed phase is enough for per-layer means and keeps a
    // traced run well inside the time one run may take.
    const std::size_t traced = instrumented_pass(*workload, run, workload->model_ops(),
                                                 options.seconds / 3.0, tracer, samples,
                                                 run.failures);
    MetricList layer;
    workload->layer_metrics(tracer, samples, traced, op_p50, layer);
    // The untraced operation's tail: a fork-join waits for its slowest part,
    // so on a shared host this reads the scheduler as much as the program.
    // Reported without a bound (see NOTES.md).
    layer.push_back({"batch.op_ms_p90", percentile(op_ms, 90.0), "ms"});
    std::string not_measured;
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = std::find_if(layer.begin(), layer.end(),
                                   [&](const Metric& m) { return m.name == name; });
      metrics.push_back({name, it != layer.end() ? it->value : 0.0, unit});
      if (it == layer.end()) not_measured += (not_measured.empty() ? "" : " ") + std::string(name);
    }
    std::printf("not-measured: %s (printed as 0 on %s)\n",
                not_measured.empty() ? "none" : not_measured.c_str(), options.workload.c_str());
    for (const Metric& m : layer) {
      if (std::none_of(kLayerMetrics.begin(), kLayerMetrics.end(),
                       [&](const auto& known) { return m.name == known.first; }))
        run.failures.push_back("per-layer metric missing from the canonical list: " + m.name);
    }
    for (const Metric& m : metrics) {
      const std::string name = m.name;
      if (name.size() > 9 && name.ends_with(".coverage") && m.value > 0 && m.value < kMinCoverage)
        std::printf("coverage: %s = %.3f < %.2f; residue reported as %s.untraced_ms\n",
                    name.c_str(), m.value, kMinCoverage,
                    name.substr(0, name.size() - 9).c_str());
    }
    std::filesystem::create_directories(kTraceDir);
    const std::string path = std::string(kTraceDir) + "/" + options.workload + "-seed" +
                             std::to_string(options.seed) + ".spans.jsonl";
    tracer.write_jsonl(path);
    std::printf("perfbench: %zu timed operations in %.3f s; traced %zu operations, %zu spans "
                "written to %s\n",
                run.timed_ops, run.timed_s, traced, tracer.spans().size(), path.c_str());
  }
  if (options.workload == "paper-50") {
    const double accel_us = workload->accel_us_p50(samples);
    std::printf("model-error: accel_us_p50=%.4f us on paper-50 vs the paper's %.1f us at 250 MHz "
                "(ratio %.2f); the cycle model is unvalidated and not tuned to match\n",
                accel_us, kPaperAccelUs, accel_us / kPaperAccelUs);
  }

  for (const std::string& failure : run.failures) std::fprintf(stderr, "FAIL: %s\n", failure.c_str());
  const bool correct = run.failures.empty() && run.failed == 0;
  std::fflush(stdout);
  print_result(correct, run.timed_ops, run.failed, metrics);
  return correct ? 0 : 1;
}

// --- Self-test ---------------------------------------------------------------

/// The deterministic content of one short run: outcome fingerprints of the
/// first `ops` operations, their success count, and every sample the
/// instrumented pass records (counts and model clocks).
struct Snapshot {
  std::vector<std::uint64_t> fingerprints;
  std::size_t successes = 0;
  Samples samples;
  std::vector<std::string> failures;
};

Snapshot snapshot(const std::string& name, std::uint64_t seed, std::size_t ops) {
  std::unique_ptr<Workload> workload = make_workload(name, seed, 0.0);
  workload->setup(nullptr);
  RunOutcome run;
  for (std::size_t op = 0; op < ops; ++op) run.ops.push_back(workload->run_op(op));
  Snapshot snap;
  Tracer tracer;
  instrumented_pass(*workload, run, ops, 0.0, tracer, snap.samples, snap.failures);
  for (const OpResult& op : run.ops) {
    snap.fingerprints.push_back(op.fingerprint);
    snap.successes += op.successes;
  }
  return snap;
}

bool bit_identical(const Samples& a, const Samples& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [key, values] : a) {
    const auto it = b.find(key);
    if (it == b.end() || it->second.size() != values.size()) return false;
    for (std::size_t i = 0; i < values.size(); ++i)
      if (std::bit_cast<std::uint64_t>(values[i]) != std::bit_cast<std::uint64_t>(it->second[i]))
        return false;
  }
  return true;
}

int self_test() {
  constexpr std::uint64_t kSeed = 1;
  constexpr std::uint64_t kHeldOutSeed = 20261016;
  const std::vector<std::pair<std::string, std::size_t>> cases = {
      {"paper-50", 24}, {"large-256", 2}, {"campaign-mix", 1}};
  int failures = 0;
  const auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  for (const auto& [name, ops] : cases) {
    const Snapshot a = snapshot(name, kSeed, ops);
    const Snapshot b = snapshot(name, kSeed, ops);
    const Snapshot held_out = snapshot(name, kHeldOutSeed, ops);
    for (const Snapshot* snap : {&a, &b, &held_out})
      for (const std::string& f : snap->failures) expect(false, name + ": " + f);
    expect(!a.samples.empty(), name + ": instrumented pass recorded samples");
    expect(a.fingerprints == b.fingerprints && a.successes == b.successes,
           name + ": outcomes repeat exactly for one seed");
    expect(bit_identical(a.samples, b.samples),
           name + ": counts and model clocks are bit-identical for one seed");
    expect(a.fingerprints != held_out.fingerprints,
           name + ": a held-out seed changes the outcomes");
  }
  std::printf("self-test: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Options options = perfbench::parse_args(argc, argv);
    if (options.self_test) return perfbench::self_test();
    return perfbench::run_benchmark(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qrm_perfbench: %s\n", e.what());
    return 1;
  }
}
