/// \file campaign.cpp
/// The `campaign-mix` workload: one operation is one
/// `scenario::CampaignRunner::run` pass over the registry's smoke-tagged
/// scenarios, with every spec's seed re-derived from the benchmark seed and
/// the pass index, campaign defaults (plan cache on) and a fixed pool.
///
/// The traced run replays each pass scenario by scenario through
/// `CampaignRunner::run_one` at one worker, sharing one plan cache across
/// the pass as the campaign does, so the cache counters are deterministic.
/// Its outcome fingerprints must equal the untraced pass's.

#include <chrono>
#include <memory>
#include <sstream>
#include <utility>

#include "awg/waveform.hpp"
#include "batch/batch_planner.hpp"
#include "exec/plan_cache.hpp"
#include "exec/policy.hpp"
#include "hwmodel/accelerator.hpp"
#include "moves/dead_channels.hpp"
#include "runtime/rearrangement_loop.hpp"
#include "scenario/campaign.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace qrm;
using scenario::ScenarioSpec;

constexpr std::uint64_t kStream = 0xCA3;
constexpr double kMaxPassesPerSecond = 40.0;
constexpr std::size_t kMinPasses = 150;
constexpr std::size_t kModelPasses = 3;
constexpr std::size_t kSuccessPasses = 20;

/// CampaignRunner's per-scenario fingerprint: the serialized spec and the
/// batch outcome fingerprint.
std::uint64_t scenario_fingerprint(const ScenarioSpec& spec, const batch::BatchReport& batch) {
  std::uint64_t hash = fnv::kOffset;
  fnv::mix_text(hash, scenario::serialize(spec));
  fnv::mix_u64(hash, batch.fingerprint());
  return hash;
}

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(std::uint64_t seed, double seconds, std::uint32_t workers)
      : seed_(seed), workers_(workers), base_(scenario::filter_registry("smoke")) {
    capacity_ = std::max(kMinPasses, static_cast<std::size_t>(seconds * kMaxPassesPerSecond));
    for (const ScenarioSpec& spec : base_) shots_per_pass_ += spec.shots;
    kept_.resize(std::max(kModelPasses, kSuccessPasses));
  }

  /// Builds every pass's spec list the way a user would load campaign
  /// files: each reseeded spec goes through its text form and back.
  void setup(Tracer* tracer) override {
    passes_.assign(capacity_, {});
    for (std::size_t pass = 0; pass < capacity_; ++pass) {
      Tracer::Scope parse(tracer, "scenario.parse");
      const std::uint64_t pass_seed = derive_seed(derive_seed(seed_, kStream), pass);
      passes_[pass].reserve(base_.size());
      for (std::size_t j = 0; j < base_.size(); ++j) {
        ScenarioSpec spec = base_[j];
        spec.seed = derive_seed(pass_seed, j);
        passes_[pass].push_back(scenario::parse_scenario(scenario::serialize(spec)));
      }
    }
    scenario::CampaignConfig config;
    config.exec.workers = workers_;
    runner_ = std::make_unique<scenario::CampaignRunner>(config);
  }

  [[nodiscard]] std::size_t capacity() const override { return capacity_; }
  [[nodiscard]] std::uint32_t shots_per_op() const override { return shots_per_pass_; }
  [[nodiscard]] std::size_t model_ops() const override { return kModelPasses; }
  [[nodiscard]] std::size_t success_ops() const override { return kSuccessPasses; }

  [[nodiscard]] OpResult run_op(std::size_t op) override {
    const auto start = std::chrono::steady_clock::now();
    const scenario::CampaignReport report = runner_->run(passes_[op]);
    const auto end = std::chrono::steady_clock::now();

    OpResult out;
    out.ms = std::chrono::duration<double, std::milli>(end - start).count();
    out.fingerprint = report.fingerprint();
    for (const scenario::ScenarioOutcome& outcome : report.scenarios) {
      for (const batch::ShotResult& shot : outcome.batch.shots) {
        ++out.shots;
        out.successes += shot.success ? 1 : 0;
      }
    }
    if (op < kept_.size()) {
      kept_[op].clear();
      for (const scenario::ScenarioOutcome& outcome : report.scenarios)
        kept_[op].push_back(outcome.fingerprint);
    }
    return out;
  }

  [[nodiscard]] std::string traced_op(std::size_t op, const OpResult& untraced, Tracer& tracer,
                                      Samples& samples) override {
    tracer.set_op(static_cast<std::uint32_t>(op));
    const std::vector<ScenarioSpec>& specs = passes_[op];

    // One cache for the pass, as CampaignRunner::run attaches one per run;
    // one worker, so hits and misses do not depend on scheduling.
    auto cache = std::make_shared<exec::PlanCache>();
    scenario::CampaignConfig config;
    config.exec.workers = 1;
    config.exec.plan_cache = cache;
    config.exec.keep_schedules = true;
    const scenario::CampaignRunner serial(config);

    std::vector<scenario::ScenarioOutcome> outcomes;
    outcomes.reserve(specs.size());
    {
      Tracer::Scope pass(&tracer, "scenario.pass");
      for (const ScenarioSpec& spec : specs) {
        Tracer::Scope run(&tracer, "scenario.run_one");
        outcomes.push_back(serial.run_one(spec));
      }
    }
    const exec::PlanCacheStats stats = cache->stats();
    samples["cache_hits"].push_back(static_cast<double>(stats.hits));
    samples["cache_misses"].push_back(static_cast<double>(stats.misses));

    std::string failure;
    scenario::CampaignReport rebuilt;
    for (std::size_t j = 0; j < outcomes.size(); ++j) {
      const ScenarioSpec& spec = specs[j];
      batch::BatchReport& batch = outcomes[j].batch;
      const batch::BatchConfig batch_config = scenario::to_batch_config(spec);
      for (std::uint32_t shot = 0; shot < batch.shots.size(); ++shot) {
        // run_shot's own stage timers: Σ plan calls over the shot's rounds
        // (a cache hit costs none), and render + detect of imaged shots.
        if (spec.algorithm == "qrm") plan_ms_.push_back(batch.shots[shot].plan_us * 1e-3);
        if (spec.imaged_detection) detect_ms_.push_back(batch.shots[shot].detect_us * 1e-3);
        if (std::string why =
                probe_shot(spec, batch_config, batch.shots[shot], shot, tracer, samples);
            failure.empty() && !why.empty())
          failure = spec.name + ": " + why;
        // Kept schedules are not part of the untraced outcome.
        batch.shots[shot].schedules.clear();
      }
      scenario::ScenarioOutcome outcome;
      outcome.fingerprint = scenario_fingerprint(spec, batch);
      if (failure.empty() && op < kept_.size() && j < kept_[op].size() &&
          outcome.fingerprint != kept_[op][j])
        failure = spec.name + ": run_one outcome differs from the campaign pass";
      rebuilt.scenarios.push_back(std::move(outcome));
    }
    if (failure.empty() && rebuilt.fingerprint() != untraced.fingerprint)
      failure = "traced pass fingerprint differs from the untraced campaign pass";
    return failure;
  }

  [[nodiscard]] double aod_ms_per_shot(const Samples& samples) const override {
    return mean(sample(samples, "aod_ms"));
  }
  [[nodiscard]] double accel_us_p50(const Samples& samples) const override {
    return grouped_median(sample(samples, "accel_us"), 1.0 / hw::AcceleratorConfig{}.clock_mhz);
  }

  void layer_metrics(const Tracer& tracer, const Samples& samples, std::size_t ops,
                     double untraced_op_ms, MetricList& out) const override {
    const auto per_op = [ops](double total) { return total / static_cast<double>(ops); };
    const double pass_ms = tracer.total_ms("scenario.pass");
    const double run_one_ms = tracer.total_ms("scenario.run_one");
    const double hits = sum(sample(samples, "cache_hits"));
    const double misses = sum(sample(samples, "cache_misses"));
    const double reused = sum(sample(samples, "kernels_reused"));
    const double computed = sum(sample(samples, "kernels_computed"));

    out.push_back({"scenario.parse_ms", mean(tracer.durations_ms("scenario.parse")), "ms"});
    out.push_back({"scenario.run_one_ms", mean(tracer.durations_ms("scenario.run_one")), "ms"});
    out.push_back({"scenario.untraced_ms", per_op(tracer.self_ms("scenario.pass")), "ms"});
    out.push_back({"scenario.coverage", pass_ms > 0 ? run_one_ms / pass_ms : 0.0, "ratio"});
    out.push_back({"batch.fanout_speedup",
                   untraced_op_ms > 0 ? per_op(run_one_ms) / untraced_op_ms : 0.0, "ratio"});
    out.push_back({"core.plan_ms_p50", percentile(plan_ms_, 50.0), "ms"});
    out.push_back({"core.plan_ms_p90", percentile(plan_ms_, 90.0), "ms"});
    out.push_back({"detection.detect_ms", mean(detect_ms_), "ms"});
    out.push_back({"loading.draw_ms", per_op(tracer.total_ms("loading.draw")), "ms"});
    out.push_back({"exec.cache_hits", hits / static_cast<double>(ops), "count"});
    out.push_back({"exec.cache_misses", misses / static_cast<double>(ops), "count"});
    out.push_back({"exec.cache_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0.0,
                   "ratio"});
    out.push_back({"exec.delta_reuse_ratio",
                   reused + computed > 0 ? reused / (reused + computed) : 0.0, "ratio"});
    out.push_back({"detection.errors_per_shot", mean(sample(samples, "detection_errors")), "count"});
    out.push_back({"moves.commands_per_plan", mean(sample(samples, "commands")), "count"});
    out.push_back({"moves.sites_per_plan", mean(sample(samples, "sites")), "count"});
    out.push_back({"moves.commands_per_unit_round",
                   sum(sample(samples, "commands")) / std::max(sum(sample(samples, "unit_rounds")), 1.0),
                   "ratio"});
    out.push_back({"moves.schedule_mb", mean(sample(samples, "schedule_mb")), "MB"});
    out.push_back({"runtime.rounds_per_shot", mean(sample(samples, "rounds")), "count"});
    out.push_back({"runtime.atoms_lost_per_shot", mean(sample(samples, "atoms_lost")), "count"});
    out.push_back({"hwmodel.total_cycles", mean(sample(samples, "total_cycles")), "count"});
    out.push_back({"hwmodel.pass_occupancy", mean(sample(samples, "pass_occupancy")), "ratio"});
    out.push_back({"hwmodel.run_ms", mean(tracer.durations_ms("hwmodel.run")), "ms"});

    // The traced pass runs its scenarios one after another at one worker,
    // so this ratio includes the untraced pass's fan-out, not only tracing.
    const double traced_rate =
        pass_ms > 0 ? static_cast<double>(ops * shots_per_pass_) / (pass_ms * 1e-3) : 0.0;
    const double untraced_rate =
        untraced_op_ms > 0 ? static_cast<double>(shots_per_pass_) / (untraced_op_ms * 1e-3) : 0.0;
    out.push_back({"trace.untraced_shots_per_s", untraced_rate, "1/s"});
    out.push_back({"trace.traced_shots_per_s", traced_rate, "1/s"});
    out.push_back({"trace.overhead_pct",
                   traced_rate > 0 ? (untraced_rate / traced_rate - 1.0) * 100.0 : 0.0, "%"});
  }

  [[nodiscard]] std::string describe() const override {
    std::ostringstream os;
    os << "campaign-mix: CampaignRunner::run over the " << base_.size()
       << " smoke-tagged scenarios (" << shots_per_pass_ << " shots per pass), plan cache on, "
       << workers_ << " pool workers, " << capacity_ << " passes prepared up front";
    return os.str();
  }

 private:
  /// Per-shot probes outside the pass span: the shot's draw, its modelled
  /// AOD time, the cycle model on its first-round grid (QRM shots), and a
  /// delta-replanned loop rebuilt from public calls (delta scenarios).
  std::string probe_shot(const ScenarioSpec& spec, const batch::BatchConfig& config,
                         const batch::ShotResult& shot, std::uint32_t index, Tracer& tracer,
                         Samples& samples) {
    std::string failure;
    OccupancyGrid drawn;
    {
      Tracer::Scope draw(&tracer, "loading.draw");
      drawn = scenario::generate_workload(spec, exec::shot_seed(spec.seed, index));
    }
    if (!spec.imaged_detection && drawn != shot.planned_input)
      failure = "drawn grid differs from the grid the shot planned on";

    double shot_aod_us = 0.0;
    for (const Schedule& schedule : shot.schedules)
      shot_aod_us += physical_.schedule_duration_us(schedule);
    samples["aod_ms"].push_back(shot_aod_us * 1e-3);
    samples["success"].push_back(shot.success ? 1.0 : 0.0);
    samples["rounds"].push_back(shot.rounds);
    samples["atoms_lost"].push_back(static_cast<double>(shot.atoms_lost));
    samples["detection_errors"].push_back(static_cast<double>(shot.detection_errors.total()));

    if (spec.algorithm != "qrm") return failure;

    // The planner plans on the dead-line-masked view; so does the model.
    hw::AcceleratorConfig accel_config;
    accel_config.plan = config.plan;
    const OccupancyGrid input = config.plan.dead_channels.empty()
                                    ? shot.planned_input
                                    : mask_dead_lines(shot.planned_input, config.plan.dead_channels);
    hw::AccelResult accel;
    {
      Tracer::Scope run(&tracer, "hwmodel.run");
      accel = hw::QrmAccelerator(accel_config).run(input);
    }
    samples["accel_us"].push_back(accel.latency_us);
    samples["total_cycles"].push_back(static_cast<double>(accel.cycles.total()));
    samples["pass_occupancy"].push_back(static_cast<double>(accel.cycles.pass_total()) /
                                        static_cast<double>(accel.cycles.total()));
    if (!shot.schedules.empty()) {
      const Schedule& first = shot.schedules.front();
      if (failure.empty() && accel.plan.schedule != first)
        failure = "cycle model's plan differs from the shot's first-round schedule";
      std::size_t sites = 0;
      for (const ParallelMove& move : first.moves()) sites += move.sites.size();
      std::size_t unit_rounds = 0;
      for (const PassInfo& pass : accel.plan.stats.passes) unit_rounds += pass.unit_rounds;
      samples["commands"].push_back(static_cast<double>(first.size()));
      samples["sites"].push_back(static_cast<double>(sites));
      samples["unit_rounds"].push_back(static_cast<double>(unit_rounds));
      samples["schedule_mb"].push_back(
          static_cast<double>(sites * sizeof(Coord) + first.size() * sizeof(ParallelMove)) /
          (1024.0 * 1024.0));
    }

    if (spec.replan == ReplanMode::Delta) {
      const batch::BatchPlanner planner(config);
      rt::LoopConfig loop_config;
      loop_config.plan = config.plan;
      loop_config.loss = planner.effective_loss();
      loop_config.max_rounds = config.max_rounds;
      loop_config.shot_index = index;
      loop_config.exec.replan = ReplanMode::Delta;
      rt::LoopReport loop;
      {
        Tracer::Scope run(&tracer, "exec.delta_loop");
        loop = rt::run_rearrangement_loop(shot.planned_input, loop_config);
      }
      samples["kernels_reused"].push_back(static_cast<double>(loop.replan.kernels_reused));
      samples["kernels_computed"].push_back(static_cast<double>(loop.replan.kernels_computed));
      if (failure.empty() && loop.final_grid != shot.final_grid)
        failure = "delta-replanned loop differs from the campaign's shot";
    }
    return failure;
  }

  std::uint64_t seed_;
  std::uint32_t workers_;
  std::vector<ScenarioSpec> base_;  ///< the registry's smoke scenarios
  std::size_t capacity_ = 0;
  std::uint32_t shots_per_pass_ = 0;
  const PhysicalModel physical_ = awg::physical_model_of(awg::AodCalibration{});
  std::vector<std::vector<ScenarioSpec>> passes_;
  std::unique_ptr<scenario::CampaignRunner> runner_;
  std::vector<std::vector<std::uint64_t>> kept_;  ///< scenario fingerprints of the model prefix
  std::vector<double> plan_ms_;    ///< traced QRM shots' ShotResult::plan_us, in ms
  std::vector<double> detect_ms_;  ///< traced imaged shots' ShotResult::detect_us, in ms
};

}  // namespace

std::unique_ptr<Workload> make_campaign_workload(std::uint64_t seed, double seconds,
                                                 std::uint32_t workers) {
  return std::make_unique<CampaignWorkload>(seed, seconds, workers);
}

}  // namespace perfbench
