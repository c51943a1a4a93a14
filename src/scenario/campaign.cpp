#include "scenario/campaign.hpp"

#include <memory>
#include <utility>

#include "util/assert.hpp"
#include "util/fnv.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace qrm::scenario {

namespace {

/// SortedSample aggregation + architecture model + fingerprint: everything
/// downstream of the raw per-shot results.
ScenarioOutcome finalize_outcome(const ScenarioSpec& spec, std::size_t index,
                                 batch::BatchReport batch) {
  ScenarioOutcome outcome;
  outcome.index = index;
  outcome.spec = spec;
  outcome.batch = std::move(batch);

  // --- SortedSample aggregation over the deterministic columns ------------
  std::vector<double> rounds;
  std::vector<double> commands;
  rounds.reserve(outcome.batch.shots.size());
  commands.reserve(outcome.batch.shots.size());
  for (const batch::ShotResult& shot : outcome.batch.shots) {
    rounds.push_back(static_cast<double>(shot.rounds));
    commands.push_back(static_cast<double>(shot.commands));
  }
  outcome.mean_rounds = stats::mean(rounds);
  const stats::SortedSample round_sample(rounds);
  const stats::SortedSample command_sample(commands);
  outcome.p90_rounds = round_sample.percentile(90.0);
  outcome.p50_commands = command_sample.median();
  outcome.p90_commands = command_sample.percentile(90.0);

  outcome.p50_plan_us = outcome.batch.latency(batch::BatchReport::Stage::Plan).p50;
  outcome.p90_plan_us = outcome.batch.latency(batch::BatchReport::Stage::Plan).p90;
  outcome.p50_execute_us = outcome.batch.latency(batch::BatchReport::Stage::Execute).p50;

  // --- Architecture control-path model (deterministic) --------------------
  // The runtime module's Fig. 2 cost at its default constants, charged once
  // per round. shot.commands sums over rounds, so each round's return hop
  // carries only that round's share of the move list.
  rt::SystemConfig system;
  system.architecture = spec.architecture;
  const double per_round_commands =
      outcome.mean_rounds > 0.0 ? stats::mean(commands) / outcome.mean_rounds : 0.0;
  const rt::ControlPathCost cost =
      rt::control_path_cost(system, spec.grid_height, spec.grid_width, per_round_commands);
  outcome.arch_overhead_us = outcome.mean_rounds * (cost.transfer_us + cost.detection_us);

  // --- Identity + outcome fingerprint -------------------------------------
  std::uint64_t hash = fnv::kOffset;
  fnv::mix_text(hash, serialize(spec));
  fnv::mix_u64(hash, outcome.batch.fingerprint());
  outcome.fingerprint = hash;
  return outcome;
}

}  // namespace

std::uint64_t CampaignReport::fingerprint() const noexcept {
  std::uint64_t hash = fnv::kOffset;
  fnv::mix_u64(hash, scenarios.size());
  for (const ScenarioOutcome& outcome : scenarios) fnv::mix_u64(hash, outcome.fingerprint);
  return hash;
}

std::uint32_t shard_of(const std::string& name, std::uint32_t shards) {
  QRM_EXPECTS_MSG(shards >= 1, "shard_of needs a positive shard count");
  return static_cast<std::uint32_t>(fnv::hash_text(name) % shards);
}

exec::ExecPolicy campaign_policy(const CampaignConfig& config) {
  exec::ExecPolicy policy = config.exec;
  if (!config.plan_cache) {
    policy.plan_cache = nullptr;
  } else if (policy.plan_cache == nullptr) {
    policy.plan_cache = std::make_shared<exec::PlanCache>();
  }
  return policy;
}

exec::ExecPolicy resolve_exec(const CampaignConfig& config, const ScenarioSpec& spec) {
  exec::ExecPolicy policy = campaign_policy(config);
  policy.replan = config.replan.value_or(spec.replan);
  return policy;
}

batch::BatchConfig to_batch_config(const ScenarioSpec& spec, exec::ExecPolicy policy) {
  batch::BatchConfig config;
  config.plan.target = spec.target_region();
  config.plan.mode = spec.mode;
  config.algorithm = spec.algorithm;
  config.shots = spec.shots;
  config.master_seed = spec.seed;
  config.grid_height = spec.grid_height;
  config.grid_width = spec.grid_width;
  config.fill = spec.fill;  // campaigns draw through generate_workload instead
  config.imaged_detection = spec.imaged_detection;
  config.imaging.photons_per_atom = spec.photons_per_atom;
  config.detection.threshold_photons = spec.detection_threshold;
  config.detection.threshold_bias = spec.threshold_bias;
  config.drift.shape = spec.drift;
  config.drift.amplitude = spec.drift_amplitude;
  config.drift.period = spec.drift_period;
  config.loss.per_move_loss = spec.per_move_loss;
  config.loss.background_loss = spec.background_loss;
  config.loss.burst_loss = spec.burst_loss;
  config.loss.burst_length = spec.burst_length;
  config.plan.dead_channels = DeadChannelMask{spec.dead_rows, spec.dead_cols};
  config.max_rounds = spec.max_rounds;
  config.exec = std::move(policy);
  return config;
}

CampaignRunner::CampaignRunner(CampaignConfig config) : config_(std::move(config)) {
  QRM_EXPECTS_MSG(config_.exec.replan == ReplanMode::Scratch,
                  "CampaignConfig::exec.replan is not read: set CampaignConfig::replan");
}

ScenarioOutcome CampaignRunner::run_one(const ScenarioSpec& spec) const {
  return std::move(run_selected({&spec}, {0}).scenarios.front());
}

CampaignReport CampaignRunner::run_selected(const std::vector<const ScenarioSpec*>& selected,
                                            const std::vector<std::size_t>& indices) const {
  QRM_EXPECTS(selected.size() == indices.size());
  CampaignReport report;

  // Resolve the campaign-scope policy once per run: plan_cache on attaches
  // the run's shared cache here, so every scenario below inherits the same
  // one.
  const exec::ExecPolicy campaign = campaign_policy(config_);

  if (selected.empty()) {
    // An empty shard: valid, merges as a no-op. Resolve the worker count
    // without paying for an idle pool.
    report.workers = ThreadPool::resolve_workers(campaign.workers);
    return report;
  }
  for (const ScenarioSpec* spec : selected) validate(*spec);

  // Resolving per spec over the campaign-scope base keeps the attached
  // cache shared and picks each scenario's replan mode.
  CampaignConfig scoped = config_;
  scoped.exec = campaign;

  // One batch per scenario. Every shot draws its grid inside its own task
  // from the shot's derived stream, for every load profile alike.
  std::vector<batch::BatchPlanner> planners;
  planners.reserve(selected.size());
  std::vector<batch::ShotBatch> batches;
  for (const ScenarioSpec* spec : selected) {
    planners.emplace_back(to_batch_config(*spec, resolve_exec(scoped, *spec)));
    batches.push_back({&planners.back(), spec->shots, [spec](std::uint32_t shot) {
                         return generate_workload(*spec, exec::shot_seed(spec->seed, shot));
                       }});
  }

  ThreadPool pool(campaign.workers);
  report.workers = pool.worker_count();
  // A cache the caller attached may serve other runs too (the run_shard
  // calls of one process): record only what this run adds to it.
  const exec::PlanCacheStats cache_before =
      campaign.plan_cache ? campaign.plan_cache->stats() : exec::PlanCacheStats{};
  Stopwatch wall;
  std::vector<batch::BatchReport> results = batch::run_batches(batches, pool);
  for (std::size_t i = 0; i < selected.size(); ++i)
    report.scenarios.push_back(finalize_outcome(*selected[i], indices[i], std::move(results[i])));
  report.wall_us = wall.elapsed_microseconds();
  if (campaign.plan_cache) {
    report.plan_cache = campaign.plan_cache->stats();
    report.plan_cache -= cache_before;
  }
  return report;
}

CampaignReport CampaignRunner::run(const std::vector<ScenarioSpec>& specs) const {
  QRM_EXPECTS_MSG(config_.shards == 1,
                  "run() runs the whole matrix: run one shard per run_shard() call and merge "
                  "the reports with merge_csv_reports/merge_json_reports");
  return run_shard(specs);
}

CampaignReport CampaignRunner::run_shard(const std::vector<ScenarioSpec>& specs) const {
  QRM_EXPECTS_MSG(config_.shards >= 1, "campaign shard count must be positive");
  QRM_EXPECTS_MSG(config_.shard_index < config_.shards,
                  "campaign shard_index must be below the shard count");
  std::vector<const ScenarioSpec*> subset;
  std::vector<std::size_t> indices;
  std::size_t index = 0;
  for (const ScenarioSpec& spec : specs) {
    if (!spec.matches_filter(config_.filter)) continue;
    if (shard_of(spec.name, config_.shards) == config_.shard_index) {
      subset.push_back(&spec);
      indices.push_back(index);
    }
    ++index;
  }
  // An empty *shard* is valid (the matrix just hashed elsewhere), but a
  // filter matching nothing *anywhere* is a silently green campaign: run()
  // and every shard process would succeed with zero scenarios and the
  // merge would happily produce an empty report.
  QRM_EXPECTS_MSG(index > 0,
                  "campaign filter '" + config_.filter + "' matches no scenarios");
  return run_selected(subset, indices);
}

}  // namespace qrm::scenario
