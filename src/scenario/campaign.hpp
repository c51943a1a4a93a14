#pragma once
/// \file campaign.hpp
/// CampaignRunner: fan a scenario matrix through qrm::batch and aggregate
/// per-scenario results into a CampaignReport (report.hpp writes it as CSV
/// or JSON).
///
/// Determinism guarantee, inherited from BatchPlanner and extended across
/// scenarios: every outcome field of a CampaignReport — per-shot grids,
/// counts, rates, per-scenario fingerprints, and the campaign fingerprint —
/// is bit-identical for any worker count, any shard split, and with the
/// plan cache on or off. Only measurement fields (`*_us`, `wall_us`,
/// shots/sec, cache hit counts) vary run to run; they are excluded from
/// every fingerprint and from ReportMode::Deterministic artifacts.
///
/// Sharding model: the filtered scenario matrix is partitioned by
/// shard_of(name, shards) — a stable FNV-1a property of the scenario name,
/// never of list order or timing. Each run_shard() call (one per process:
/// `scenario_runner run --shards N --shard-index i`) runs one shard, and
/// the text-level mergers in report.hpp reassemble the shards'
/// deterministic reports into the bytes of a sequential 1-shard run. Every
/// outcome carries its global matrix index for exactly this reassembly.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "batch/batch_planner.hpp"
#include "exec/plan_cache.hpp"
#include "exec/policy.hpp"
#include "scenario/spec.hpp"

namespace qrm::scenario {

struct CampaignConfig {
  std::string filter;           ///< scenario name-substring / tag filter
  /// Shard count over the filtered matrix, read by run_shard(). run()
  /// runs the whole matrix and rejects shards > 1.
  std::uint32_t shards = 1;
  std::uint32_t shard_index = 0;  ///< which shard run_shard() executes

  /// Base execution policy: exec.workers sizes the one pool a run's
  /// scenarios x shots share, and a plan cache attached here is shared by
  /// every run of this config, e.g. the run_shard() calls of one process
  /// (leave it null for one cache per run). exec.replan must stay Scratch:
  /// set `replan` below instead (CampaignRunner rejects anything else).
  exec::ExecPolicy exec;
  /// Replan strategy for every scenario; unset = each spec's own key.
  /// Delta plans are bit-identical to Scratch, so this never changes an
  /// outcome, a fingerprint or a serialized spec.
  std::optional<ReplanMode> replan;
  /// Plan memoisation. On attaches one cache per run unless exec already
  /// carries one; off detaches any cache. Pattern scenarios and repeated
  /// sweep cells skip replanning, and outcomes are bit-identical either way.
  bool plan_cache = true;
};

/// The campaign-scope policy a run executes under: exec with the plan cache
/// attached or detached per plan_cache, and no spec key applied.
/// run_selected calls it once per run so the run's scenarios share one
/// cache.
[[nodiscard]] exec::ExecPolicy campaign_policy(const CampaignConfig& config);

/// The policy one scenario runs under: campaign_policy(config), with
/// config.replan if set, else the spec's own replan key.
[[nodiscard]] exec::ExecPolicy resolve_exec(const CampaignConfig& config,
                                            const ScenarioSpec& spec);

/// One scenario's batch outcome plus its SortedSample aggregation.
struct ScenarioOutcome {
  /// Position in the filtered scenario matrix — the key that lets shard
  /// reports merge back into sequential order.
  std::size_t index = 0;
  ScenarioSpec spec;
  batch::BatchReport batch;

  // Deterministic aggregates.
  double mean_rounds = 0.0;
  double p90_rounds = 0.0;
  double p50_commands = 0.0;
  double p90_commands = 0.0;
  /// Deterministic per-shot control-path overhead of the spec's
  /// architecture (Fig. 2 structural model): host-mediated pays the camera
  /// frame and the move list crossing the host link every round;
  /// FPGA-integrated pays only streaming detection cycles. It is
  /// rt::control_path_cost at the runtime's default constants for the
  /// scenario's mean commands per round, times its mean rounds, so it is
  /// reproducible and worker-count independent (unlike the measured `*_us`
  /// columns).
  double arch_overhead_us = 0.0;

  // Wall-clock aggregates (measurement, excluded from fingerprints).
  double p50_plan_us = 0.0;
  double p90_plan_us = 0.0;
  double p50_execute_us = 0.0;

  /// FNV-1a over the serialized spec and the batch outcome fingerprint.
  std::uint64_t fingerprint = 0;
};

struct CampaignReport {
  std::vector<ScenarioOutcome> scenarios;
  std::uint32_t workers = 0;  ///< pool size actually used
  double wall_us = 0.0;       ///< end-to-end campaign wall time
  /// Plan-cache counters for the run (measurement: hit/miss split depends
  /// on scheduling; zeros when the cache is off).
  exec::PlanCacheStats plan_cache;

  /// Order-sensitive combination of the per-scenario fingerprints. Two
  /// campaigns over the same scenario list must agree here regardless of
  /// worker count, shard count, or cache mode.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;
};

/// Deterministic shard assignment: fnv::hash_text(name) % shards. Stable
/// across processes and releases — renaming a scenario is the only way to
/// move it between shards.
[[nodiscard]] std::uint32_t shard_of(const std::string& name, std::uint32_t shards);

/// The exact BatchConfig a scenario runs as, under an already-resolved
/// execution policy (resolve_exec picks the replan mode — this function
/// copies `policy` verbatim and applies no spec knobs itself). Exposed so
/// tests (and anyone porting a hand-coded sweep binary) can prove the
/// scenario path is bit-identical to driving BatchPlanner directly.
[[nodiscard]] batch::BatchConfig to_batch_config(const ScenarioSpec& spec,
                                                 exec::ExecPolicy policy = {});

class CampaignRunner {
 public:
  /// Throws PreconditionError when config.exec.replan is not Scratch: the
  /// campaign's replan knob is CampaignConfig::replan.
  explicit CampaignRunner(CampaignConfig config = {});

  /// Run one scenario (validated first; the config filter is not applied):
  /// exactly run() over this one spec.
  [[nodiscard]] ScenarioOutcome run_one(const ScenarioSpec& spec) const;

  /// Run every scenario matching the config filter: run_shard() over the
  /// one shard. Scenarios × shots fan out across one ThreadPool through
  /// batch::run_batches (a slow scenario does not serialise the ones after
  /// it). Throws PreconditionError when config.shards > 1 (use run_shard
  /// per shard) or when the filter matches nothing — a silently empty
  /// campaign would read as a green CI run.
  [[nodiscard]] CampaignReport run(const std::vector<ScenarioSpec>& specs) const;

  /// Run only shard config.shard_index of the filtered matrix. Unlike
  /// run(), an empty shard is a valid result — its report has no scenarios
  /// and merges as a no-op.
  [[nodiscard]] CampaignReport run_shard(const std::vector<ScenarioSpec>& specs) const;

 private:
  /// Run `selected` (paired with global matrix indices) as one batch per
  /// scenario on one pool; every shot draws its own grid in its own task.
  [[nodiscard]] CampaignReport run_selected(const std::vector<const ScenarioSpec*>& selected,
                                            const std::vector<std::size_t>& indices) const;

  CampaignConfig config_;
};

}  // namespace qrm::scenario
