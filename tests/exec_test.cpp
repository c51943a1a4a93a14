// Tests for qrm::exec — the unified execution-policy layer. The core
// contract is the precedence matrix: campaign overrides > spec keys > base
// policy > built-in defaults, for every knob (replan, intra_plan_workers,
// workers, keep_schedules) including the tri-state plan_cache attachment,
// with "unset" layers falling through instead of clobbering. The campaign
// half of the suite pins that CampaignRunner's resolve_exec/campaign_policy
// implement exactly this stack — the behaviour the scenario_runner flags,
// which land in the campaign overrides, promise.

#include <gtest/gtest.h>

#include <memory>

#include "exec/plan_cache.hpp"
#include "exec/policy.hpp"
#include "scenario/campaign.hpp"
#include "util/rng.hpp"

namespace qrm {
namespace {

// ---------------------------------------------------------------------------
// resolve(): layer semantics
// ---------------------------------------------------------------------------

TEST(ExecResolve, NoLayersReturnsTheBaseUnchanged) {
  exec::ExecPolicy base;
  base.workers = 3;
  base.intra_plan_workers = 2;
  base.replan = ReplanMode::Delta;
  base.keep_schedules = true;
  const exec::ExecPolicy resolved = exec::resolve(base, {});
  EXPECT_EQ(resolved.workers, 3u);
  EXPECT_EQ(resolved.intra_plan_workers, 2u);
  EXPECT_EQ(resolved.replan, ReplanMode::Delta);
  EXPECT_TRUE(resolved.keep_schedules);
  EXPECT_EQ(resolved.plan_cache, nullptr);
}

TEST(ExecResolve, UnsetFieldsFallThroughEveryLayer) {
  exec::ExecPolicy base;
  base.workers = 7;
  base.replan = ReplanMode::Delta;
  // Two layers, each setting only one field: the untouched fields must
  // survive from the base, not reset to defaults.
  exec::ExecOverrides low;
  low.intra_plan_workers = 4;
  exec::ExecOverrides high;
  high.keep_schedules = true;
  const exec::ExecPolicy resolved = exec::resolve(base, {low, high});
  EXPECT_EQ(resolved.workers, 7u);
  EXPECT_EQ(resolved.intra_plan_workers, 4u);
  EXPECT_EQ(resolved.replan, ReplanMode::Delta);
  EXPECT_TRUE(resolved.keep_schedules);
}

TEST(ExecResolve, LaterLayersWinFieldByField) {
  // The full matrix for the scalar knobs: for each knob, a value set in the
  // high layer beats the low layer, and an unset high layer exposes the low
  // one. This is the CLI > campaign > spec ordering in miniature.
  exec::ExecOverrides low;
  low.workers = 1;
  low.intra_plan_workers = 1;
  low.replan = ReplanMode::Scratch;
  low.keep_schedules = false;

  exec::ExecOverrides high;
  high.workers = 8;
  high.intra_plan_workers = 6;
  high.replan = ReplanMode::Delta;
  high.keep_schedules = true;

  const exec::ExecPolicy both = exec::resolve({}, {low, high});
  EXPECT_EQ(both.workers, 8u);
  EXPECT_EQ(both.intra_plan_workers, 6u);
  EXPECT_EQ(both.replan, ReplanMode::Delta);
  EXPECT_TRUE(both.keep_schedules);

  const exec::ExecPolicy low_only = exec::resolve({}, {low, exec::ExecOverrides{}});
  EXPECT_EQ(low_only.workers, 1u);
  EXPECT_EQ(low_only.intra_plan_workers, 1u);
  EXPECT_EQ(low_only.replan, ReplanMode::Scratch);
  EXPECT_FALSE(low_only.keep_schedules);
}

TEST(ExecResolve, ZeroIsAValueNotUnset) {
  // The old `-1` sentinel scheme could not express "force the default";
  // std::optional can. An explicit 0 in a high layer must override a lower
  // layer's nonzero value.
  exec::ExecOverrides low;
  low.intra_plan_workers = 4;
  exec::ExecOverrides high;
  high.intra_plan_workers = 0;
  const exec::ExecPolicy resolved = exec::resolve({}, {low, high});
  EXPECT_EQ(resolved.intra_plan_workers, 0u);
}

// ---------------------------------------------------------------------------
// resolve(): the tri-state plan_cache attachment
// ---------------------------------------------------------------------------

TEST(ExecResolve, PlanCacheTrueAttachesAFreshCacheWhenBaseHasNone) {
  exec::ExecOverrides layer;
  layer.plan_cache = true;
  const exec::ExecPolicy resolved = exec::resolve({}, {layer});
  ASSERT_NE(resolved.plan_cache, nullptr);
  EXPECT_EQ(resolved.plan_cache->stats().hits, 0u);
}

TEST(ExecResolve, PlanCacheTrueKeepsAnAlreadyAttachedCache) {
  // The cross-shard warm-cache mode: a cache attached to the base must
  // survive a true resolution (same pointer, not a fresh cache).
  exec::ExecPolicy base;
  base.plan_cache = std::make_shared<exec::PlanCache>();
  exec::ExecOverrides layer;
  layer.plan_cache = true;
  const exec::ExecPolicy resolved = exec::resolve(base, {layer});
  EXPECT_EQ(resolved.plan_cache, base.plan_cache);
}

TEST(ExecResolve, PlanCacheFalseDetachesAndUnsetKeeps) {
  exec::ExecPolicy base;
  base.plan_cache = std::make_shared<exec::PlanCache>();

  exec::ExecOverrides off;
  off.plan_cache = false;
  EXPECT_EQ(exec::resolve(base, {off}).plan_cache, nullptr);

  EXPECT_EQ(exec::resolve(base, {exec::ExecOverrides{}}).plan_cache, base.plan_cache)
      << "an unset layer must not detach the base cache";
}

TEST(ExecResolve, PlanCacheLastLayerWins) {
  // true-then-false detaches; false-then-true attaches. Only the final
  // resolution matters — intermediate layers never materialise a cache.
  exec::ExecOverrides on;
  on.plan_cache = true;
  exec::ExecOverrides off;
  off.plan_cache = false;
  EXPECT_EQ(exec::resolve({}, {on, off}).plan_cache, nullptr);
  EXPECT_NE(exec::resolve({}, {off, on}).plan_cache, nullptr);
}

// ---------------------------------------------------------------------------
// Campaign stack: campaign > spec > base > default
// ---------------------------------------------------------------------------

scenario::ScenarioSpec exec_spec() {
  scenario::ScenarioSpec spec;
  spec.name = "exec-test";
  spec.grid_height = spec.grid_width = 16;
  spec.target_rows = spec.target_cols = 8;
  spec.shots = 2;
  return spec;
}

TEST(ExecCampaignStack, DefaultsApplyWhenEveryLayerIsSilent) {
  scenario::CampaignConfig config;
  config.overrides = {};  // strip the campaign's plan_cache=true default
  const exec::ExecPolicy policy = scenario::resolve_exec(config, exec_spec());
  EXPECT_EQ(policy.workers, 0u);
  EXPECT_EQ(policy.intra_plan_workers, 0u);
  EXPECT_EQ(policy.replan, ReplanMode::Scratch);
  EXPECT_EQ(policy.plan_cache, nullptr);
  EXPECT_FALSE(policy.keep_schedules);
}

TEST(ExecCampaignStack, SpecKeysBeatDefaults) {
  scenario::ScenarioSpec spec = exec_spec();
  spec.replan = ReplanMode::Delta;
  const exec::ExecPolicy policy = scenario::resolve_exec({}, spec);
  EXPECT_EQ(policy.replan, ReplanMode::Delta);
}

TEST(ExecCampaignStack, CampaignOverridesBeatSpecKeys) {
  scenario::ScenarioSpec spec = exec_spec();
  spec.replan = ReplanMode::Delta;

  scenario::CampaignConfig config;
  config.exec.intra_plan_workers = 3;
  config.overrides.intra_plan_workers = 0;  // force sequential over the base
  config.overrides.replan = ReplanMode::Scratch;
  const exec::ExecPolicy policy = scenario::resolve_exec(config, spec);
  EXPECT_EQ(policy.intra_plan_workers, 0u);
  EXPECT_EQ(policy.replan, ReplanMode::Scratch);
}

TEST(ExecCampaignStack, UnsetOverridesExposeSpecThenBase) {
  scenario::ScenarioSpec spec = exec_spec();
  spec.replan = ReplanMode::Delta;

  scenario::CampaignConfig config;
  config.exec.intra_plan_workers = 2;  // base set, spec and campaign silent
  // replan: campaign silent -> the spec's Delta shows through.
  const exec::ExecPolicy policy = scenario::resolve_exec(config, spec);
  EXPECT_EQ(policy.intra_plan_workers, 2u);
  EXPECT_EQ(policy.replan, ReplanMode::Delta);
}

TEST(ExecCampaignStack, PlanCacheDefaultsOnAndCliTurnsItOff) {
  // CampaignConfig ships overrides.plan_cache = true; `--plan-cache off`
  // writes overrides.plan_cache = false and must win.
  scenario::CampaignConfig config;
  EXPECT_NE(scenario::campaign_policy(config).plan_cache, nullptr);
  config.overrides.plan_cache = false;
  EXPECT_EQ(scenario::campaign_policy(config).plan_cache, nullptr);
}

TEST(ExecCampaignStack, CampaignPolicyIgnoresSpecKeys) {
  // campaign_policy resolves the campaign-scope policy only; per-spec keys
  // enter via resolve_exec. A campaign whose specs ask for Delta still has
  // a Scratch campaign policy.
  scenario::CampaignConfig config;
  const exec::ExecPolicy policy = scenario::campaign_policy(config);
  EXPECT_EQ(policy.replan, ReplanMode::Scratch);
  EXPECT_EQ(policy.intra_plan_workers, 0u);
}

// ---------------------------------------------------------------------------
// RNG stream derivation helpers
// ---------------------------------------------------------------------------

TEST(ExecSeeds, HelpersMatchTheRawDerivationSchema) {
  // The helpers are the single home of the seed-stream schema; they must
  // equal the raw derive_seed calls the pre-exec layers hard-coded, or the
  // golden corpus (which pins the derived byte values) would drift.
  EXPECT_EQ(exec::shot_seed(0x5EED, 7), derive_seed(0x5EED, 7));
  EXPECT_EQ(exec::imaging_seed(exec::shot_seed(0x5EED, 7)),
            derive_seed(exec::shot_seed(0x5EED, 7), exec::kImagingStream));
  EXPECT_EQ(exec::loss_master_seed(42), derive_seed(42, exec::kLossDomain));
  EXPECT_NE(exec::shot_seed(1, 0), exec::shot_seed(1, 1));
  EXPECT_NE(exec::loss_master_seed(1), exec::shot_seed(1, 0))
      << "loss stream must be domain-separated from the loading stream";
}

}  // namespace
}  // namespace qrm
