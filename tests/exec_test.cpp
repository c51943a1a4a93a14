// Tests for qrm::exec — the unified execution-policy layer — and the flat
// campaign policy on top of it. CampaignConfig carries a base ExecPolicy
// plus `plan_cache` (on attaches one cache per shard unless exec already
// carries one; off detaches). These cases pin campaign_policy and the
// spec/base split of to_batch_config — the behaviour the scenario_runner
// flags, which write exactly these fields, promise.

#include <gtest/gtest.h>

#include <memory>

#include "exec/plan_cache.hpp"
#include "exec/policy.hpp"
#include "scenario/campaign.hpp"
#include "util/rng.hpp"

namespace qrm {
namespace {

// ---------------------------------------------------------------------------
// campaign_policy(): the plan-cache attachment
// ---------------------------------------------------------------------------

TEST(ExecResolve, PlanCacheTrueAttachesAFreshCacheWhenBaseHasNone) {
  const exec::ExecPolicy resolved = scenario::campaign_policy({});
  ASSERT_NE(resolved.plan_cache, nullptr);
  EXPECT_EQ(resolved.plan_cache->stats().hits, 0u);
}

TEST(ExecResolve, PlanCacheTrueKeepsAnAlreadyAttachedCache) {
  // The cross-shard warm-cache mode: a cache attached to the base must
  // survive plan_cache = true (same pointer, not a fresh cache).
  scenario::CampaignConfig config;
  config.exec.plan_cache = std::make_shared<exec::PlanCache>();
  EXPECT_EQ(scenario::campaign_policy(config).plan_cache, config.exec.plan_cache);
}

// ---------------------------------------------------------------------------
// Campaign stack: the base policy, then plan_cache
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
  config.plan_cache = false;  // strip the campaign's cache default
  const exec::ExecPolicy policy = scenario::campaign_policy(config);
  EXPECT_EQ(policy.workers, 0u);
  EXPECT_EQ(policy.replan, ReplanMode::Scratch);
  EXPECT_EQ(policy.plan_cache, nullptr);
  EXPECT_FALSE(policy.keep_schedules);
}

TEST(ExecCampaignStack, UnsetOverridesExposeSpecThenBase) {
  // With the campaign fields silent, a scenario's BatchConfig takes its
  // scenario keys from the spec and its execution knobs from the base.
  // The spec's replan key selects nothing, so it never reaches the policy.
  scenario::ScenarioSpec spec = exec_spec();
  spec.replan = ReplanMode::Delta;

  scenario::CampaignConfig config;
  config.exec.workers = 2;  // base set, campaign silent
  config.exec.keep_schedules = true;
  const exec::ExecPolicy policy = scenario::campaign_policy(config);
  EXPECT_EQ(policy.workers, 2u);
  EXPECT_TRUE(policy.keep_schedules);
  EXPECT_EQ(policy.replan, ReplanMode::Scratch);

  const batch::BatchConfig batch = scenario::to_batch_config(spec, policy);
  EXPECT_EQ(batch.shots, spec.shots);
  EXPECT_EQ(batch.grid_height, spec.grid_height);
  EXPECT_EQ(batch.grid_width, spec.grid_width);
  EXPECT_EQ(batch.exec.workers, 2u);
  EXPECT_TRUE(batch.exec.keep_schedules);
  EXPECT_EQ(batch.exec.replan, ReplanMode::Scratch);
  EXPECT_EQ(batch.exec.plan_cache, policy.plan_cache);
}

TEST(ExecCampaignStack, PlanCacheDefaultsOnAndCliTurnsItOff) {
  // CampaignConfig ships plan_cache = true; `--plan-cache off` writes
  // plan_cache = false and detaches every cache, a pre-attached one too.
  scenario::CampaignConfig config;
  EXPECT_NE(scenario::campaign_policy(config).plan_cache, nullptr);
  config.plan_cache = false;
  EXPECT_EQ(scenario::campaign_policy(config).plan_cache, nullptr);
  config.exec.plan_cache = std::make_shared<exec::PlanCache>();
  EXPECT_EQ(scenario::campaign_policy(config).plan_cache, nullptr);
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
