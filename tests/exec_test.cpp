// Tests for qrm::exec — the unified execution-policy layer — and the flat
// campaign policy on top of it. CampaignConfig carries a base ExecPolicy
// plus two campaign fields: `replan` (unset = each spec's own key) and
// `plan_cache` (on attaches one cache per shard unless exec already carries
// one; off detaches). These cases pin campaign_policy / resolve_exec and the
// runner's rejection of an exec.replan it would never read — the behaviour
// the scenario_runner flags, which write exactly these fields, promise.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exec/plan_cache.hpp"
#include "exec/policy.hpp"
#include "scenario/campaign.hpp"
#include "util/assert.hpp"
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
  EXPECT_EQ(scenario::resolve_exec(config, {}).plan_cache, config.exec.plan_cache);
}

// ---------------------------------------------------------------------------
// Campaign stack: CampaignConfig::replan > spec key > default
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
  const exec::ExecPolicy policy = scenario::resolve_exec(config, exec_spec());
  EXPECT_EQ(policy.workers, 0u);
  EXPECT_EQ(policy.replan, ReplanMode::Scratch);
  EXPECT_EQ(policy.plan_cache, nullptr);
  EXPECT_FALSE(policy.keep_schedules);
}

TEST(ExecCampaignStack, SpecKeysBeatDefaults) {
  // An unset CampaignConfig::replan falls through to the spec's own key.
  scenario::ScenarioSpec spec = exec_spec();
  spec.replan = ReplanMode::Delta;
  EXPECT_EQ(scenario::resolve_exec({}, spec).replan, ReplanMode::Delta);
  spec.replan = ReplanMode::Scratch;
  EXPECT_EQ(scenario::resolve_exec({}, spec).replan, ReplanMode::Scratch);
}

TEST(ExecCampaignStack, CampaignOverridesBeatSpecKeys) {
  // A set CampaignConfig::replan wins over the spec in both directions;
  // Scratch is a value, not "unset".
  scenario::ScenarioSpec spec = exec_spec();
  scenario::CampaignConfig config;
  spec.replan = ReplanMode::Delta;
  config.replan = ReplanMode::Scratch;
  EXPECT_EQ(scenario::resolve_exec(config, spec).replan, ReplanMode::Scratch);
  spec.replan = ReplanMode::Scratch;
  config.replan = ReplanMode::Delta;
  EXPECT_EQ(scenario::resolve_exec(config, spec).replan, ReplanMode::Delta);
}

TEST(ExecCampaignStack, UnsetOverridesExposeSpecThenBase) {
  scenario::ScenarioSpec spec = exec_spec();
  spec.replan = ReplanMode::Delta;

  scenario::CampaignConfig config;
  config.exec.workers = 2;  // base set, spec and campaign silent
  config.exec.keep_schedules = true;
  // replan: campaign silent -> the spec's Delta shows through.
  const exec::ExecPolicy policy = scenario::resolve_exec(config, spec);
  EXPECT_EQ(policy.workers, 2u);
  EXPECT_TRUE(policy.keep_schedules);
  EXPECT_EQ(policy.replan, ReplanMode::Delta);
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
  EXPECT_EQ(scenario::resolve_exec(config, exec_spec()).plan_cache, nullptr);
}

TEST(ExecCampaignStack, CampaignPolicyIgnoresSpecKeys) {
  // campaign_policy resolves the campaign-scope policy only; replan enters
  // per scenario via resolve_exec. A campaign whose specs ask for Delta
  // still has a Scratch campaign policy.
  scenario::CampaignConfig config;
  EXPECT_EQ(scenario::campaign_policy(config).replan, ReplanMode::Scratch);
}

TEST(ExecCampaignStack, RunnerRejectsAnExecReplanItWouldNeverRead) {
  // The campaign's replan knob is CampaignConfig::replan; exec.replan would
  // be silently overwritten per scenario, so the runner refuses it and
  // names the field to set instead.
  scenario::CampaignConfig config;
  config.exec.workers = 1;
  config.exec.replan = ReplanMode::Delta;
  const std::vector<scenario::ScenarioSpec> specs = {exec_spec()};
  try {
    (void)scenario::CampaignRunner(config).run(specs);
    FAIL() << "a Delta exec.replan must be rejected";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("CampaignConfig::replan"), std::string::npos)
        << error.what();
  }
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
