// Sharded campaign execution and report merging: shard_of stability,
// run_shard partitioning, and the text-level CSV/JSON mergers — including
// the fuzz-style round trip (random shard splits, empty shards,
// single-scenario shards must merge back to the unsharded report byte for
// byte).

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "scenario/campaign.hpp"
#include "scenario/report_merge.hpp"
#include "util/assert.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace qrm {
namespace {

using scenario::CampaignConfig;
using scenario::CampaignReport;
using scenario::CampaignRunner;
using scenario::LoadProfile;
using scenario::ReportMode;
using scenario::ScenarioSpec;

/// A small mixed-profile matrix, cheap enough for repeated reruns.
std::vector<ScenarioSpec> tiny_matrix() {
  std::vector<ScenarioSpec> specs;
  const LoadProfile profiles[] = {LoadProfile::Uniform, LoadProfile::Clustered,
                                  LoadProfile::Gradient, LoadProfile::Pattern,
                                  LoadProfile::Uniform};
  const char* names[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
  for (std::size_t i = 0; i < 5; ++i) {
    ScenarioSpec spec;
    spec.name = names[i];
    spec.grid_height = spec.grid_width = 16;
    spec.target_rows = spec.target_cols = 8;
    spec.load = profiles[i];
    spec.fill = 0.7;
    spec.shots = 4;
    spec.seed = 0x5EED0 + i;
    spec.max_rounds = 3;
    specs.push_back(spec);
  }
  return specs;
}

std::string csv_text(const CampaignReport& report) {
  std::ostringstream os;
  scenario::write_csv(report, os, ReportMode::Deterministic);
  return os.str();
}

std::string json_text(const CampaignReport& report) {
  std::ostringstream os;
  scenario::write_json(report, os, ReportMode::Deterministic);
  return os.str();
}

/// Every shard of config.shards through run_shard, merged by the text
/// mergers: what independent shard processes plus merge-csv/merge-json do.
std::pair<std::string, std::string> run_all_shards(CampaignConfig config,
                                                   const std::vector<ScenarioSpec>& specs) {
  std::vector<std::string> csvs;
  std::vector<std::string> jsons;
  for (config.shard_index = 0; config.shard_index < config.shards; ++config.shard_index) {
    const CampaignReport report = CampaignRunner(config).run_shard(specs);
    csvs.push_back(csv_text(report));
    jsons.push_back(json_text(report));
  }
  return {scenario::merge_csv_reports(csvs), scenario::merge_json_reports(jsons)};
}

TEST(ShardOf, IsAStableNameHashBelowTheShardCount) {
  EXPECT_EQ(scenario::shard_of("anything", 1), 0u);
  for (const std::uint32_t shards : {2u, 3u, 7u}) {
    for (const char* name : {"paper-fig7", "smoke-uniform", "a", ""}) {
      const std::uint32_t shard = scenario::shard_of(name, shards);
      EXPECT_LT(shard, shards);
      // The assignment is a pure function of (name, shards) — the property
      // multi-process sharding rests on.
      EXPECT_EQ(shard, scenario::shard_of(name, shards));
      EXPECT_EQ(shard, static_cast<std::uint32_t>(fnv::hash_text(name) % shards));
    }
  }
  EXPECT_THROW((void)scenario::shard_of("x", 0), PreconditionError);
}

TEST(ShardedCampaign, RunShardPartitionsTheFilteredMatrix) {
  const std::vector<ScenarioSpec> specs = tiny_matrix();
  CampaignConfig config;
  config.exec.workers = 2;
  for (const std::uint32_t shards : {2u, 3u, 5u}) {
    config.shards = shards;
    std::set<std::size_t> seen_indices;
    std::size_t total = 0;
    for (std::uint32_t shard = 0; shard < shards; ++shard) {
      config.shard_index = shard;
      const CampaignReport report = CampaignRunner(config).run_shard(specs);
      for (const scenario::ScenarioOutcome& outcome : report.scenarios) {
        EXPECT_EQ(scenario::shard_of(outcome.spec.name, shards), shard);
        EXPECT_TRUE(seen_indices.insert(outcome.index).second)
            << "index " << outcome.index << " ran in two shards";
        ++total;
      }
    }
    EXPECT_EQ(total, specs.size()) << shards << " shards lost scenarios";
  }
}

TEST(ShardedCampaign, MergedRunMatchesSequentialForAnyShardsAndWorkers) {
  const std::vector<ScenarioSpec> specs = tiny_matrix();
  CampaignConfig sequential_config;
  sequential_config.exec.workers = 1;
  const CampaignReport sequential = CampaignRunner(sequential_config).run(specs);
  const std::string sequential_csv = csv_text(sequential);
  const std::string sequential_json = json_text(sequential);

  for (const std::uint32_t shards : {2u, 3u, 5u}) {
    for (const std::uint32_t workers : {1u, 3u}) {
      CampaignConfig config;
      config.exec.workers = workers;
      config.shards = shards;
      // run() runs the whole matrix only: shards go through run_shard.
      EXPECT_THROW((void)CampaignRunner(config).run(specs), PreconditionError);
      const auto [csv, json] = run_all_shards(config, specs);
      EXPECT_EQ(csv, sequential_csv) << shards << " shards, " << workers << " workers";
      EXPECT_EQ(json, sequential_json) << shards << " shards, " << workers << " workers";
    }
  }
}

TEST(ShardedCampaign, SharedCacheCountersCountEachLookupOnce) {
  // One pre-attached cache serves the run_shard calls of one process. Each
  // shard report records only what its own run added, so the summed
  // counters equal the unsharded run's and the cache's own. Six identical
  // Pattern scenarios on one worker make every count exact.
  std::vector<ScenarioSpec> specs;
  std::set<std::uint32_t> shards_used;
  for (int i = 0; i < 6; ++i) {
    ScenarioSpec spec;
    spec.name = "pattern-" + std::to_string(i);
    spec.grid_height = spec.grid_width = 16;
    spec.target_rows = spec.target_cols = 8;
    spec.load = LoadProfile::Pattern;
    spec.shots = 4;
    spec.max_rounds = 3;
    specs.push_back(spec);
    shards_used.insert(scenario::shard_of(spec.name, 3));
  }
  ASSERT_GT(shards_used.size(), 1u) << "the specs must span several shards";

  const auto expect_counts = [](const exec::PlanCacheStats& actual,
                                const exec::PlanCacheStats& expected, const char* what) {
    EXPECT_EQ(actual.hits, expected.hits) << what;
    EXPECT_EQ(actual.misses, expected.misses) << what;
    EXPECT_EQ(actual.entries, expected.entries) << what;
    EXPECT_EQ(actual.evictions, expected.evictions) << what;
  };
  exec::PlanCacheStats unsharded;
  for (const std::uint32_t shards : {1u, 3u}) {
    CampaignConfig config;
    config.exec.workers = 1;
    config.exec.plan_cache = std::make_shared<exec::PlanCache>();
    config.shards = shards;
    exec::PlanCacheStats summed;
    for (config.shard_index = 0; config.shard_index < shards; ++config.shard_index) {
      const exec::PlanCacheStats added = CampaignRunner(config).run_shard(specs).plan_cache;
      summed.hits += added.hits;
      summed.misses += added.misses;
      summed.entries += added.entries;
      summed.evictions += added.evictions;
    }
    const exec::PlanCacheStats cache = config.exec.plan_cache->stats();
    EXPECT_GT(cache.hits, 0u);
    expect_counts(summed, cache, shards == 1 ? "1 shard" : "3 shards");
    if (shards == 1) unsharded = summed;
    expect_counts(summed, unsharded, "sharded vs unsharded");
  }
}

TEST(ShardedCampaign, RunShardRejectsAFilterMatchingNothingAnywhere) {
  // An empty shard is fine, but a typo'd filter must not let a whole fleet
  // of shard processes go green with zero scenarios run.
  CampaignConfig config;
  config.exec.workers = 2;
  config.shards = 3;
  config.shard_index = 0;
  config.filter = "no-such-tag";
  EXPECT_THROW((void)CampaignRunner(config).run_shard(tiny_matrix()), PreconditionError);
}

TEST(ShardedCampaign, EmptyShardIsValidAndTextMergeReassemblesSequential) {
  const std::vector<ScenarioSpec> specs = tiny_matrix();
  CampaignConfig config;
  config.exec.workers = 2;
  // More shards than scenarios guarantees at least one empty shard.
  config.shards = 8;

  std::vector<std::string> shard_csvs;
  std::vector<std::string> shard_jsons;
  bool saw_empty = false;
  for (std::uint32_t shard = 0; shard < config.shards; ++shard) {
    config.shard_index = shard;
    const CampaignReport report = CampaignRunner(config).run_shard(specs);
    saw_empty = saw_empty || report.scenarios.empty();
    shard_csvs.push_back(csv_text(report));
    shard_jsons.push_back(json_text(report));
  }
  ASSERT_TRUE(saw_empty);

  CampaignConfig sequential_config;
  sequential_config.exec.workers = 2;
  const CampaignReport sequential = CampaignRunner(sequential_config).run(specs);
  EXPECT_EQ(scenario::merge_csv_reports(shard_csvs), csv_text(sequential));
  EXPECT_EQ(scenario::merge_json_reports(shard_jsons), json_text(sequential));
}

TEST(ReportMerge, FuzzRandomShardSplitsRoundTrip) {
  // The mergers must not care *how* rows were partitioned — any split of
  // the sequential report (including empty and single-scenario shards)
  // must reassemble byte-identically. Splits are structural (no replanning)
  // so 24 fuzz rounds stay cheap.
  CampaignConfig config;
  config.exec.workers = 2;
  const CampaignReport sequential = CampaignRunner(config).run(tiny_matrix());
  const std::string sequential_csv = csv_text(sequential);
  const std::string sequential_json = json_text(sequential);

  Rng rng(0xF0552);
  for (int round = 0; round < 24; ++round) {
    const std::uint32_t shard_count = 1 + rng.uniform_below(6);
    std::vector<CampaignReport> shards(shard_count);
    for (const scenario::ScenarioOutcome& outcome : sequential.scenarios)
      shards[rng.uniform_below(shard_count)].scenarios.push_back(outcome);

    std::vector<std::string> csvs;
    std::vector<std::string> jsons;
    for (const CampaignReport& shard : shards) {
      csvs.push_back(csv_text(shard));
      jsons.push_back(json_text(shard));
    }
    EXPECT_EQ(scenario::merge_csv_reports(csvs), sequential_csv) << "round " << round;
    EXPECT_EQ(scenario::merge_json_reports(jsons), sequential_json) << "round " << round;
  }
}

TEST(ReportMerge, RejectsMalformedShardSets) {
  CampaignConfig config;
  config.exec.workers = 2;
  const std::vector<ScenarioSpec> specs = tiny_matrix();
  const CampaignReport sequential = CampaignRunner(config).run(specs);
  const std::string csv = csv_text(sequential);
  const std::string json = json_text(sequential);

  // Duplicate indices (the same shard twice).
  EXPECT_THROW((void)scenario::merge_csv_reports({csv, csv}), PreconditionError);
  EXPECT_THROW((void)scenario::merge_json_reports({json, json}), PreconditionError);

  // Missing indices: drop the report's first scenario.
  CampaignReport truncated = sequential;
  truncated.scenarios.erase(truncated.scenarios.begin());
  EXPECT_THROW((void)scenario::merge_csv_reports({csv_text(truncated)}), PreconditionError);
  EXPECT_THROW((void)scenario::merge_json_reports({json_text(truncated)}), PreconditionError);

  // Full-mode artifacts carry measurement columns and must be refused.
  std::ostringstream full_csv;
  scenario::write_csv(sequential, full_csv, ReportMode::Full);
  EXPECT_THROW((void)scenario::merge_csv_reports({full_csv.str()}), PreconditionError);
  std::ostringstream full_json;
  scenario::write_json(sequential, full_json, ReportMode::Full);
  EXPECT_THROW((void)scenario::merge_json_reports({full_json.str()}), PreconditionError);

  // Header drift between shards.
  CampaignReport even;
  CampaignReport odd;
  for (const scenario::ScenarioOutcome& outcome : sequential.scenarios)
    (outcome.index % 2 == 0 ? even : odd).scenarios.push_back(outcome);
  std::string tampered = csv_text(odd);
  tampered.replace(tampered.find("scenario"), 8, "scenArio");
  EXPECT_THROW((void)scenario::merge_csv_reports({csv_text(even), tampered}),
               PreconditionError);

  // A shard cut off mid-row: the cut row still starts with a valid index,
  // so only its cell count gives it away.
  std::string cut_csv = csv_text(odd);
  cut_csv.resize(cut_csv.rfind(','));
  EXPECT_THROW((void)scenario::merge_csv_reports({csv_text(even), cut_csv}), PreconditionError);

  // A block whose success_rate line was cut short keeps its index and
  // fingerprint, so only its field keys give it away.
  std::string cut_json = json_text(odd);
  const std::size_t cut_at = cut_json.find("      \"success_rate\"");
  cut_json.replace(cut_at, cut_json.find('\n', cut_at) - cut_at, "      \"succ");
  EXPECT_THROW((void)scenario::merge_json_reports({json_text(even), cut_json}),
               PreconditionError);

  // No shards at all.
  EXPECT_THROW((void)scenario::merge_csv_reports({}), PreconditionError);
  EXPECT_THROW((void)scenario::merge_json_reports({}), PreconditionError);
}

}  // namespace
}  // namespace qrm
