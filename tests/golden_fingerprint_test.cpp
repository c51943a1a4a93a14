// Golden-fingerprint battery: pins the spec identity fingerprint of every
// registry scenario and the outcome fingerprint of every non-stress one to
// a checked-in corpus (tests/golden_fingerprints.inc). Any drift — a
// serialization change, a planner behaviour change, an RNG stream reorder —
// fails loudly here with old-vs-new values, instead of silently shifting
// every downstream report.
//
// Intentional changes regenerate the corpus (one command line):
//   QRM_PRINT_GOLDEN=1 ./tests/golden_fingerprint_test
//       --gtest_filter='*RegenerateCorpus*'
// and paste the printed rows into tests/golden_fingerprints.inc.
//
// Stress-tier scenarios (tag "stress", e.g. large-grid-256) pin only their
// spec fingerprint: their outcomes take minutes to compute, which does not
// belong in tier-1. Their planning behaviour is still covered at small
// sizes by every other row.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>

#include "scenario/campaign.hpp"
#include "scenario/registry.hpp"
#include "util/fnv.hpp"

namespace qrm {
namespace {

struct GoldenRow {
  const char* name;
  std::uint64_t spec_fingerprint;
  std::uint64_t outcome_fingerprint;  ///< 0 = not pinned (stress tier)
};

constexpr GoldenRow kGolden[] = {
#include "golden_fingerprints.inc"
};

constexpr const char* kRegenerateHint =
    "\nIf this change is intentional, regenerate the corpus with"
    "\n  QRM_PRINT_GOLDEN=1 ./tests/golden_fingerprint_test"
    " --gtest_filter='*RegenerateCorpus*'"
    "\nand replace the rows in tests/golden_fingerprints.inc.";

std::uint64_t spec_fingerprint(const scenario::ScenarioSpec& spec) {
  return fnv::hash_text(serialize(spec));
}

std::uint64_t outcome_fingerprint(const scenario::ScenarioSpec& spec,
                                  std::optional<ReplanMode> replan = std::nullopt,
                                  bool plan_cache = true) {
  scenario::CampaignConfig config;
  config.exec.workers = 4;  // fingerprints are worker-count independent
  config.replan = replan;
  config.plan_cache = plan_cache;
  return scenario::CampaignRunner(config).run_one(spec).fingerprint;
}

const GoldenRow* find_row(const std::string& name) {
  for (const GoldenRow& row : kGolden)
    if (name == row.name) return &row;
  return nullptr;
}

TEST(GoldenFingerprints, CorpusCoversTheRegistryExactly) {
  std::set<std::string> registry_names;
  for (const scenario::ScenarioSpec& spec : scenario::registry()) {
    registry_names.insert(spec.name);
    EXPECT_NE(find_row(spec.name), nullptr)
        << "registry scenario '" << spec.name << "' has no golden row" << kRegenerateHint;
    // Outcome pinning is mandatory outside the stress tier: a new scenario
    // must land with its golden outcome, not opt out.
    const GoldenRow* row = find_row(spec.name);
    if (row != nullptr) {
      EXPECT_EQ(row->outcome_fingerprint == 0, spec.has_tag("stress"))
          << "scenario '" << spec.name
          << "': only stress-tier scenarios may leave the outcome unpinned" << kRegenerateHint;
    }
  }
  for (const GoldenRow& row : kGolden) {
    EXPECT_EQ(registry_names.count(row.name), 1u)
        << "golden row '" << row.name << "' names no registry scenario" << kRegenerateHint;
  }
  EXPECT_EQ(std::size(kGolden), scenario::registry().size());
}

TEST(GoldenFingerprints, SpecFingerprintsHaveNotDrifted) {
  for (const scenario::ScenarioSpec& spec : scenario::registry()) {
    const GoldenRow* row = find_row(spec.name);
    if (row == nullptr) continue;  // covered by CorpusCoversTheRegistryExactly
    const std::uint64_t recomputed = spec_fingerprint(spec);
    EXPECT_EQ(recomputed, row->spec_fingerprint)
        << "spec fingerprint drift for '" << spec.name << "': golden 0x" << std::hex
        << row->spec_fingerprint << ", recomputed 0x" << recomputed << std::dec
        << "\nserialized spec now reads:\n"
        << serialize(spec) << kRegenerateHint;
  }
}

TEST(GoldenFingerprints, OutcomeFingerprintsHaveNotDrifted) {
  for (const scenario::ScenarioSpec& spec : scenario::registry()) {
    const GoldenRow* row = find_row(spec.name);
    if (row == nullptr || row->outcome_fingerprint == 0) continue;
    const std::uint64_t recomputed = outcome_fingerprint(spec);
    EXPECT_EQ(recomputed, row->outcome_fingerprint)
        << "outcome fingerprint drift for '" << spec.name << "': golden 0x" << std::hex
        << row->outcome_fingerprint << ", recomputed 0x" << recomputed << std::dec
        << kRegenerateHint;
  }
}

TEST(GoldenFingerprints, PatternScenariosMatchGoldenWithTheCacheOff) {
  // The cache's hottest path (identical per-shot Pattern grids) must land
  // on the same golden value cold — differential proof that hits splice
  // bit-equal plans.
  for (const scenario::ScenarioSpec& spec : scenario::registry()) {
    if (spec.load != scenario::LoadProfile::Pattern) continue;
    const GoldenRow* row = find_row(spec.name);
    if (row == nullptr || row->outcome_fingerprint == 0) continue;
    EXPECT_EQ(outcome_fingerprint(spec, std::nullopt, /*plan_cache=*/false),
              row->outcome_fingerprint)
        << "cache-off outcome diverged from golden for '" << spec.name << "'";
  }
}

TEST(GoldenFingerprints, OutcomesMatchGoldenUnderDeltaReplanning) {
  // The whole pinned corpus re-run with ReplanMode::Delta forced on
  // (campaign-level override; serialized specs and spec fingerprints
  // untouched). Zero drift tolerated: delta replanning reuses quadrant
  // kernels but must produce bit-identical plans, so every loss draw, every
  // round count, and every final grid lands on the scratch value. The
  // plan cache stays off so every single round actually exercises the
  // delta path instead of being served a memoised scratch plan.
  for (const scenario::ScenarioSpec& spec : scenario::registry()) {
    const GoldenRow* row = find_row(spec.name);
    if (row == nullptr || row->outcome_fingerprint == 0) continue;
    const std::uint64_t recomputed =
        outcome_fingerprint(spec, ReplanMode::Delta, /*plan_cache=*/false);
    EXPECT_EQ(recomputed, row->outcome_fingerprint)
        << "delta replanning drifted the outcome for '" << spec.name << "': golden 0x"
        << std::hex << row->outcome_fingerprint << ", recomputed 0x" << recomputed << std::dec
        << "\ndelta plans must be bit-identical to scratch" << kRegenerateHint;
  }
}

TEST(GoldenFingerprints, RegenerateCorpus) {
  if (std::getenv("QRM_PRINT_GOLDEN") == nullptr)
    GTEST_SKIP() << "set QRM_PRINT_GOLDEN=1 to print a fresh corpus";
  std::printf("// ---- paste into tests/golden_fingerprints.inc ----\n");
  for (const scenario::ScenarioSpec& spec : scenario::registry()) {
    const std::uint64_t outcome = spec.has_tag("stress") ? 0 : outcome_fingerprint(spec);
    std::printf("{\"%s\", 0x%016llxULL, 0x%016llxULL},\n", spec.name.c_str(),
                static_cast<unsigned long long>(spec_fingerprint(spec)),
                static_cast<unsigned long long>(outcome));
  }
  std::printf("// ---- end corpus ----\n");
}

}  // namespace
}  // namespace qrm
