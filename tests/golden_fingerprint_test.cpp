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
// spec fingerprint: large-grid-256's outcome takes ~0.15 s in Release but
// ~33 s in a Debug --coverage build, and each corpus pass computes it once.
// Multi-word lines (grids wider than 64 sites) are still pinned end to end
// by the 128x128 multi-word-128 row.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
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

std::uint64_t outcome_fingerprint(const scenario::ScenarioSpec& spec, bool plan_cache = true) {
  scenario::CampaignConfig config;
  config.exec.workers = 4;  // fingerprints are worker-count independent
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

TEST(GoldenFingerprints, OutcomesMatchGoldenWithTheCacheOff) {
  // Every pinned scenario planned cold on every round must land on its
  // golden value: differential proof that cache hits, the hottest path
  // being identical per-shot Pattern grids, splice bit-equal plans.
  for (const scenario::ScenarioSpec& spec : scenario::registry()) {
    const GoldenRow* row = find_row(spec.name);
    if (row == nullptr || row->outcome_fingerprint == 0) continue;
    EXPECT_EQ(outcome_fingerprint(spec, /*plan_cache=*/false), row->outcome_fingerprint)
        << "cache-off outcome diverged from golden for '" << spec.name << "'";
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
