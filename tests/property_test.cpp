// Randomised property suites cutting across the low-level substrate:
// BitRow identities against a naive boolean-vector model, grid flip
// algebra, quadrant-frame invariants, and realizer/AOD round-trips on the
// column axis. These complement the per-module unit tests with
// model-checking style coverage at awkward widths (word boundaries).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "batch/batch_planner.hpp"
#include "detection/calibration.hpp"
#include "exec/plan_cache.hpp"
#include "core/planner.hpp"
#include "core/quadrant_plan.hpp"
#include "lattice/grid.hpp"
#include "lattice/quadrant.hpp"
#include "loading/loader.hpp"
#include "moves/dead_channels.hpp"
#include "moves/realizer.hpp"
#include "runtime/rearrangement_loop.hpp"
#include "scenario/campaign.hpp"
#include "scenario/report.hpp"
#include "testutil.hpp"
#include "util/bitrow.hpp"
#include "util/rng.hpp"

namespace qrm {
namespace {

/// Naive reference model of BitRow: vector<bool> with the same interface.
struct NaiveRow {
  std::vector<bool> bits;

  static NaiveRow random(std::uint32_t width, Rng& rng, double p) {
    NaiveRow row;
    row.bits.resize(width);
    for (std::uint32_t i = 0; i < width; ++i) row.bits[i] = rng.bernoulli(p);
    return row;
  }
  [[nodiscard]] BitRow to_bitrow() const {
    BitRow out(static_cast<std::uint32_t>(bits.size()));
    for (std::uint32_t i = 0; i < bits.size(); ++i)
      if (bits[i]) out.set(i);
    return out;
  }
  void shift_toward_lsb(std::uint32_t n) {
    for (std::size_t i = 0; i < bits.size(); ++i)
      bits[i] = (i + n < bits.size()) && bits[i + n];
  }
  [[nodiscard]] std::uint32_t count() const {
    std::uint32_t n = 0;
    for (const bool b : bits) n += b ? 1 : 0;
    return n;
  }
};

class BitRowWidths : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BitRowWidths, ShiftsMatchNaiveModel) {
  const std::uint32_t width = GetParam();
  Rng rng(width * 31 + 7);
  for (int trial = 0; trial < 20; ++trial) {
    NaiveRow naive = NaiveRow::random(width, rng, 0.5);
    BitRow row = naive.to_bitrow();
    const std::uint32_t shift = rng.uniform_below(width + 2);
    naive.shift_toward_lsb(shift);
    row.shift_toward_lsb(shift);
    EXPECT_EQ(row, naive.to_bitrow()) << "width " << width << " shift " << shift;
  }
}

TEST_P(BitRowWidths, CountAndRangeConsistent) {
  const std::uint32_t width = GetParam();
  Rng rng(width * 17 + 3);
  for (int trial = 0; trial < 10; ++trial) {
    const NaiveRow naive = NaiveRow::random(width, rng, 0.4);
    const BitRow row = naive.to_bitrow();
    EXPECT_EQ(row.count(), naive.count());
    const std::uint32_t lo = rng.uniform_below(width + 1);
    const std::uint32_t hi = lo + rng.uniform_below(width + 1 - lo);
    std::uint32_t expected = 0;
    for (std::uint32_t i = lo; i < hi; ++i) expected += naive.bits[i] ? 1u : 0u;
    EXPECT_EQ(row.count_range(lo, hi), expected);
  }
}

TEST_P(BitRowWidths, CompactionInvariants) {
  // The planner's compaction (compact_pass) of a one-row local grid.
  const std::uint32_t width = GetParam();
  Rng rng(width * 13 + 1);
  for (int trial = 0; trial < 10; ++trial) {
    const BitRow row = NaiveRow::random(width, rng, 0.5).to_bitrow();
    OccupancyGrid local(1, static_cast<std::int32_t>(width));
    local.set_row(0, row);
    const auto assignments = compact_pass(local, Axis::Rows);
    const bool compact = row.count_range(0, row.count()) == row.count();
    ASSERT_EQ(assignments.size(), compact ? 0u : 1u);
    if (compact) continue;
    const LineAssignment& a = assignments.front();
    const std::vector<std::uint32_t> atoms = row.set_positions();
    ASSERT_EQ(a.sources.size(), atoms.size());
    ASSERT_EQ(a.targets.size(), atoms.size());
    // Atoms keep their order and fill the prefix; displacements are the hole
    // counts below each atom: non-decreasing, bounded by the holes.
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      EXPECT_EQ(a.sources[i], static_cast<std::int32_t>(atoms[i]));
      EXPECT_EQ(a.targets[i], static_cast<std::int32_t>(i));
      if (i > 0) {
        EXPECT_GE(a.sources[i] - a.targets[i], a.sources[i - 1] - a.targets[i - 1]);
      }
    }
    EXPECT_LE(a.sources.back() - a.targets.back(), static_cast<std::int32_t>(width - row.count()));
  }
}

TEST_P(BitRowWidths, ReversalIsInvolutionAndPreservesCount) {
  // assign_slice's reverse mode is the row reversal the quadrant mirrors run.
  const std::uint32_t width = GetParam();
  Rng rng(width * 11 + 5);
  const BitRow row = NaiveRow::random(width, rng, 0.5).to_bitrow();
  BitRow reversed(width);
  reversed.assign_slice(row, 0, true);
  BitRow back(width);
  back.assign_slice(reversed, 0, true);
  EXPECT_EQ(back, row);
  EXPECT_EQ(reversed.count(), row.count());
  if (width > 0 && row.any()) {
    EXPECT_EQ(reversed.test(0), row.test(width - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(WordBoundaryWidths, BitRowWidths,
                         ::testing::Values<std::uint32_t>(1, 7, 63, 64, 65, 127, 128, 129, 200));

// ---------------------------------------------------------------------------
// Grid flip algebra
// ---------------------------------------------------------------------------

TEST(GridAlgebra, HorizontalThenVerticalIsRotate180) {
  const OccupancyGrid g = load_random(9, 13, {0.5, 77});
  EXPECT_EQ(g.flipped(Flip::Horizontal).flipped(Flip::Vertical), g.flipped(Flip::Rotate180));
  EXPECT_EQ(g.flipped(Flip::Vertical).flipped(Flip::Horizontal), g.flipped(Flip::Rotate180));
}

TEST(GridAlgebra, FlipsPreserveAtomCount) {
  const OccupancyGrid g = load_random(10, 6, {0.45, 79});
  for (const Flip f : {Flip::None, Flip::Horizontal, Flip::Vertical, Flip::Rotate180}) {
    EXPECT_EQ(g.flipped(f).atom_count(), g.atom_count());
  }
}

// ---------------------------------------------------------------------------
// Quadrant frame invariants
// ---------------------------------------------------------------------------

class QuadrantSizes : public ::testing::TestWithParam<std::pair<std::int32_t, std::int32_t>> {};

TEST_P(QuadrantSizes, LocalAtomCountsPartitionTheGlobalCount) {
  const auto [h, w] = GetParam();
  const OccupancyGrid g = load_random(h, w, {0.5, static_cast<std::uint64_t>(h * w)});
  const QuadrantGeometry geom(h, w);
  std::int64_t total = 0;
  for (const Quadrant q : kAllQuadrants) total += geom.extract_local(g, q).atom_count();
  EXPECT_EQ(total, g.atom_count());
}

TEST_P(QuadrantSizes, LocalFrameOrientationIsCentreFirst) {
  // Filling the centre 2x2 of the global grid must appear at local (0,0)
  // of every quadrant.
  const auto [h, w] = GetParam();
  OccupancyGrid g(h, w);
  g.set({h / 2 - 1, w / 2 - 1});
  g.set({h / 2 - 1, w / 2});
  g.set({h / 2, w / 2 - 1});
  g.set({h / 2, w / 2});
  const QuadrantGeometry geom(h, w);
  for (const Quadrant q : kAllQuadrants) {
    const OccupancyGrid local = geom.extract_local(g, q);
    EXPECT_TRUE(local.occupied({0, 0})) << to_cstring(q);
    EXPECT_EQ(local.atom_count(), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(EvenSizes, QuadrantSizes,
                         ::testing::Values(std::pair{4, 4}, std::pair{6, 10}, std::pair{12, 8},
                                           std::pair{50, 50}));

// ---------------------------------------------------------------------------
// Realizer on the column axis, randomized
// ---------------------------------------------------------------------------

TEST(RealizerProperty, RandomColumnAssignmentsReplayCleanly) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    OccupancyGrid g = load_random(12, 9, {0.4, 4000 + static_cast<std::uint64_t>(trial)});
    const OccupancyGrid initial = g;
    std::vector<LineAssignment> lines;
    for (std::int32_t c = 0; c < g.width(); ++c) {
      const auto atoms = g.column(c).set_positions();
      if (atoms.empty()) continue;
      std::set<std::int32_t> placement;
      while (placement.size() < atoms.size()) {
        placement.insert(static_cast<std::int32_t>(rng.uniform_below(12)));
      }
      LineAssignment a;
      a.line = c;
      for (const auto p : atoms) a.sources.push_back(static_cast<std::int32_t>(p));
      a.targets.assign(placement.begin(), placement.end());
      lines.push_back(std::move(a));
    }
    Schedule s;
    (void)realize_assignments(g, Axis::Cols, lines, s);
    testutil::expect_replays_to(initial, s, g);
    // All moves on the column axis are vertical.
    for (const auto& m : s.moves()) EXPECT_FALSE(is_horizontal(m.dir));
  }
}

// ---------------------------------------------------------------------------
// Batch planning, randomized
// ---------------------------------------------------------------------------

// 50 random seeds — 10 random master seeds x 5 shots each: every pooled
// batch must agree shot-for-shot with the serial rearrangement loop run on
// the identical derived streams — replayed final grid, loss accounting —
// and each batch's aggregate fill-rate statistics must equal the serially
// computed ones exactly (same doubles, not approximately).
TEST(BatchProperty, FiftyRandomSeedsMatchTheSerialLoopExactly) {
  constexpr std::uint32_t kMasters = 10;
  constexpr std::uint32_t kShots = 5;
  Rng rng(0xBA7C4);
  for (std::uint32_t master = 0; master < kMasters; ++master) {
    batch::BatchConfig config;
    config.plan.target = centered_square(16, 10);
    config.grid_height = 16;
    config.grid_width = 16;
    config.fill = 0.65;
    config.shots = kShots;
    config.exec.workers = 4;
    config.master_seed = rng.next_u64();
    config.loss.per_move_loss = 0.02;
    config.loss.background_loss = 0.005;
    config.loss.seed = rng.next_u64();
    config.max_rounds = 6;
    config.exec.keep_schedules = true;

    const batch::BatchPlanner planner(config);
    const batch::BatchReport pooled = planner.run();
    ASSERT_EQ(pooled.shots.size(), kShots);

    double serial_fill_sum = 0.0;
    std::size_t serial_successes = 0;
    for (std::uint32_t shot = 0; shot < kShots; ++shot) {
      const std::uint64_t seed = derive_seed(config.master_seed, shot);
      const OccupancyGrid initial = load_random(16, 16, {config.fill, seed});
      rt::LoopConfig loop_config;
      loop_config.plan = config.plan;
      loop_config.loss = planner.effective_loss();
      loop_config.max_rounds = config.max_rounds;
      loop_config.shot_index = shot;
      const rt::LoopReport serial = rt::run_rearrangement_loop(initial, loop_config);

      const batch::ShotResult& batched = pooled.shots[shot];
      EXPECT_EQ(batched.planned_input, initial) << "master " << master << " shot " << shot;
      EXPECT_EQ(batched.final_grid, serial.final_grid) << "master " << master << " shot " << shot;
      EXPECT_EQ(batched.atoms_lost, serial.total_atoms_lost) << "shot " << shot;
      EXPECT_EQ(batched.success, serial.success) << "shot " << shot;
      EXPECT_EQ(batched.rounds, serial.rounds_used()) << "shot " << shot;

      const std::int64_t filled = serial.final_grid.atom_count(config.plan.target);
      serial_fill_sum += static_cast<double>(filled) /
                         static_cast<double>(config.plan.target.area());
      serial_successes += serial.success ? 1 : 0;
    }
    EXPECT_DOUBLE_EQ(pooled.mean_fill_rate(), serial_fill_sum / kShots);
    EXPECT_DOUBLE_EQ(pooled.success_rate(),
                     static_cast<double>(serial_successes) / kShots);
  }
}

// Lossless single-round shots: every retained schedule must replay from the
// shot's planned input exactly onto its reported final grid (the schedule
// *is* the rearrangement when no atom is lost).
TEST(BatchProperty, LosslessShotsReplayOntoTheirFinalGrids) {
  batch::BatchConfig config;
  config.plan.target = centered_square(14, 8);
  config.grid_height = 14;
  config.grid_width = 14;
  config.fill = 0.6;
  config.shots = 16;
  config.exec.workers = 4;
  config.loss = {.per_move_loss = 0.0, .background_loss = 0.0};
  config.max_rounds = 1;
  config.exec.keep_schedules = true;
  config.master_seed = 0xF1F7;

  const batch::BatchReport report = batch::BatchPlanner(config).run();
  for (const batch::ShotResult& shot : report.shots) {
    ASSERT_EQ(shot.schedules.size(), 1u) << "shot " << shot.shot;
    testutil::expect_replays_to(shot.planned_input, shot.schedules.front(), shot.final_grid);
  }
}

// 50 seeds of cache-hit-vs-cold-plan bit-equality: for every workload the
// cached path must return *exactly* the cold plan — schedule, final grid
// and stats — across both plan modes. This is the property the whole
// "fingerprints are cache-invariant" guarantee reduces to.
TEST(PlanCacheProperty, FiftySeedCacheHitVsColdPlanBitEquality) {
  exec::PlanCache cache;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    QrmConfig config;
    config.target = centered_square(16, seed % 2 == 0 ? 8 : 10);
    config.mode = seed % 3 == 0 ? PlanMode::Compact : PlanMode::Balanced;
    const QrmPlanner planner(config);
    const std::uint64_t key = exec::PlanCache::config_key("qrm", config);
    const OccupancyGrid grid = load_random(16, 16, {0.55 + 0.3 * (seed % 5) / 5.0, seed});

    const PlanResult cold = planner.plan(grid);
    cache.insert(key, grid, planner.plan(grid));
    const std::optional<PlanResult> hit = cache.find(key, grid);
    ASSERT_TRUE(hit.has_value()) << "seed " << seed;
    EXPECT_EQ(hit->schedule, cold.schedule) << "seed " << seed;
    EXPECT_EQ(hit->final_grid, cold.final_grid) << "seed " << seed;
    EXPECT_EQ(hit->stats, cold.stats) << "seed " << seed;
    EXPECT_EQ(*hit, cold) << "seed " << seed;
  }
}

// Shard-merge equivalence: any shard count x any worker count, one
// run_shard call per shard, must merge through the text mergers to
// deterministic CSV/JSON bytes identical to the sequential run's.
TEST(ShardProperty, AnyShardAndWorkerCountMergesToIdenticalReportBytes) {
  std::vector<scenario::ScenarioSpec> specs;
  for (int i = 0; i < 4; ++i) {
    scenario::ScenarioSpec spec;
    spec.name = "prop-" + std::to_string(i);
    spec.grid_height = spec.grid_width = 16;
    spec.target_rows = spec.target_cols = 8;
    spec.load = i % 2 == 0 ? scenario::LoadProfile::Uniform : scenario::LoadProfile::Pattern;
    spec.fill = 0.7;
    spec.shots = 3;
    spec.seed = 0xABC + i;
    spec.max_rounds = 3;
    specs.push_back(spec);
  }

  const auto csv_of = [](const scenario::CampaignReport& report) {
    std::ostringstream csv;
    scenario::write_csv(report, csv, scenario::ReportMode::Deterministic);
    return csv.str();
  };
  const auto json_of = [](const scenario::CampaignReport& report) {
    std::ostringstream json;
    scenario::write_json(report, json, scenario::ReportMode::Deterministic);
    return json.str();
  };

  scenario::CampaignConfig sequential;
  sequential.exec.workers = 1;
  const scenario::CampaignReport expected = scenario::CampaignRunner(sequential).run(specs);

  for (std::uint32_t shards = 1; shards <= 6; ++shards) {
    for (const std::uint32_t workers : {1u, 2u, 4u}) {
      scenario::CampaignConfig config;
      config.exec.workers = workers;
      config.shards = shards;
      std::vector<std::string> csvs;
      std::vector<std::string> jsons;
      for (config.shard_index = 0; config.shard_index < shards; ++config.shard_index) {
        const scenario::CampaignReport shard = scenario::CampaignRunner(config).run_shard(specs);
        csvs.push_back(csv_of(shard));
        jsons.push_back(json_of(shard));
      }
      EXPECT_EQ(scenario::merge_csv_reports(csvs), csv_of(expected))
          << shards << " shards, " << workers << " workers";
      EXPECT_EQ(scenario::merge_json_reports(jsons), json_of(expected))
          << shards << " shards, " << workers << " workers";
    }
  }
}

// ---------------------------------------------------------------------------
// Hostile physics, randomized
// ---------------------------------------------------------------------------

// 50 random seeds — 10 masters x 5 shots with every hostile axis engaged at
// once (correlated loss bursts, sinusoidal calibration drift, threshold
// miscalibration, dead AOD lines): the outcome must be invariant across
// worker counts — identical report fingerprints AND identical per-shot
// grids/accounting.
TEST(HostileProperty, FiftyRandomSeedsInvariantAcrossWorkerCounts) {
  Rng rng(0x4057113);
  for (std::uint32_t master = 0; master < 10; ++master) {
    batch::BatchConfig config;
    config.grid_height = config.grid_width = 16;
    config.plan.target = centered_square(16, 8);  // rows/cols 4..11
    config.plan.dead_channels = DeadChannelMask{{1}, {13}};
    config.fill = 0.75;
    config.shots = 5;
    config.master_seed = rng.next_u64();
    config.loss.seed = rng.next_u64();
    config.loss.per_move_loss = 0.01;
    config.loss.background_loss = 0.005;
    config.loss.burst_loss = 0.3;
    config.loss.burst_length = 5;
    config.imaged_detection = true;
    config.imaging.photons_per_atom = 28.0;
    config.imaging.seed = rng.next_u64();
    config.detection.threshold_bias = 1.2;
    config.drift.shape = DriftShape::Sine;
    config.drift.amplitude = 0.3;
    config.drift.period = 4;
    config.max_rounds = 6;

    config.exec.workers = 1;
    const batch::BatchReport reference = batch::BatchPlanner(config).run();
    config.exec.workers = 5;
    const batch::BatchReport report = batch::BatchPlanner(config).run();
    EXPECT_EQ(report.fingerprint(), reference.fingerprint()) << "master " << master;
    ASSERT_EQ(report.shots.size(), reference.shots.size());
    for (std::size_t s = 0; s < report.shots.size(); ++s) {
      EXPECT_EQ(report.shots[s].final_grid, reference.shots[s].final_grid)
          << "master " << master << " shot " << s;
      EXPECT_EQ(report.shots[s].atoms_lost, reference.shots[s].atoms_lost) << "shot " << s;
      EXPECT_EQ(report.shots[s].success, reference.shots[s].success) << "shot " << s;
      EXPECT_EQ(report.shots[s].rounds, reference.shots[s].rounds) << "shot " << s;
    }
  }
}

}  // namespace
}  // namespace qrm
