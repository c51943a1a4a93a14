// Tests for exec::PlanCache: exact-hit semantics (a hit is bit-equal to a
// cold plan), config-key separation across every planner axis, FIFO
// eviction, and the BatchPlanner wiring — outcome fingerprints must be
// identical with the cache on, off, or shared across batches.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "batch/batch_planner.hpp"
#include "exec/plan_cache.hpp"
#include "core/planner.hpp"
#include "lattice/region.hpp"
#include "loading/loader.hpp"
#include "util/assert.hpp"

namespace qrm {
namespace {

QrmConfig tiny_config() {
  QrmConfig config;
  config.target = centered_region(16, 16, 8, 8);
  return config;
}

OccupancyGrid tiny_grid(std::uint64_t seed, double fill = 0.7) {
  return load_random(16, 16, {fill, seed});
}

TEST(PlanCache, HitIsBitEqualToColdPlan) {
  const QrmConfig config = tiny_config();
  const QrmPlanner planner(config);
  const std::uint64_t key = exec::PlanCache::config_key("qrm", config);
  exec::PlanCache cache;

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const OccupancyGrid grid = tiny_grid(seed);
    const PlanResult cold = planner.plan(grid);
    EXPECT_EQ(cache.find(key, grid), nullptr);
    cache.insert(key, grid, planner.plan(grid));
    const std::shared_ptr<const PlanResult> hit = cache.find(key, grid);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, cold) << "cache hit diverged from cold plan for seed " << seed;
  }
  const exec::PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(stats.misses, 5u);
  EXPECT_EQ(stats.entries, 5u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(PlanCache, MissesOnDifferentGridOrConfigKey) {
  const QrmConfig config = tiny_config();
  const std::uint64_t key = exec::PlanCache::config_key("qrm", config);
  exec::PlanCache cache;
  const OccupancyGrid grid = tiny_grid(1);
  cache.insert(key, grid, QrmPlanner(config).plan(grid));

  EXPECT_EQ(cache.find(key, tiny_grid(2)), nullptr);
  EXPECT_EQ(cache.find(key + 1, grid), nullptr);
  EXPECT_NE(cache.find(key, grid), nullptr);
}

TEST(PlanCache, ConfigKeySeparatesEveryPlannerAxis) {
  const QrmConfig base = tiny_config();
  const std::uint64_t base_key = exec::PlanCache::config_key("qrm", base);

  EXPECT_NE(exec::PlanCache::config_key("tetris", base), base_key);

  QrmConfig changed = base;
  changed.mode = PlanMode::Compact;
  EXPECT_NE(exec::PlanCache::config_key("qrm", changed), base_key);

  changed = base;
  changed.target = centered_region(16, 16, 6, 6);
  EXPECT_NE(exec::PlanCache::config_key("qrm", changed), base_key);

  changed = base;
  changed.max_iterations = 7;
  EXPECT_NE(exec::PlanCache::config_key("qrm", changed), base_key);

  changed = base;
  changed.merge_quadrants = false;
  EXPECT_NE(exec::PlanCache::config_key("qrm", changed), base_key);

  changed = base;
  changed.aod_legalize = false;
  EXPECT_NE(exec::PlanCache::config_key("qrm", changed), base_key);

  changed = base;
  changed.sen_limit = 3;
  EXPECT_NE(exec::PlanCache::config_key("qrm", changed), base_key);

  // And the key is a pure function of its inputs.
  EXPECT_EQ(exec::PlanCache::config_key("qrm", base), base_key);
}

TEST(PlanCache, InsertKeepsTheFirstPlanForACell) {
  // Two concurrent shots may plan the same cell; both plans are bit-equal
  // by the purity contract, and the first insertion wins.
  const QrmConfig config = tiny_config();
  const std::uint64_t key = exec::PlanCache::config_key("qrm", config);
  exec::PlanCache cache;
  const OccupancyGrid grid = tiny_grid(1);
  const std::shared_ptr<const PlanResult> first =
      cache.insert(key, grid, QrmPlanner(config).plan(grid));
  const std::shared_ptr<const PlanResult> second =
      cache.insert(key, grid, QrmPlanner(config).plan(grid));
  EXPECT_EQ(first, second);  // same entry, not a replacement
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(PlanCache, FifoEvictionCapsEntries) {
  exec::PlanCacheConfig cache_config;
  cache_config.max_entries = 4;
  exec::PlanCache cache(cache_config);
  const QrmConfig config = tiny_config();
  const QrmPlanner planner(config);
  const std::uint64_t key = exec::PlanCache::config_key("qrm", config);

  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const OccupancyGrid grid = tiny_grid(seed);
    cache.insert(key, grid, planner.plan(grid));
  }
  const exec::PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.evictions, 6u);
  // Oldest insertions are gone, the newest survive.
  EXPECT_EQ(cache.find(key, tiny_grid(0)), nullptr);
  EXPECT_NE(cache.find(key, tiny_grid(9)), nullptr);

  // A held pointer stays valid across eviction of its entry.
  const OccupancyGrid pinned_grid = tiny_grid(20);
  const std::shared_ptr<const PlanResult> pinned =
      cache.insert(key, pinned_grid, planner.plan(pinned_grid));
  for (std::uint64_t seed = 30; seed < 40; ++seed) {
    const OccupancyGrid grid = tiny_grid(seed);
    cache.insert(key, grid, planner.plan(grid));
  }
  EXPECT_EQ(cache.find(key, pinned_grid), nullptr);
  EXPECT_EQ(pinned->final_grid, QrmPlanner(config).plan(pinned_grid).final_grid);
}

TEST(PlanCache, CollidingKeysStillResolveHitsByGridContent) {
  // key_bits = 1 leaves two possible cell keys, so distinct cells (six
  // grids under two configurations) are forced into shared buckets. Hits
  // must still return exactly the plan for the looked-up configuration and
  // grid — collisions can narrow a bucket, never substitute a wrong plan.
  exec::PlanCacheConfig cache_config;
  cache_config.key_bits = 1;
  exec::PlanCache cache(cache_config);
  std::vector<QrmConfig> configs{tiny_config(), tiny_config()};
  configs[1].target = centered_region(16, 16, 4, 4);

  for (const QrmConfig& config : configs) {
    const QrmPlanner planner(config);
    const std::uint64_t key = exec::PlanCache::config_key("qrm", config);
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
      cache.insert(key, tiny_grid(seed), planner.plan(tiny_grid(seed)));
  }
  EXPECT_EQ(cache.stats().entries, 12u);

  for (const QrmConfig& config : configs) {
    const QrmPlanner planner(config);
    const std::uint64_t key = exec::PlanCache::config_key("qrm", config);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const OccupancyGrid grid = tiny_grid(seed);
      const std::shared_ptr<const PlanResult> hit = cache.find(key, grid);
      ASSERT_NE(hit, nullptr) << "target " << config.target.rows << " seed " << seed;
      EXPECT_EQ(*hit, planner.plan(grid))
          << "collision served the wrong plan for target " << config.target.rows << " seed "
          << seed;
    }
    EXPECT_EQ(cache.find(key, tiny_grid(7)), nullptr)
        << "an uninserted grid must miss even when its masked key collides";
  }
}

TEST(PlanCache, FifoEvictionStaysExactUnderForcedCollisions) {
  // Regression for the eviction/accounting audit: with every insertion
  // crammed into at most two buckets, eviction must still remove exactly
  // the globally oldest insertion (bucket-front of the front key — the
  // deque and the bucket chains append in the same order), and entries_
  // must track the real entry count, not the bucket count.
  exec::PlanCacheConfig cache_config;
  cache_config.key_bits = 1;
  cache_config.max_entries = 3;
  exec::PlanCache cache(cache_config);
  const QrmConfig config = tiny_config();
  const QrmPlanner planner(config);
  const std::uint64_t key = exec::PlanCache::config_key("qrm", config);

  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    cache.insert(key, tiny_grid(seed), planner.plan(tiny_grid(seed)));

  const exec::PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 5u);
  // Exactly the three newest insertions survive, in spite of the chains.
  for (std::uint64_t seed = 1; seed <= 5; ++seed)
    EXPECT_EQ(cache.find(key, tiny_grid(seed)), nullptr) << "seed " << seed << " should be evicted";
  for (std::uint64_t seed = 6; seed <= 8; ++seed)
    EXPECT_NE(cache.find(key, tiny_grid(seed)), nullptr) << "seed " << seed << " should survive";

  // Re-inserting an evicted grid works and evicts the now-oldest (seed 6).
  cache.insert(key, tiny_grid(1), planner.plan(tiny_grid(1)));
  EXPECT_NE(cache.find(key, tiny_grid(1)), nullptr);
  EXPECT_EQ(cache.find(key, tiny_grid(6)), nullptr);
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().evictions, 6u);
}

TEST(PlanCache, DuplicateInsertUnderCollisionsDoesNotDesyncAccounting) {
  // First-insert-wins must hold inside a chained bucket too: a duplicate
  // insert neither grows entries_ nor queues a second eviction ticket for
  // the same entry (which would make a later eviction pop a live one).
  exec::PlanCacheConfig cache_config;
  cache_config.key_bits = 1;
  cache_config.max_entries = 2;
  exec::PlanCache cache(cache_config);
  const QrmConfig config = tiny_config();
  const QrmPlanner planner(config);
  const std::uint64_t key = exec::PlanCache::config_key("qrm", config);

  const OccupancyGrid grid = tiny_grid(1);
  const std::shared_ptr<const PlanResult> first = cache.insert(key, grid, planner.plan(grid));
  EXPECT_EQ(cache.insert(key, grid, planner.plan(grid)), first);
  EXPECT_EQ(cache.stats().entries, 1u);

  // Fill to capacity and push one more: the duplicate never double-counted,
  // so exactly one eviction fires and it takes the oldest real entry.
  cache.insert(key, tiny_grid(2), planner.plan(tiny_grid(2)));
  cache.insert(key, tiny_grid(3), planner.plan(tiny_grid(3)));
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.find(key, grid), nullptr);
  EXPECT_NE(cache.find(key, tiny_grid(2)), nullptr);
  EXPECT_NE(cache.find(key, tiny_grid(3)), nullptr);
}

TEST(PlanCache, RejectsFullWidthKeyMask) {
  exec::PlanCacheConfig cache_config;
  cache_config.key_bits = 64;  // the mask shift would be UB; must be rejected
  EXPECT_THROW((void)exec::PlanCache(cache_config), PreconditionError);
}

TEST(PlanCache, ClearResetsEverything) {
  const QrmConfig config = tiny_config();
  const std::uint64_t key = exec::PlanCache::config_key("qrm", config);
  exec::PlanCache cache;
  const OccupancyGrid grid = tiny_grid(1);
  cache.insert(key, grid, QrmPlanner(config).plan(grid));
  (void)cache.find(key, grid);
  cache.clear();
  const exec::PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(cache.find(key, grid), nullptr);
}

/// The wiring test: a captured batch of identical grids (the Pattern
/// scenario shape) must produce the same fingerprint with the cache on or
/// off, while the cached run actually hits.
TEST(PlanCache, BatchPlannerFingerprintUnchangedAndHitsOnIdenticalShots) {
  const OccupancyGrid pattern = load_pattern(16, 16, Pattern::Checkerboard);
  const std::vector<OccupancyGrid> captured(8, pattern);

  batch::BatchConfig config;
  config.plan.target = centered_region(16, 16, 8, 8);
  config.exec.workers = 2;
  config.max_rounds = 4;

  const std::uint64_t cold_fingerprint = batch::BatchPlanner(config).run(captured).fingerprint();

  config.exec.plan_cache = std::make_shared<exec::PlanCache>();
  const std::uint64_t cached_fingerprint =
      batch::BatchPlanner(config).run(captured).fingerprint();

  EXPECT_EQ(cached_fingerprint, cold_fingerprint);
  const exec::PlanCacheStats stats = config.exec.plan_cache->stats();
  // All 8 shots plan the identical first-round grid. Hit counts are
  // measurement, not outcome: each of the 2 workers may cold-plan that
  // cell concurrently before either inserts, so at least 8 - workers of
  // the first-round plans must hit (later rounds diverge per shot).
  EXPECT_GE(stats.hits, 8u - 2u);
  EXPECT_GE(stats.misses, 1u);
}

TEST(PlanCache, SharedAcrossBatchesReusesPlans) {
  const OccupancyGrid pattern = load_pattern(16, 16, Pattern::RowStripes);
  const std::vector<OccupancyGrid> captured(4, pattern);

  batch::BatchConfig config;
  config.plan.target = centered_region(16, 16, 8, 8);
  config.exec.workers = 2;
  config.max_rounds = 3;
  config.exec.plan_cache = std::make_shared<exec::PlanCache>();

  const batch::BatchReport first = batch::BatchPlanner(config).run(captured);
  const exec::PlanCacheStats after_first = config.exec.plan_cache->stats();
  const batch::BatchReport second = batch::BatchPlanner(config).run(captured);
  const exec::PlanCacheStats after_second = config.exec.plan_cache->stats();

  EXPECT_EQ(first.fingerprint(), second.fingerprint());
  // The second batch replays the same shots against a warm cache: every
  // plan it needs is already present, so misses do not grow.
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_GT(after_second.hits, after_first.hits);
}

}  // namespace
}  // namespace qrm
