// Tests for exec::PlanCache: exact-hit semantics (a hit is bit-equal to a
// cold plan), config-key separation across every planner axis, FIFO
// eviction, and the BatchPlanner wiring — outcome fingerprints must be
// identical with the cache on, off, or shared across batches.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/algorithm.hpp"
#include "batch/batch_planner.hpp"
#include "exec/plan_cache.hpp"
#include "core/planner.hpp"
#include "lattice/region.hpp"
#include "loading/loader.hpp"
#include "moves/dead_channels.hpp"
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
    EXPECT_FALSE(cache.find(key, grid).has_value());
    cache.insert(key, grid, planner.plan(grid));
    const std::optional<PlanResult> hit = cache.find(key, grid);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, cold) << "cache hit diverged from cold plan for seed " << seed;
  }
  const exec::PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(stats.misses, 5u);
  EXPECT_EQ(stats.entries, 5u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

/// One plan shape for the round-trip table: an algorithm ("qrm" plans
/// with the full QrmConfig, any other name through the baselines
/// interface), its configuration and the grid it plans.
struct PlanShape {
  std::string name;
  std::string algorithm = "qrm";
  QrmConfig config;
  OccupancyGrid grid;
};

PlanShape square_shape(std::string name, std::int32_t side, std::int32_t target, double fill,
                       std::uint64_t seed) {
  PlanShape shape;
  shape.name = std::move(name);
  shape.config.target = centered_square(side, target);
  shape.grid = load_random(side, side, {fill, seed});
  return shape;
}

std::vector<PlanShape> every_plan_shape() {
  std::vector<PlanShape> shapes;
  for (const PlanMode mode : {PlanMode::Compact, PlanMode::Balanced}) {
    for (const bool merge : {true, false}) {
      PlanShape shape = square_shape(std::string(to_cstring(mode)) + (merge ? " merged" : ""),
                                     32, 16, 0.6, 11);
      shape.config.mode = mode;
      shape.config.merge_quadrants = merge;
      shapes.push_back(std::move(shape));
    }
  }
  PlanShape unlegalized = square_shape("aod_legalize off", 32, 16, 0.6, 12);
  unlegalized.config.aod_legalize = false;
  shapes.push_back(std::move(unlegalized));
  // Dead lines between the loaded edge and the target: moves across them
  // are multi-step hops.
  PlanShape dead = square_shape("dead rows and columns", 32, 16, 0.6, 13);
  dead.config.dead_channels = DeadChannelMask{{2, 5}, {3, 28}};
  shapes.push_back(std::move(dead));
  for (const std::string& name : baselines::algorithm_names()) {
    PlanShape baseline = square_shape(name, 24, 12, 0.6, 14);
    baseline.algorithm = name;
    shapes.push_back(std::move(baseline));
  }
  shapes.push_back(square_shape("already-full target", 16, 8, 1.0, 15));
  shapes.push_back(square_shape("128x128", 128, 64, 0.55, 16));
  return shapes;
}

PlanResult plan_cold(const PlanShape& shape) {
  if (shape.algorithm == "qrm") return QrmPlanner(shape.config).plan(shape.grid);
  return baselines::make_algorithm(shape.algorithm)->plan(shape.grid, shape.config.target);
}

TEST(PlanCache, HitEqualsTheColdPlanForEveryPlanShape) {
  exec::PlanCache cache;
  for (const PlanShape& shape : every_plan_shape()) {
    SCOPED_TRACE(shape.name);
    const PlanResult cold = plan_cold(shape);
    // The shapes the table exists for.
    if (!shape.config.dead_channels.empty()) {
      EXPECT_GE(cold.schedule.stats().max_steps, 2);
    }
    if (shape.grid.region_full(shape.config.target)) {
      EXPECT_TRUE(cold.schedule.empty());
    }
    if (shape.grid.height() == 128) {
      EXPECT_GT(cold.schedule.stats().max_parallelism, 64u);  // longer than one mask word
    }

    const std::uint64_t key = exec::PlanCache::config_key(shape.algorithm, shape.config);
    EXPECT_TRUE(cache.insert(key, shape.grid, cold));
    const std::optional<PlanResult> hit = cache.find(key, shape.grid);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, cold);
  }
}

TEST(PlanCache, MissesOnDifferentGridOrConfigKey) {
  const QrmConfig config = tiny_config();
  const std::uint64_t key = exec::PlanCache::config_key("qrm", config);
  exec::PlanCache cache;
  const OccupancyGrid grid = tiny_grid(1);
  cache.insert(key, grid, QrmPlanner(config).plan(grid));

  EXPECT_FALSE(cache.find(key, tiny_grid(2)).has_value());
  EXPECT_FALSE(cache.find(key + 1, grid).has_value());
  EXPECT_TRUE(cache.find(key, grid).has_value());
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
  // by the purity contract, and the first insertion wins. The second plan
  // here is another grid's, so the test can tell which one was kept.
  const QrmConfig config = tiny_config();
  const std::uint64_t key = exec::PlanCache::config_key("qrm", config);
  exec::PlanCache cache;
  const OccupancyGrid grid = tiny_grid(1);
  const PlanResult first = QrmPlanner(config).plan(grid);
  const PlanResult second = QrmPlanner(config).plan(tiny_grid(2));
  ASSERT_NE(first, second);
  EXPECT_TRUE(cache.insert(key, grid, first));
  EXPECT_FALSE(cache.insert(key, grid, second));  // same entry, not a replacement
  EXPECT_EQ(cache.stats().entries, 1u);
  const std::optional<PlanResult> kept = cache.find(key, grid);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(*kept, first);
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
  EXPECT_FALSE(cache.find(key, tiny_grid(0)).has_value());
  EXPECT_TRUE(cache.find(key, tiny_grid(9)).has_value());

  // A plan returned by find stays intact after its entry is evicted.
  const OccupancyGrid pinned_grid = tiny_grid(20);
  cache.insert(key, pinned_grid, planner.plan(pinned_grid));
  const std::optional<PlanResult> pinned = cache.find(key, pinned_grid);
  ASSERT_TRUE(pinned.has_value());
  for (std::uint64_t seed = 30; seed < 40; ++seed) {
    const OccupancyGrid grid = tiny_grid(seed);
    cache.insert(key, grid, planner.plan(grid));
  }
  EXPECT_FALSE(cache.find(key, pinned_grid).has_value());
  EXPECT_EQ(pinned->final_grid, QrmPlanner(config).plan(pinned_grid).final_grid);
  EXPECT_EQ(*pinned, QrmPlanner(config).plan(pinned_grid));
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
      const std::optional<PlanResult> hit = cache.find(key, grid);
      ASSERT_TRUE(hit.has_value()) << "target " << config.target.rows << " seed " << seed;
      EXPECT_EQ(*hit, planner.plan(grid))
          << "collision served the wrong plan for target " << config.target.rows << " seed "
          << seed;
    }
    EXPECT_FALSE(cache.find(key, tiny_grid(7)).has_value())
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
    EXPECT_FALSE(cache.find(key, tiny_grid(seed)).has_value())
        << "seed " << seed << " should be evicted";
  for (std::uint64_t seed = 6; seed <= 8; ++seed)
    EXPECT_TRUE(cache.find(key, tiny_grid(seed)).has_value())
        << "seed " << seed << " should survive";

  // Re-inserting an evicted grid works and evicts the now-oldest (seed 6).
  cache.insert(key, tiny_grid(1), planner.plan(tiny_grid(1)));
  EXPECT_TRUE(cache.find(key, tiny_grid(1)).has_value());
  EXPECT_FALSE(cache.find(key, tiny_grid(6)).has_value());
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
  const PlanResult first = planner.plan(grid);
  EXPECT_TRUE(cache.insert(key, grid, first));
  // Another grid's plan, so the test can tell which one the cell kept.
  EXPECT_FALSE(cache.insert(key, grid, planner.plan(tiny_grid(4))));
  EXPECT_EQ(cache.stats().entries, 1u);
  const std::optional<PlanResult> kept = cache.find(key, grid);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(*kept, first);

  // Fill to capacity and push one more: the duplicate never double-counted,
  // so exactly one eviction fires and it takes the oldest real entry.
  cache.insert(key, tiny_grid(2), planner.plan(tiny_grid(2)));
  cache.insert(key, tiny_grid(3), planner.plan(tiny_grid(3)));
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.find(key, grid).has_value());
  EXPECT_TRUE(cache.find(key, tiny_grid(2)).has_value());
  EXPECT_TRUE(cache.find(key, tiny_grid(3)).has_value());
}

TEST(PlanCache, ConcurrentHitsStayExactWhileTheirEntriesAreEvicted) {
  // find() expands a hit after releasing the mutex, while inserts on other
  // threads evict entries. Each thread looks every grid up four times in a
  // row, so it hits, while four threads over eight grids keep a two-entry
  // cache evicting.
  exec::PlanCacheConfig cache_config;
  cache_config.max_entries = 2;
  exec::PlanCache cache(cache_config);
  const QrmConfig config = tiny_config();
  const QrmPlanner planner(config);
  const std::uint64_t key = exec::PlanCache::config_key("qrm", config);
  std::vector<OccupancyGrid> grids;
  std::vector<PlanResult> cold;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    grids.push_back(tiny_grid(seed));
    cold.push_back(planner.plan(grids.back()));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < 400; ++i) {
        const std::size_t g = (i / 4 + t) % grids.size();
        if (const std::optional<PlanResult> hit = cache.find(key, grids[g])) {
          if (*hit != cold[g]) ++mismatches;
        } else {
          cache.insert(key, grids[g], cold[g]);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  const exec::PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 4u * 400u);
  EXPECT_LE(stats.entries, 2u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(PlanCache, RejectsFullWidthKeyMask) {
  exec::PlanCacheConfig cache_config;
  cache_config.key_bits = 64;  // the mask shift would be UB; must be rejected
  EXPECT_THROW((void)exec::PlanCache(cache_config), PreconditionError);
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
