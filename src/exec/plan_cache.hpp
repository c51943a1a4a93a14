#pragma once
/// \file plan_cache.hpp
/// Content-addressed cache of PlanResults, shared across shots and
/// scenarios.
///
/// Every planner in the repo is a pure function of (planner configuration,
/// occupancy grid) — the rt::PlanFn contract — so a plan computed once can
/// be spliced into any later round that sees the same configuration and the
/// same grid. The cases that actually recur in campaigns: Pattern scenarios
/// replan the exact same deterministic grid on every shot's first round,
/// and sweep matrices repeat identical (spec axes, workload) cells.
///
/// Correctness contract: a hit returns a PlanResult bit-equal to what a
/// cold plan would produce. Entries whose 64-bit cell key collides are
/// disambiguated by their config key and full grid content, so a collision
/// of cell keys never substitutes another grid's or another configuration's
/// plan (two configurations whose 64-bit config keys collide would). Outcome
/// fingerprints are therefore identical with the cache on or off; this is
/// pinned by plan_cache_test and the 50-seed property in property_test.
///
/// Stats note: hit/miss counts depend on which concurrent shot planned a
/// grid first, so PlanCacheStats is measurement (like wall-clock), not
/// outcome — it is excluded from every fingerprint and from deterministic
/// report artifacts.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "lattice/grid.hpp"

namespace qrm::exec {

struct PlanCacheConfig {
  /// Entry cap; the oldest insertion is evicted when full (FIFO — plans
  /// recur shot-to-shot, so recency tracking buys little here).
  std::size_t max_entries = 1u << 14;
  /// Test hook: mask cell keys down to the low N bits (1..63) so tests can
  /// deterministically force distinct grids into one colliding bucket and
  /// exercise the chained-eviction paths (a genuine 64-bit FNV collision is
  /// not constructible on demand). 0 = full 64-bit keys, the production
  /// default. Correctness is unaffected either way — hits are resolved by
  /// config key and grid equality, never by the cell key alone.
  std::uint32_t key_bits = 0;
};

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t lookups = hits + misses;
    return lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
  }

  /// What a cache recorded since `earlier`, a snapshot of the same cache
  /// (entries: the net change, modulo 2^64 when evictions outran inserts).
  PlanCacheStats& operator-=(const PlanCacheStats& earlier) noexcept;
};

/// Mix an occupancy grid (dims + words) into an FNV-1a hash. Exactly the
/// byte order BatchReport::fingerprint uses for grids, exposed so the two
/// never diverge.
void mix_grid(std::uint64_t& hash, const OccupancyGrid& grid) noexcept;

/// Thread-safe plan memoisation keyed on (planner-config key, grid).
///
/// Entries are flat: the key grid's words, the plan's Schedule as it is
/// (one command record array and one site array), the final grid's words
/// and the stats. So a plan costs a handful of heap blocks to store and to
/// free however long its schedule is, and a PlanResult is built from an
/// entry only on a hit.
class PlanCache {
 public:
  explicit PlanCache(PlanCacheConfig config = {});

  /// The key prefix of one planner configuration: every axis that can
  /// change a plan's output (algorithm name, target, mode, iteration cap,
  /// merge/legalize toggles, sen gate). The shot seed is deliberately NOT
  /// part of the key — a plan depends on the seed only through the grid it
  /// generated, and folding the seed in would stop Pattern shots (identical
  /// grids, distinct seeds) from ever sharing an entry.
  [[nodiscard]] static std::uint64_t config_key(const std::string& algorithm,
                                                const QrmConfig& plan) noexcept;

  /// Look up a plan; nullopt on miss. A hit is a PlanResult built from the
  /// entry, outside the mutex, for the caller alone: evicting the entry
  /// later leaves it intact.
  [[nodiscard]] std::optional<PlanResult> find(std::uint64_t config_key,
                                               const OccupancyGrid& grid) const;

  /// Store `plan`, computed for (config_key, grid), as a flat entry.
  /// Returns true when it stored the plan and false when the cell was
  /// already cached: if a concurrent shot inserted it first, the existing
  /// entry wins (both are bit-equal by the purity contract) — insert never
  /// replaces. Precondition: plan.final_grid has the shape of `grid`.
  bool insert(std::uint64_t config_key, const OccupancyGrid& grid, const PlanResult& plan);

  [[nodiscard]] PlanCacheStats stats() const;
  void clear();

 private:
  struct Entry {
    /// Copies `plan`; insert runs it before taking the mutex.
    Entry(std::uint64_t key, const OccupancyGrid& grid, const PlanResult& plan);

    /// True when this entry caches exactly (key, grid).
    [[nodiscard]] bool holds(std::uint64_t key, const OccupancyGrid& grid) const;
    [[nodiscard]] PlanResult plan() const;

    std::uint64_t config_key = 0;
    std::int32_t height = 0;  ///< of the key grid, and so of the final grid
    std::int32_t width = 0;
    std::vector<BitRow::Word> grid_words;  ///< full content, so a hit is provably exact
    Schedule schedule;
    std::vector<BitRow::Word> final_words;
    PlanStats stats;
  };

  /// Full bucket key of one (config, grid) cell, masked per config_.key_bits.
  [[nodiscard]] std::uint64_t cell_key(std::uint64_t config_key,
                                       const OccupancyGrid& grid) const noexcept;

  PlanCacheConfig config_;
  mutable std::mutex mutex_;
  /// Buckets keyed by the 64-bit cell key; colliding cells chain within a
  /// bucket and are resolved by config key and grid equality.
  /// Entries are shared so that find() can expand a hit after releasing
  /// the mutex, while a concurrent insert may evict it.
  std::unordered_map<std::uint64_t, std::vector<std::shared_ptr<const Entry>>> cells_;
  std::deque<std::uint64_t> insertion_order_;  ///< cell keys, for FIFO eviction
  std::size_t entries_ = 0;
  mutable PlanCacheStats stats_;
};

}  // namespace qrm::exec
