#include "exec/plan_cache.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"
#include "util/fnv.hpp"

namespace qrm::exec {

PlanCacheStats& PlanCacheStats::operator-=(const PlanCacheStats& earlier) noexcept {
  hits -= earlier.hits;
  misses -= earlier.misses;
  evictions -= earlier.evictions;
  entries -= earlier.entries;
  return *this;
}

void mix_grid(std::uint64_t& hash, const OccupancyGrid& grid) noexcept {
  fnv::mix_u64(hash, static_cast<std::uint64_t>(grid.height()));
  fnv::mix_u64(hash, static_cast<std::uint64_t>(grid.width()));
  for (std::int32_t r = 0; r < grid.height(); ++r) {
    for (const BitRow::Word word : grid.row(r).words()) fnv::mix_u64(hash, word);
  }
}

PlanCache::PlanCache(PlanCacheConfig config) : config_(config) {
  if (config_.max_entries == 0) config_.max_entries = 1;
  QRM_EXPECTS_MSG(config_.key_bits < 64, "key_bits is a mask width: 1..63, or 0 for full keys");
}

std::uint64_t PlanCache::config_key(const std::string& algorithm,
                                    const QrmConfig& plan) noexcept {
  std::uint64_t hash = fnv::kOffset;
  fnv::mix_text(hash, algorithm);
  fnv::mix_u64(hash, static_cast<std::uint64_t>(plan.target.row0));
  fnv::mix_u64(hash, static_cast<std::uint64_t>(plan.target.col0));
  fnv::mix_u64(hash, static_cast<std::uint64_t>(plan.target.rows));
  fnv::mix_u64(hash, static_cast<std::uint64_t>(plan.target.cols));
  fnv::mix_u64(hash, static_cast<std::uint64_t>(plan.mode));
  fnv::mix_u64(hash, static_cast<std::uint64_t>(plan.max_iterations));
  fnv::mix_u64(hash, plan.merge_quadrants ? 1 : 0);
  fnv::mix_u64(hash, plan.aod_legalize ? 1 : 0);
  fnv::mix_u64(hash, static_cast<std::uint64_t>(plan.sen_limit));
  // Dead channels change plan output (masked input + hop realization), so
  // two configs differing only in the mask must never share cache cells.
  fnv::mix_u64(hash, static_cast<std::uint64_t>(plan.dead_channels.rows.size()));
  for (const std::int32_t row : plan.dead_channels.rows)
    fnv::mix_u64(hash, static_cast<std::uint64_t>(row));
  fnv::mix_u64(hash, static_cast<std::uint64_t>(plan.dead_channels.cols.size()));
  for (const std::int32_t col : plan.dead_channels.cols)
    fnv::mix_u64(hash, static_cast<std::uint64_t>(col));
  return hash;
}

std::uint64_t PlanCache::cell_key(std::uint64_t config_key,
                                  const OccupancyGrid& grid) const noexcept {
  std::uint64_t hash = config_key;
  mix_grid(hash, grid);
  if (config_.key_bits != 0) hash &= (std::uint64_t{1} << config_.key_bits) - 1;
  return hash;
}

namespace {

void append_words(std::vector<BitRow::Word>& out, const OccupancyGrid& grid) {
  for (std::int32_t r = 0; r < grid.height(); ++r) {
    const std::vector<BitRow::Word>& words = grid.row(r).words();
    out.insert(out.end(), words.begin(), words.end());
  }
}

}  // namespace

PlanCache::Entry::Entry(std::uint64_t key, const OccupancyGrid& grid, const PlanResult& plan)
    : config_key(key),
      height(grid.height()),
      width(grid.width()),
      schedule(plan.schedule),
      stats(plan.stats) {
  QRM_EXPECTS_MSG(plan.final_grid.height() == height && plan.final_grid.width() == width,
                  "a cached plan must end on a grid of its input's shape");
  const std::size_t words = static_cast<std::size_t>(height) *
                            ((static_cast<std::size_t>(width) + BitRow::kWordBits - 1) /
                             BitRow::kWordBits);
  grid_words.reserve(words);
  append_words(grid_words, grid);
  final_words.reserve(words);
  append_words(final_words, plan.final_grid);
}

bool PlanCache::Entry::holds(std::uint64_t key, const OccupancyGrid& grid) const {
  if (key != config_key || grid.height() != height || grid.width() != width) return false;
  auto word = grid_words.begin();
  for (std::int32_t r = 0; r < height; ++r) {
    const std::vector<BitRow::Word>& row = grid.row(r).words();
    if (!std::equal(row.begin(), row.end(), word)) return false;
    word += static_cast<std::ptrdiff_t>(row.size());
  }
  return true;
}

PlanResult PlanCache::Entry::plan() const {
  PlanResult plan;
  plan.schedule = schedule;
  plan.final_grid = OccupancyGrid(height, width);
  BitRow row(static_cast<std::uint32_t>(width));
  auto word = final_words.begin();
  for (std::int32_t r = 0; r < height; ++r) {
    for (std::uint32_t w = 0; w < row.words().size(); ++w) row.set_word(w, *word++);
    plan.final_grid.set_row(r, row);
  }
  plan.stats = stats;
  return plan;
}

std::optional<PlanResult> PlanCache::find(std::uint64_t config_key,
                                          const OccupancyGrid& grid) const {
  const std::uint64_t key = cell_key(config_key, grid);
  std::shared_ptr<const Entry> hit;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto bucket = cells_.find(key);
    if (bucket != cells_.end()) {
      for (const std::shared_ptr<const Entry>& entry : bucket->second) {
        if (entry->holds(config_key, grid)) {
          hit = entry;
          break;
        }
      }
    }
    if (hit == nullptr) {
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.hits;
  }
  return hit->plan();
}

bool PlanCache::insert(std::uint64_t config_key, const OccupancyGrid& grid,
                       const PlanResult& plan) {
  const std::uint64_t key = cell_key(config_key, grid);
  auto entry = std::make_shared<const Entry>(config_key, grid, plan);
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<const Entry>>& bucket = cells_[key];
  for (const std::shared_ptr<const Entry>& cached : bucket) {
    // A concurrent planner got here first.
    if (cached->holds(config_key, grid)) return false;
  }
  bucket.push_back(std::move(entry));
  insertion_order_.push_back(key);
  ++entries_;

  // FIFO eviction, exact under collisions: insertion_order_ holds one deque
  // entry per insert, entries within a bucket chain in insert order, so the
  // front key's bucket-front entry is always the globally oldest insertion
  // for that key. May evict the entry just inserted (max_entries == 1 with
  // distinct cells); the caller still holds the plan it inserted.
  while (entries_ > config_.max_entries) {
    const std::uint64_t oldest = insertion_order_.front();
    insertion_order_.pop_front();
    const auto victim = cells_.find(oldest);
    // The deque and the buckets are 1:1 (every push_back above pairs with
    // one bucket append; eviction removes one of each). A missing or empty
    // bucket means the accounting desynced — fail loudly instead of
    // silently skipping, which would leave entries_ overcounting forever.
    QRM_ENSURES_MSG(victim != cells_.end() && !victim->second.empty(),
                    "plan cache accounting desync: insertion order names an empty bucket");
    victim->second.erase(victim->second.begin());
    if (victim->second.empty()) cells_.erase(victim);
    --entries_;
    ++stats_.evictions;
  }
  return true;
}

PlanCacheStats PlanCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  PlanCacheStats snapshot = stats_;
  snapshot.entries = entries_;
  return snapshot;
}

void PlanCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  cells_.clear();
  insertion_order_.clear();
  entries_ = 0;
  stats_ = {};
}

}  // namespace qrm::exec
