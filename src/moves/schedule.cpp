#include "moves/schedule.hpp"

#include <limits>

#include "util/assert.hpp"

namespace qrm {

// Command indexes sites and line words with 32-bit fields.
constexpr std::size_t kMax32 = std::numeric_limits<std::uint32_t>::max();

std::span<Coord> Schedule::add_move(Direction dir, std::int32_t steps, std::size_t count) {
  QRM_EXPECTS_MSG(steps >= 1, "move step count must be >= 1");
  QRM_EXPECTS_MSG(count <= kMax32 - site_count_, "a schedule holds fewer than 2^32 sites");
  const std::size_t first = sites_.size();
  commands_.push_back({dir, steps, static_cast<std::uint32_t>(first),
                       static_cast<std::uint32_t>(count), 0, 0});
  site_count_ += count;
  sites_.resize(first + count);
  return std::span<Coord>(sites_).subspan(first, count);
}

std::span<Schedule::Word> Schedule::add_lines(Direction dir, std::int32_t steps, std::size_t lines,
                                              std::size_t line_words, std::size_t count) {
  QRM_EXPECTS_MSG(steps >= 1, "move step count must be >= 1");
  QRM_EXPECTS(line_words >= 1 && line_words < kMax32);
  QRM_EXPECTS_MSG(count <= kMax32 - site_count_, "a schedule holds fewer than 2^32 sites");
  const std::size_t first = lines_.size();
  QRM_EXPECTS_MSG(lines <= (kMax32 - first) / (line_words + 1),
                  "a schedule holds fewer than 2^32 line words");
  const std::size_t words = lines * (line_words + 1);
  commands_.push_back({dir, steps, static_cast<std::uint32_t>(first),
                       static_cast<std::uint32_t>(count), static_cast<std::uint32_t>(lines),
                       static_cast<std::uint32_t>(line_words)});
  site_count_ += count;
  lines_.resize(first + words);
  return std::span<Word>(lines_).subspan(first, words);
}

void Schedule::append(const Schedule& other) {
  // By index after resizing: `other` may be this schedule, whose arrays
  // the resize moves (insert() from a vector's own range is undefined).
  const std::size_t commands = other.commands_.size();
  const std::size_t sites = other.sites_.size();
  const std::size_t words = other.lines_.size();
  const std::size_t added = other.site_count_;
  const std::size_t first_command = commands_.size();
  const std::size_t first_site = sites_.size();
  const std::size_t first_word = lines_.size();
  QRM_EXPECTS_MSG(added <= kMax32 - site_count_, "a schedule holds fewer than 2^32 sites");
  QRM_EXPECTS_MSG(words <= kMax32 - first_word, "a schedule holds fewer than 2^32 line words");
  commands_.resize(first_command + commands);
  sites_.resize(first_site + sites);
  lines_.resize(first_word + words);
  for (std::size_t i = 0; i < commands; ++i) {
    Command& c = commands_[first_command + i];
    c = other.commands_[i];
    c.first += static_cast<std::uint32_t>(c.line_words == 0 ? first_site : first_word);
  }
  std::copy_n(other.sites_.begin(), sites,
              sites_.begin() + static_cast<std::ptrdiff_t>(first_site));
  std::copy_n(other.lines_.begin(), words,
              lines_.begin() + static_cast<std::ptrdiff_t>(first_word));
  site_count_ += added;
}

ScheduleStats Schedule::stats() const noexcept {
  ScheduleStats s;
  s.parallel_moves = commands_.size();
  s.atom_moves = site_count_;
  for (const Command& c : commands_) {
    s.total_steps += static_cast<std::int64_t>(c.count) * c.steps;
    if (c.steps > s.max_steps) s.max_steps = c.steps;
    if (c.count > s.max_parallelism) s.max_parallelism = c.count;
  }
  s.mean_parallelism = s.parallel_moves == 0
                           ? 0.0
                           : static_cast<double>(s.atom_moves) /
                                 static_cast<double>(s.parallel_moves);
  return s;
}

}  // namespace qrm
