#include "moves/schedule.hpp"

#include <limits>
#include <sstream>

#include "util/assert.hpp"

namespace qrm {

// Command indexes sites with 32-bit fields.
constexpr std::size_t kMaxSites = std::numeric_limits<std::uint32_t>::max();

std::span<Coord> Schedule::add_move(Direction dir, std::int32_t steps, std::size_t count) {
  const std::size_t first = sites_.size();
  QRM_EXPECTS_MSG(count <= kMaxSites - first, "a schedule holds fewer than 2^32 sites");
  commands_.push_back(
      {dir, steps, static_cast<std::uint32_t>(first), static_cast<std::uint32_t>(count)});
  sites_.resize(first + count);
  return std::span<Coord>(sites_).subspan(first, count);
}

void Schedule::append(const Schedule& other) {
  // By index after resizing: `other` may be this schedule, whose arrays
  // the resize moves (insert() from a vector's own range is undefined).
  const std::size_t commands = other.commands_.size();
  const std::size_t sites = other.sites_.size();
  const std::size_t first_command = commands_.size();
  const std::size_t first_site = sites_.size();
  QRM_EXPECTS_MSG(sites <= kMaxSites - first_site, "a schedule holds fewer than 2^32 sites");
  commands_.resize(first_command + commands);
  sites_.resize(first_site + sites);
  for (std::size_t i = 0; i < commands; ++i) {
    Command& c = commands_[first_command + i];
    c = other.commands_[i];
    c.first += static_cast<std::uint32_t>(first_site);
  }
  std::copy_n(other.sites_.begin(), sites,
              sites_.begin() + static_cast<std::ptrdiff_t>(first_site));
}

ScheduleStats Schedule::stats() const noexcept {
  ScheduleStats s;
  s.parallel_moves = commands_.size();
  s.atom_moves = sites_.size();
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

std::string Schedule::to_string() const {
  std::ostringstream os;
  for (const ParallelMove& m : moves()) {
    os << to_cstring(m.dir) << " x" << m.steps << " {";
    for (std::size_t i = 0; i < m.sites.size(); ++i) {
      if (i != 0) os << ',';
      os << qrm::to_string(m.sites[i]);
    }
    os << "}\n";
  }
  return os.str();
}

}  // namespace qrm
